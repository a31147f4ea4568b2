"""Skip-gram character vectors with negative sampling.

Pretrained on a plain character stream (poems flattened in corpus order) and
copied over the rows of the attention model's seeded embedding draw. The
reference implementation is single threaded and bit-reproducible under a fixed
seed.
"""

import codecs
import math
from itertools import groupby
from operator import itemgetter

import numpy as np

from .corpus import N_RESERVED

SGD_LR = 0.025


class EmbeddingMatrix:
    """Pretrained vectors: chars in training order, one row each."""

    def __init__(self, chars, matrix):
        self.chars = list(chars)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.row = {c: i for i, c in enumerate(self.chars)}
        if self.matrix.shape[0] != len(self.chars):
            raise ValueError("row count %d != char count %d"
                             % (self.matrix.shape[0], len(self.chars)))

    @property
    def d(self):
        return self.matrix.shape[1]

    def vector(self, char):
        return self.matrix[self.row[char]]

    def copy_into(self, emb, vocab):
        """Overwrite in place the rows of a model's (V, d) embedding `emb` whose
        vocabulary character has a vector here. Reserved tokens and characters
        without a vector keep their rows; vectors of characters outside the
        vocabulary are unused."""
        if self.d != emb.shape[1]:
            raise ValueError("pretrained dimension %d != model dimension %d"
                             % (self.d, emb.shape[1]))
        for char, idx in vocab.char_to_id.items():
            if idx >= N_RESERVED and char in self.row:
                emb[idx] = self.vector(char)

    def save_text(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("%d %d\n" % (len(self.chars), self.d))
            for c, vec in zip(self.chars, self.matrix):
                f.write(c + " " + " ".join("%.17g" % x for x in vec) + "\n")

    @classmethod
    def load_text(cls, path):
        """Read a `save_text` file; a malformed one raises ValueError naming
        the path and line. A non-finite value, a character given a second
        row, a row past the declared count or a byte that is not UTF-8 is
        malformed. A leading byte-order mark is dropped."""
        line_of, rows, lineno = {}, [], 1
        try:
            with open(path, "rb") as f:     # lines decode one by one, so a bad byte names its own
                lines = f.read().removeprefix(codecs.BOM_UTF8).rstrip(b"\n").split(b"\n")
            n, d = (int(x) for x in lines[0].decode("utf-8").split())
            if n < 1 or d < 1:
                raise ValueError("row count and dimension must be positive")
            for lineno, line in enumerate(lines[1:], start=2):
                if lineno > n + 1:
                    raise ValueError("row past the declared count of %d" % n)
                char, *vec = line.decode("utf-8").split(" ")
                if len(vec) != d:
                    raise ValueError("%d values, expected %d" % (len(vec), d))
                row = [float(x) for x in vec]
                if not all(map(math.isfinite, row)):
                    raise ValueError("non-finite value")
                if char in line_of:
                    raise ValueError("character %r already has a row on line %d"
                                     % (char, line_of[char]))
                line_of[char] = lineno
                rows.append(row)
            if len(rows) < n:
                lineno = len(lines) + 1
                raise ValueError("file ends after %d of %d rows" % (len(rows), n))
        except ValueError as e:
            raise ValueError("embeddings %s line %d: %s" % (path, lineno, e)) from e
        return cls(line_of, np.array(rows))


def skipgram_pairs(chars, window):
    """All (center, context) index pairs within the window, in corpus order."""
    n = len(chars)
    for i in range(n):
        for j in range(max(0, i - window), min(n, i + window + 1)):
            if j != i:
                yield i, j


def negative_sampling_table(freqs):
    """Unigram^0.75 sampling distribution over char indices; sums to 1."""
    p = np.asarray(freqs, dtype=np.float64) ** 0.75
    return p / p.sum()


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def pair_loss(u, rows):
    """-ln s(u.rows[0]) - sum_k ln s(-u.rows[k]) for one (center, context) pair:
    rows[0] is the context's output row and rows[1:] the k negatives'."""
    s = rows @ u
    return -np.log(_sigmoid(s[0])) - np.log(_sigmoid(-s[1:])).sum()


def pair_loss_grads(u, rows):
    """Analytic gradients of pair_loss w.r.t. u and the (k+1, d) rows."""
    g = _sigmoid(rows @ u)
    g[0] -= 1.0
    return g @ rows, g[:, None] * u


def train_skipgram(corpus_chars, window=5, d=128, negatives=5, epochs=1, seed=0):
    """Pretrain character vectors on a character stream.

    Plain SGD at a fixed learning rate over all (center, context) pairs;
    negatives are drawn from the unigram^0.75 distribution, in one draw per
    center for all of its pairs, by a search of the distribution's CDF, which
    is built once per run (the draw `Generator.choice` makes, without its
    per-call cumsum). Each pair takes its gradients from its rows as they
    were before the pair, then updates its context row, its negative rows
    once per draw and the center's input row. The context and negative rows
    are gathered and scattered back in one step each; a pair whose rows
    repeat one (a negative drawn twice, or the context drawn as a negative)
    scatters with `np.subtract.at` instead, which applies its updates in
    turn. Deterministic given the seed. Returns an EmbeddingMatrix of the
    input vectors.
    """
    if window < 1 or negatives < 1 or d < 2 or epochs < 1:
        raise ValueError("window >= 1, negatives >= 1, d >= 2, epochs >= 1 required")
    chars = list(corpus_chars)
    if len(chars) < window + 1:
        raise ValueError("corpus of %d chars is shorter than window+1" % len(chars))
    order = []
    index = {}
    for c in chars:
        if c not in index:
            index[c] = len(order)
            order.append(c)
    ids = np.array([index[c] for c in chars], dtype=np.intp)
    freqs = np.bincount(ids, minlength=len(order))
    cdf = negative_sampling_table(freqs).cumsum()
    cdf /= cdf[-1]

    rng = np.random.Generator(np.random.PCG64(seed))
    V = len(order)
    vec_in = rng.uniform(-0.5 / d, 0.5 / d, size=(V, d))
    vec_out = np.zeros((V, d))

    for _ in range(epochs):
        for i, pairs in groupby(skipgram_pairs(ids, window), key=itemgetter(0)):
            contexts = ids[[j for _, j in pairs]]
            idx = np.empty((len(contexts), negatives + 1), dtype=np.intp)
            idx[:, 0] = contexts
            idx[:, 1:] = cdf.searchsorted(rng.random((len(contexts), negatives)),
                                          side="right")
            srt = np.sort(idx, axis=1)
            repeats = (srt[:, 1:] == srt[:, :-1]).any(axis=1).tolist()
            u = vec_in[ids[i]]          # a view: `u -=` updates the center's row
            for row_ids, repeat in zip(idx, repeats):
                rows = vec_out[row_ids]
                du, drows = pair_loss_grads(u, rows)
                if repeat:              # one update per occurrence, in draw order
                    np.subtract.at(vec_out, row_ids, SGD_LR * drows)
                else:
                    vec_out[row_ids] = rows - SGD_LR * drows
                u -= SGD_LR * du
    return EmbeddingMatrix(order, vec_in)
