"""Skip-gram character vectors with negative sampling.

Pretrained on a plain character stream (poems flattened in corpus order) and
copied over the rows of the attention model's seeded embedding draw. Training
makes one update per center character: its context pairs share one draw of
negatives (as in Ji et al. 2016, "HogBatch"), and their summed gradient is
one small matrix product. Single threaded and bit-reproducible under a fixed
seed.
"""

import codecs
import math

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


def center_loss(u, rows, n_ctx):
    """Sum over one center's n_ctx pairs of -ln s(u.context) - sum_k ln s(-u.neg_k):
    rows[:n_ctx] are the contexts' output rows and rows[n_ctx:] the k
    negatives', which every pair shares."""
    s = rows @ u
    return -np.log(_sigmoid(s[:n_ctx])).sum() - n_ctx * np.log(_sigmoid(-s[n_ctx:])).sum()


def center_loss_grads(u, rows, n_ctx):
    """Analytic gradients of center_loss w.r.t. u and the (n_ctx + k, d) rows."""
    g = _sigmoid(rows @ u)
    g[:n_ctx] -= 1.0
    g[n_ctx:] *= n_ctx          # each negative appears in all n_ctx pairs
    return g @ rows, g[:, None] * u


# perfbench/tracing.py still wraps the kernel by its old per-pair name, and its
# self-test fails on a missing target: its spans time one call per center, and
# its `embeddings.pairs` counts centers
pair_loss_grads = center_loss_grads


def train_skipgram(corpus_chars, window=5, d=128, negatives=5, epochs=1, seed=0):
    """Pretrain character vectors on a character stream.

    Plain SGD at a fixed learning rate, one update per center: the center at
    i has the contexts ids[i-window:i] and ids[i+1:i+window+1] (clipped to
    the stream) and one draw of negatives from the unigram^0.75
    distribution, shared by all of its pairs. The draw searches the
    distribution's CDF, which is built once per run (the draw
    `Generator.choice` makes, without its per-call cumsum). The center's
    update is the sum of its pairs' gradients, all taken from the rows as
    they were before the center: one gather of its context and negative
    rows, one `center_loss_grads` call, one scatter back and one step of the
    center's input row. A center whose rows repeat one (a context seen
    twice, or drawn as a negative) scatters with `np.subtract.at` instead,
    which applies its updates in turn. Deterministic given the seed. Returns
    an EmbeddingMatrix of the input vectors.
    """
    if window < 1 or negatives < 1 or d < 2 or epochs < 1:
        raise ValueError("window >= 1, negatives >= 1, d >= 2, epochs >= 1 required")
    chars = list(corpus_chars)
    if len(chars) < window + 1:
        raise ValueError("corpus of %d chars is shorter than window+1" % len(chars))
    order = list(dict.fromkeys(chars))     # characters in order of first appearance
    index = {c: i for i, c in enumerate(order)}
    ids = np.array([index[c] for c in chars], dtype=np.intp)
    freqs = np.bincount(ids, minlength=len(order))
    cdf = negative_sampling_table(freqs).cumsum()
    cdf /= cdf[-1]

    rng = np.random.Generator(np.random.PCG64(seed))
    V = len(order)
    vec_in = rng.uniform(-0.5 / d, 0.5 / d, size=(V, d))
    vec_out = np.zeros((V, d))

    n = len(ids)
    for _ in range(epochs):
        for i in range(n):
            row_ids = np.concatenate((ids[max(0, i - window):i], ids[i + 1:i + window + 1],
                                      cdf.searchsorted(rng.random(negatives), side="right")))
            rows = vec_out[row_ids]
            u = vec_in[ids[i]]          # a view: `u -=` updates the center's row
            du, drows = center_loss_grads(u, rows, len(row_ids) - negatives)
            if len(set(row_ids.tolist())) < len(row_ids):   # one update per occurrence
                np.subtract.at(vec_out, row_ids, SGD_LR * drows)
            else:
                vec_out[row_ids] = rows - SGD_LR * drows
            u -= SGD_LR * du
    return EmbeddingMatrix(order, vec_in)
