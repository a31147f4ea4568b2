"""Skip-gram character vectors with negative sampling.

Pretrained on a plain character stream (poems flattened in corpus order) and
copied over the rows of the attention model's seeded embedding draw. Training
makes one update per block of CENTER_BLOCK centers: each center's context
pairs share one draw of negatives (as in Ji et al. 2016, "HogBatch"), every
read in a block sees the rows as they were before it (the stale reads of
Hogwild, Recht et al. 2011, bounded to one block), and the block's summed
gradient is one gather, one kernel call and one scatter. A tracer that wraps
the kernel therefore times one call per block. Single threaded and
bit-reproducible under a fixed seed.
"""

import math

import numpy as np

from .corpus import N_RESERVED, read_lines

SGD_LR = 0.025
# Centers per update. Reads are up to one block stale: on the 4-character
# stream of the distributional test, cos(甲, 乙) - cos(甲, 中) stayed above
# 0.93 at 16 over seeds 0-4, fell to 0.72 at 32 and to 0.46 at 64, while an
# epoch of the sample corpus (d 128, window 5) ran only 6-8% faster at 32 or
# 64 than at 16 on 2 vCPUs with one BLAS thread.
CENTER_BLOCK = 16


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
        the path and line: a key not one non-whitespace character, a
        non-finite value, a character's second row, a row past the declared
        count or a byte not UTF-8. The file is read by `corpus.read_lines`."""
        line_of, rows, lineno = {}, [], 1
        lines = read_lines(path, ValueError)
        while len(lines) > 1 and not lines[-1]:     # trailing line ends
            lines.pop()
        try:
            n, d = (int(x) for x in lines[0].split())
            if n < 1 or d < 1:
                raise ValueError("row count and dimension must be positive")
            for lineno, line in enumerate(lines[1:], start=2):
                if lineno > n + 1:
                    raise ValueError("row past the declared count of %d" % n)
                char, *vec = line.split(" ")
                if len(char) != 1 or char.isspace():
                    raise ValueError("key %r is not one non-whitespace character" % char)
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


def block_loss(U, rows, weight):
    """Sum over a block's pairs of -w ln s(u.context) - n_ctx sum_k ln s(-u.neg_k).

    U is the (b, d) centers' input rows and rows the (b, C + k, d) output
    rows: rows[c, :C] are center c's contexts, weighted by weight[c] (0 for a
    context clipped at the stream's ends), and rows[c, C:] its k negatives,
    which all n_ctx = weight[c].sum() of its pairs share."""
    C = weight.shape[1]
    s = (rows @ U[:, :, None])[..., 0]
    return (-(weight * np.log(_sigmoid(s[:, :C]))).sum()
            - (weight.sum(1) * np.log(_sigmoid(-s[:, C:])).sum(1)).sum())


def block_loss_grads(U, rows, weight):
    """Analytic gradients of block_loss: dU (b, d), and the (b, C + k)
    coefficients G with d loss / d rows[c, j] = G[c, j] * U[c]."""
    C = weight.shape[1]
    g = _sigmoid((rows @ U[:, :, None])[..., 0])
    g[:, :C] -= 1.0
    g[:, :C] *= weight
    g[:, C:] *= weight.sum(1, keepdims=True)   # each negative is in all n_ctx pairs
    return (g[:, None, :] @ rows)[:, 0], g


# perfbench/tracing.py still wraps the kernel by its old per-pair name, and its
# self-test fails on a missing target: its spans time one call per block, and
# its `embeddings.pairs` counts blocks
pair_loss_grads = block_loss_grads


def train_skipgram(corpus_chars, window=5, d=128, negatives=5, epochs=1, seed=0):
    """Pretrain character vectors on a character stream.

    Plain SGD at a fixed learning rate, one update per block of CENTER_BLOCK
    consecutive centers (the last block of an epoch may be shorter). The
    center at i has the contexts ids[i-window:i] and ids[i+1:i+window+1],
    clipped to the stream (a clipped context is padded with weight 0), and
    its own draw of negatives from the unigram^0.75 distribution, shared by
    all of its pairs. A block draws its centers' negatives as one
    `rng.random((b, negatives))`, the numbers one draw per center would
    read, and searches the distribution's CDF, built once per run (the draw
    `Generator.choice` makes, without its per-call cumsum). Every gradient
    in a block is taken from the rows as they were before the block: one
    gather of the centers' input rows and their (b, 2*window + negatives)
    output rows, one `block_loss_grads` call, then one scatter. The output
    rows' coefficients are summed per distinct row into a (rows, b) matrix
    S, and those rows step by S @ U; the centers' input rows step through
    `np.subtract.at`, which applies a repeated center's updates in turn. A
    tracer that wraps the kernel times one call per block. Deterministic
    given the seed. Returns an EmbeddingMatrix of the input vectors.
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
    offsets = np.r_[-window:0, 1:window + 1]       # the contexts, in corpus order
    for _ in range(epochs):
        for start in range(0, n, CENTER_BLOCK):
            centers = ids[start:start + CENTER_BLOCK]
            b = len(centers)
            pos = np.arange(start, start + b)[:, None] + offsets
            weight = ((pos >= 0) & (pos < n)).astype(np.float64)
            row_ids = np.concatenate((ids.take(pos, mode="clip"),
                                      cdf.searchsorted(rng.random((b, negatives)), side="right")),
                                     axis=1)
            U = vec_in[centers]
            dU, g = block_loss_grads(U, vec_out[row_ids], weight)
            # ravel first: the inverse's shape differs between numpy 1.x and 2.x
            uniq, inv = np.unique(row_ids.ravel(), return_inverse=True)
            S = np.zeros((len(uniq), b))
            np.add.at(S, (inv, np.repeat(np.arange(b), row_ids.shape[1])), g.ravel())
            vec_out[uniq] -= SGD_LR * (S @ U)
            np.subtract.at(vec_in, centers, SGD_LR * dU)
    return EmbeddingMatrix(order, vec_in)
