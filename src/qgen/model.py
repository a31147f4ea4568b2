"""Encoder-decoder network: bi-GRU encoder, GRU decoder, attention heads.

Parameters live in a flat {name: ndarray} dict so the optimizer and the
checkpoint format can treat them uniformly. Each forward pass wraps them in
tape Nodes; gradients are read back off those wrappers after backward().

The decoder's attention heads are one table, `ModelConfig.heads`: "h" reads
the encoder states and, with input attention on, "x" the raw input character
embeddings. Each is the additive attention of Bahdanau et al. (2015) with its
own attn_<head>.{W,U,v}; parameter shapes, encoder memories and decoder steps
follow the table, whose contexts feed the decoder input and the output
projection. Genre is injected through a fixed unit-norm indicator vector
mixed into the initial decoder state.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .corpus import Genre

INDICATOR_DIM = 200

GRU_KEYS = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh")


@dataclass
class ModelConfig:
    vocab_size: int
    d: int = 128            # character embedding size
    H: int = 128            # encoder hidden size (per direction)
    H_dec: int = 256        # decoder hidden size
    use_input_attention: bool = True
    seed: int = 0

    def __post_init__(self):
        if min(self.vocab_size, self.d, self.H, self.H_dec) < 1:
            raise ValueError("vocab_size, d, H and H_dec must be >= 1")

    @property
    def heads(self):
        """{head: memory width} in context order: "h" over the 2H encoder states,
        then "x" over the d-wide input embeddings if input attention is on."""
        heads = {"h": 2 * self.H}
        if self.use_input_attention:
            heads["x"] = self.d
        return heads


def make_type_indicators(seed, matrix=None):
    """Fixed genre indicators: unit eigenvectors of a random symmetric matrix.

    An INDICATOR_DIM-square matrix is drawn uniform in [-1,1] from the seed and
    symmetrized as (M+M^T)/2 so the spectrum is real; the unit eigenvectors of
    the two largest eigenvalues become the 5-char and 7-char indicators. Signs
    are fixed so the first nonzero component is positive. `matrix` is a test
    hook bypassing the random draw.
    """
    if matrix is None:
        rng = np.random.Generator(np.random.PCG64(seed))
        matrix = rng.uniform(-1.0, 1.0, size=(INDICATOR_DIM, INDICATOR_DIM))
    matrix = np.asarray(matrix, dtype=np.float64)
    sym = 0.5 * (matrix + matrix.T)
    w, v = np.linalg.eigh(sym)          # ascending eigenvalues
    picks = []
    for col in (-1, -2):                # two largest; eigh orders ties by index
        vec = v[:, col]
        vec = vec / np.linalg.norm(vec)
        nz = np.nonzero(vec)[0]
        if nz.size and vec[nz[0]] < 0:
            vec = -vec
        picks.append(vec)
    return {Genre.FIVE_CHAR: picks[0], Genre.SEVEN_CHAR: picks[1]}


def _gru_shapes(prefix, n, H):
    """The GRU_KEYS under prefix: W* (H, n) read the input, U* (H, H) the state."""
    return {"%s.%s" % (prefix, k): {"W": (H, n), "U": (H, H), "b": (H,)}[k[0]]
            for k in GRU_KEYS}


def param_shapes(cfg):
    """Every trainable tensor, keyed by identifier, in initialize's draw order."""
    ctx = sum(cfg.heads.values())       # width of the concatenated contexts
    shapes = {"emb": (cfg.vocab_size, cfg.d)}
    for prefix, n, H in (("enc_f", cfg.d, cfg.H), ("enc_b", cfg.d, cfg.H),
                         ("dec", cfg.d + ctx, cfg.H_dec)):
        shapes.update(_gru_shapes(prefix, n, H))
    for head, width in cfg.heads.items():
        shapes["attn_%s.W" % head] = (cfg.H_dec, cfg.H_dec)
        shapes["attn_%s.U" % head] = (cfg.H_dec, width)
        shapes["attn_%s.v" % head] = (cfg.H_dec,)
    shapes["out.W"] = (cfg.vocab_size, cfg.H_dec + ctx)
    shapes["out.b"] = (cfg.vocab_size,)
    shapes["init.W"] = (cfg.H_dec, cfg.H + INDICATOR_DIM)
    shapes["init.b"] = (cfg.H_dec,)
    return shapes


INIT_RANGE = 0.08


def for_generation(name, arr):
    """A tensor as every search decodes it: float32, which halves the bytes
    every decoder product streams, and, for every weight matrix but `emb`
    (whose rows are gathered), column-major, so the decoder's `x @ W.T` at a
    beam's few rows reads a contiguous `W.T`, which the BLAS multiplies
    faster. A tensor so laid out, as a loaded checkpoint's, comes back as is."""
    arr = np.asarray(arr, dtype=np.float32)
    return np.asfortranarray(arr) if arr.ndim == 2 and name != "emb" else arr


class ModelParams:
    """Trainable tensors plus the two fixed genre indicators."""

    def __init__(self, cfg, tensors, indicators):
        self.cfg = cfg
        self.tensors = tensors
        self.indicators = indicators
        self._laid_out = None

    def laid_out(self):
        """The model under `for_generation`, built when a search first reads it
        and kept; after that the tensors change in place only through
        `train_epoch`, which drops it. A loaded checkpoint's holds its arrays."""
        if self._laid_out is None:
            laid = [{k: for_generation(k, v) for k, v in d.items()}
                    for d in (self.tensors, self.indicators)]
            self._laid_out = ModelParams(self.cfg, *laid)
        return self._laid_out

    @classmethod
    def initialize(cls, cfg):
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        tensors = {name: rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape)
                   for name, shape in param_shapes(cfg).items()}
        indicators = make_type_indicators(cfg.seed)
        return cls(cfg, tensors, indicators)

    def wrap(self):
        """Fresh Node wrappers for one forward/backward pass."""
        return {k: nm.Node(v) for k, v in self.tensors.items()}


def gru_subparams(nodes, prefix):
    return {k: nodes["%s.%s" % (prefix, k)] for k in GRU_KEYS}


@dataclass
class EncoderOutput:
    """Attention memories of an encoded sequence, or of a (B, T) batch.

    `memories` maps each head of `ModelConfig.heads`, in order, to its memory
    and keys: "h" the forward || backward states, "x" the embedding rows. A
    memory stacks T positions on its second-to-last axis, (T, width) or
    (B, T, width); its (..., T, H_dec) keys are computed here once and shared
    by every decoder step.
    """
    memories: dict          # {head: (memory node, keys node)}
    back_final: nm.Node     # backward chain's final state (at position 0)


def _gru_chain(xs, h, p):
    """The states of a GRU run from state h over the input nodes xs."""
    states = []
    for x in xs:
        h = nm.gru_cell(x, h, p)
        states.append(h)
    return states


def encode(input_ids, nodes, cfg):
    """Run the bidirectional encoder over a character id sequence.

    `input_ids` is a single id sequence or a (B, T) array batching several
    same-length sequences; activations follow suit (vectors vs (B, dim) rows).
    """
    ids = np.asarray(input_ids, dtype=np.intp)
    if ids.size == 0:
        raise ValueError("encode: empty input")
    if ids.ndim not in (1, 2):
        raise ValueError("encode: input_ids must be 1-d or 2-d")
    emb = nodes["emb"]
    xs = [nm.embedding_rows(emb, ids[..., t]) for t in range(ids.shape[-1])]
    zero = nm.constant(np.zeros(ids.shape[:-1] + (cfg.H,), dtype=emb.value.dtype))
    fwd = _gru_chain(xs, zero, gru_subparams(nodes, "enc_f"))
    bwd = _gru_chain(xs[::-1], zero, gru_subparams(nodes, "enc_b"))[::-1]
    memory = {"h": nm.concat([nm.stack(fwd), nm.stack(bwd)]), "x": nm.stack(xs)}
    memories = {head: (memory[head], nm.attention_keys(memory[head], nodes["attn_%s.U" % head]))
                for head in cfg.heads}
    return EncoderOutput(memories=memories, back_final=bwd[0])


def decode_recurrence(s_prev, y_prev_id, enc, nodes, cfg):
    """The recurrent half of a decoder step: attend and advance the GRU.

    Each head of `enc.memories` attends over its memory, in table order.
    Returns (s_new, features, info): features = [s_new || contexts] feeds
    output_projection() alone, so teacher forcing can project all steps at
    once; info holds each head's weights alpha_<head> (alpha_x None if off).
    """
    contexts, info = [], {"alpha_x": None}
    for head, (M, K) in enc.memories.items():
        ctx, info["alpha_" + head] = nm.attend(s_prev, M, K, nodes["attn_%s.W" % head],
                                               nodes["attn_%s.v" % head])
        contexts.append(ctx)
    y_emb = nm.embedding_rows(nodes["emb"], y_prev_id)
    s_new = nm.gru_cell(nm.concat([y_emb] + contexts), s_prev, gru_subparams(nodes, "dec"))
    features = nm.concat([s_new] + contexts)
    return s_new, features, info


def output_projection(features, nodes):
    """Softmax over the vocabulary of decoder features, over their last axis."""
    return nm.softmax(nm.affine(nodes["out.W"], features, nodes["out.b"]))


def decode_step(s_prev, y_prev_id, enc, nodes, cfg):
    """One decoder step: attend, advance the GRU, project to the vocabulary.

    Returns (s_new, dist, info) where dist is a probability vector node over
    the vocabulary and info carries the attention weights.
    """
    s_new, features, info = decode_recurrence(s_prev, y_prev_id, enc, nodes, cfg)
    return s_new, output_projection(features, nodes), info


def init_decoder_state(enc, genre, nodes, indicators):
    """s0 = tanh(W [final backward state || type indicator] + b), in W's dtype."""
    W = nodes["init.W"]
    vec = indicators[genre].astype(W.value.dtype, copy=False)
    back = enc.back_final
    ind = nm.constant(np.broadcast_to(vec, back.value.shape[:-1] + vec.shape))
    return nm.tanh(nm.affine(W, nm.concat([back, ind]), nodes["init.b"]))
