"""Encoder-decoder network: bi-GRU encoder, GRU decoder, dual attention.

Parameters live in a flat {name: ndarray} dict so the optimizer and the
checkpoint format can treat them uniformly. Each forward pass wraps them in
tape Nodes; gradients are read back off those wrappers after backward().

The decoder attends both on the encoder hidden states and on the raw input
character embeddings; both contexts are concatenated into the decoder input
and into the output projection. Genre is injected through a fixed unit-norm
indicator vector mixed into the initial decoder state.
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
    def dec_input_dim(self):
        dim = self.d + 2 * self.H
        if self.use_input_attention:
            dim += self.d
        return dim

    @property
    def out_input_dim(self):
        dim = self.H_dec + 2 * self.H
        if self.use_input_attention:
            dim += self.d
        return dim


def make_type_indicators(seed, dim=INDICATOR_DIM, matrix=None):
    """Fixed genre indicators: unit eigenvectors of a random symmetric matrix.

    A dim x dim matrix is drawn uniform in [-1,1] from the seed and
    symmetrized as (M+M^T)/2 so the spectrum is real; the unit eigenvectors of
    the two largest eigenvalues become the 5-char and 7-char indicators. Signs
    are fixed so the first nonzero component is positive. `matrix` is a test
    hook bypassing the random draw.
    """
    if matrix is None:
        rng = np.random.Generator(np.random.PCG64(seed))
        matrix = rng.uniform(-1.0, 1.0, size=(dim, dim))
    matrix = np.asarray(matrix, dtype=np.float64)
    sym = 0.5 * (matrix + matrix.T)
    w, v = np.linalg.eigh(sym)          # ascending eigenvalues
    picks = []
    for col in (dim - 1, dim - 2):      # two largest; eigh orders ties by index
        vec = v[:, col]
        vec = vec / np.linalg.norm(vec)
        nz = np.nonzero(vec)[0]
        if nz.size and vec[nz[0]] < 0:
            vec = -vec
        picks.append(vec)
    return {Genre.FIVE_CHAR: picks[0], Genre.SEVEN_CHAR: picks[1]}


def _gru_shapes(n, H):
    return {"Wz": (H, n), "Uz": (H, H), "bz": (H,),
            "Wr": (H, n), "Ur": (H, H), "br": (H,),
            "Wh": (H, n), "Uh": (H, H), "bh": (H,)}


def param_shapes(cfg):
    """Every trainable tensor, keyed by identifier."""
    shapes = {"emb": (cfg.vocab_size, cfg.d)}
    for prefix in ("enc_f", "enc_b"):
        for k, s in _gru_shapes(cfg.d, cfg.H).items():
            shapes["%s.%s" % (prefix, k)] = s
    for k, s in _gru_shapes(cfg.dec_input_dim, cfg.H_dec).items():
        shapes["dec.%s" % k] = s
    shapes["attn_h.W"] = (cfg.H_dec, cfg.H_dec)
    shapes["attn_h.U"] = (cfg.H_dec, 2 * cfg.H)
    shapes["attn_h.v"] = (cfg.H_dec,)
    if cfg.use_input_attention:
        shapes["attn_x.W"] = (cfg.H_dec, cfg.H_dec)
        shapes["attn_x.U"] = (cfg.H_dec, cfg.d)
        shapes["attn_x.v"] = (cfg.H_dec,)
    shapes["out.W"] = (cfg.vocab_size, cfg.out_input_dim)
    shapes["out.b"] = (cfg.vocab_size,)
    shapes["init.W"] = (cfg.H_dec, cfg.H + INDICATOR_DIM)
    shapes["init.b"] = (cfg.H_dec,)
    return shapes


INIT_RANGE = 0.08


class ModelParams:
    """Trainable tensors plus the two fixed genre indicators."""

    def __init__(self, cfg, tensors, indicators):
        self.cfg = cfg
        self.tensors = tensors
        self.indicators = indicators

    @classmethod
    def initialize(cls, cfg):
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        tensors = {}
        for name, shape in param_shapes(cfg).items():
            tensors[name] = rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape)
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

    A memory stacks T positions on its second-to-last axis: (T, dim) for a
    sequence, (B, T, dim) for a batch. Each head's keys are computed here once
    and shared by every decoder step.
    """
    states: nm.Node         # (..., T, 2H): forward || backward states
    input_vectors: nm.Node  # (..., T, d): embedding rows
    keys_h: nm.Node         # (..., T, A): keys of the state head
    keys_x: object          # (..., T, A) keys of the input head, or None
    back_final: nm.Node     # backward chain's final state (at position 0)


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
    pf = gru_subparams(nodes, "enc_f")
    pb = gru_subparams(nodes, "enc_b")
    fwd = []
    h = zero
    for x in xs:
        h = nm.gru_cell(x, h, pf)
        fwd.append(h)
    bwdstates = [None] * len(xs)
    h = zero
    for i in reversed(range(len(xs))):
        h = nm.gru_cell(xs[i], h, pb)
        bwdstates[i] = h
    states = nm.concat([nm.stack(fwd), nm.stack(bwdstates)])
    inputs = nm.stack(xs)
    keys_x = None
    if cfg.use_input_attention:
        keys_x = nm.attention_keys(inputs, nodes["attn_x.U"])
    return EncoderOutput(states=states, input_vectors=inputs,
                         keys_h=nm.attention_keys(states, nodes["attn_h.U"]),
                         keys_x=keys_x, back_final=bwdstates[0])


def decode_recurrence(s_prev, y_prev_id, enc, nodes, cfg):
    """The recurrent half of a decoder step: attend and advance the GRU.

    Attends over the encoder states and, if enabled, the input embeddings.
    Returns (s_new, features, info): features = [s_new || contexts] feeds
    output_projection() alone, so teacher forcing can project all steps at
    once; info holds the weights alpha_h and alpha_x (None if off) as arrays.
    """
    contexts, info = [], {"alpha_x": None}
    for head, M, K in (("h", enc.states, enc.keys_h), ("x", enc.input_vectors, enc.keys_x)):
        if K is not None:
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
    joined = nm.concat([back, ind])
    return nm.tanh(nm.affine(W, joined, nodes["init.b"]))
