"""Teacher-forced training with AdaDelta, plus binary checkpoints.

The loss for one example is the mean per-position cross entropy of the
decoder's predictions under teacher forcing (decoder input at step t is BOS,
then target[t-1]). A genre-pure minibatch runs through one tape as (B, dim)
rows; its gradient is that of the mean per-example loss, and one AdaDelta
step follows each minibatch. Only the decoder recurrence runs step by step:
its T feature rows are stacked, and one output projection, one softmax and
one cross entropy run over the whole (B, T, V) minibatch. The master
parameters and the AdaDelta accumulators are float64; each minibatch computes
its loss and gradients in float32 on a fresh copy of the masters, which halves
the bytes every product streams, and its step updates the masters in float64,
so that updates smaller than a float32 ulp of a weight still accumulate.

Checkpoint container, version 5: magic `QGEN`, u32 version, u64 header
length, JSON header, then the tensors' little-endian float32 (`<f4`) bytes in
C order, back to back in name order: the model parameters and genre
indicators, which generation reads. The header's `tensors` maps each name to
its shape, in the same order. The header also holds the hyper parameters and
the vocabulary as its characters in id order after the reserved tokens. It
holds no optimizer state, so training cannot resume from a checkpoint. A
checkpoint is read only to generate, so it is where a model to generate turns
float32.
"""

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from enum import Enum

import numpy as np

from . import numerics as nm
from .corpus import BOS, N_RESERVED, Genre, Vocab
from .model import (INDICATOR_DIM, ModelConfig, ModelParams, decode_recurrence, encode,
                    init_decoder_state, output_projection, param_shapes)


class GenreMode(Enum):
    FIVE_ONLY = "5"
    SEVEN_ONLY = "7"
    HYBRID = "hybrid"


@dataclass
class TrainConfig:
    epochs: int = 50
    minibatch: int = 8
    seed: int = 0
    genre_mode: GenreMode = GenreMode.HYBRID

    def __post_init__(self):
        if self.minibatch < 1:
            raise ValueError("minibatch must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def _teacher_forced(examples, nodes, mparams):
    """Decoder distributions of a genre-pure batch under teacher forcing.

    All examples must share input and target lengths (true within a genre).
    The recurrence runs step by step; its T feature rows are then stacked and
    projected at once, since under teacher forcing no prediction feeds back.
    Returns one (B, T, V) distribution node.
    """
    genres = {e.genre for e in examples}
    if len(genres) != 1:
        raise ValueError("teacher forcing needs a genre-pure batch, got %s"
                         % sorted(g.name for g in genres))
    cfg = mparams.cfg
    inputs = np.array([e.input_ids for e in examples], dtype=np.intp)
    targets = np.array([e.target_ids for e in examples], dtype=np.intp)
    enc = encode(inputs, nodes, cfg)
    s = init_decoder_state(enc, examples[0].genre, nodes, mparams.indicators)
    prev = np.full(len(examples), BOS, dtype=np.intp)
    features = []
    for t in range(targets.shape[1]):
        s, feats, _ = decode_recurrence(s, prev, enc, nodes, cfg)
        features.append(feats)
        prev = targets[:, t]
    return output_projection(nm.stack(features), nodes)


def batch_loss(examples, mparams):
    """Loss and gradients for a genre-pure minibatch in one tape pass.

    Returns (per_example_losses, grads); the gradients are those of the mean
    per-example loss, i.e. already averaged over the batch (all targets of a
    batch have one length, so that is the mean over every target position).
    """
    nodes = mparams.wrap()
    dists = _teacher_forced(examples, nodes, mparams)
    targets = np.array([e.target_ids for e in examples], dtype=np.intp)
    loss = nm.cross_entropy_rows(dists, targets)                # (B, T)
    nm.backward(nm.mean_all(loss))
    grads = {k: n.grad for k, n in nodes.items() if n.grad is not None}
    return loss.value.mean(axis=1), grads


def teacher_forced_argmax(example, mparams):
    """Argmax prediction at every target position under teacher forcing."""
    dists = _teacher_forced([example], mparams.wrap(), mparams)
    return np.argmax(dists.value[0], axis=-1).tolist()


@dataclass
class EpochReport:
    epoch: int
    mean_loss: float
    genre_loss: dict = field(default_factory=dict)     # genre name -> mean loss


def _check_genre_mode(examples, mode):
    genres = {e.genre for e in examples}
    if mode == GenreMode.HYBRID:
        if genres != {Genre.FIVE_CHAR, Genre.SEVEN_CHAR}:
            raise ValueError("Hybrid mode needs both genres present, found %s"
                             % sorted(g.name for g in genres))
    elif mode == GenreMode.FIVE_ONLY and genres != {Genre.FIVE_CHAR}:
        raise ValueError("FiveOnly mode but corpus has %s" % sorted(g.name for g in genres))
    elif mode == GenreMode.SEVEN_ONLY and genres != {Genre.SEVEN_CHAR}:
        raise ValueError("SevenOnly mode but corpus has %s" % sorted(g.name for g in genres))


def _genre_pure_batches(examples, order, minibatch):
    """Partition a shuffled order into genre-pure minibatches.

    Batches must be genre-pure because the tensors of a batch share the input
    and target lengths; the visit order still follows the shuffle.
    """
    buckets = {}
    batches = []
    for i in order:
        g = examples[i].genre
        buckets.setdefault(g, []).append(i)
        if len(buckets[g]) == minibatch:
            batches.append(buckets.pop(g))
    for g in sorted(buckets, key=lambda g: g.name):
        batches.append(buckets[g])
    return batches


def train_epoch(examples, mparams, opt_state, config, rng, epoch=0):
    """One pass over the examples, shuffled by `rng`; one AdaDelta step per minibatch,
    whose float32 gradients come from a float32 copy of the float64 masters."""
    if not examples:
        raise ValueError("no training examples")
    _check_genre_mode(examples, config.genre_mode)
    order = np.arange(len(examples))
    rng.shuffle(order)
    total = 0.0
    genre_tot = {}
    genre_n = {}
    for idxs in _genre_pure_batches(examples, order, config.minibatch):
        batch = [examples[i] for i in idxs]
        compute = ModelParams(mparams.cfg,
                              {k: v.astype(np.float32) for k, v in mparams.tensors.items()},
                              mparams.indicators)
        losses, grads = batch_loss(batch, compute)
        for ex, loss in zip(batch, losses.tolist()):
            if not math.isfinite(loss):
                raise FloatingPointError("non-finite loss on example %r (epoch %d)"
                                         % (ex.source_id, epoch))
            total += loss
            genre_tot[ex.genre] = genre_tot.get(ex.genre, 0.0) + loss
            genre_n[ex.genre] = genre_n.get(ex.genre, 0) + 1
        nm.adadelta_step(mparams.tensors, grads, opt_state)
    return EpochReport(epoch=epoch,
                       mean_loss=total / len(examples),
                       genre_loss={g.name: genre_tot[g] / genre_n[g] for g in genre_tot})


def train(examples, mparams, config, stop_below_loss=None, log_fn=None):
    """Epoch loop from a fresh AdaDelta state.

    Stops after `config.epochs` epochs, or once the epoch mean loss drops
    under `stop_below_loss`. Returns (opt_state, reports, epochs_run).
    """
    opt_state = nm.AdaDeltaState(mparams.tensors)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    reports = []
    for epoch in range(config.epochs):
        report = train_epoch(examples, mparams, opt_state, config, epoch=epoch, rng=rng)
        reports.append(report)
        if log_fn:
            log_fn(report)
        if stop_below_loss is not None and report.mean_loss < stop_below_loss:
            break
    return opt_state, reports, len(reports)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

MAGIC = b"QGEN"
VERSION = 5
HEADER_FIELDS = ("hyper", "step", "train_seed", "vocab", "tensors")


class CheckpointError(Exception):
    pass


def _write_tensor(f, name, arr):
    with np.errstate(over="ignore"):
        data = np.ascontiguousarray(arr, dtype="<f4")
    if (np.isinf(data) & np.isfinite(arr)).any():
        raise CheckpointError("tensor %r holds a finite value beyond float32 range" % name)
    f.write(data.tobytes())


def for_generation(name, arr):
    """A tensor as a loaded checkpoint holds it: float32, which halves the
    bytes every decoder product streams, and, for every weight matrix but
    `emb` (whose rows are gathered), column-major, so the decoder's `x @ W.T`
    at a beam's few rows reads a contiguous `W.T`, which the BLAS multiplies
    faster."""
    arr = np.asarray(arr, dtype=np.float32)
    return np.asfortranarray(arr) if arr.ndim == 2 and name != "emb" else arr


def save_checkpoint(path, mparams, opt_state, vocab, step, train_seed):
    """Write a self-describing float32 checkpoint of the model.

    Loading it gives `for_generation` of every tensor exactly, so saving a
    loaded model writes the same bytes. `opt_state` is ignored: generation
    never reads optimizer state, and the argument stays only for callers
    written for version 1.
    The file is written beside `path` and renamed over it, so a failed write
    leaves any previous checkpoint at `path` intact. A finite value beyond
    float32 range raises CheckpointError; NaN and inf are written as they
    are, and `load_checkpoint` refuses them.
    """
    out = {**mparams.tensors, "ind.5": mparams.indicators[Genre.FIVE_CHAR],
           "ind.7": mparams.indicators[Genre.SEVEN_CHAR]}
    header = {
        "hyper": asdict(mparams.cfg),
        "step": step,
        "train_seed": train_seed,
        "vocab": vocab.chars[N_RESERVED:],
        "tensors": {name: list(np.shape(out[name])) for name in sorted(out)},
    }
    hb = json.dumps(header, ensure_ascii=False).encode("utf-8")
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<IQ", VERSION, len(hb)))
            f.write(hb)
            for name in header["tensors"]:
                _write_tensor(f, name, out[name])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _check_header(header):
    """The model config, vocabulary and tensor shapes (in the order of the
    file's data) that a version-5 header describes, or CheckpointError."""
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    missing = [k for k in HEADER_FIELDS if k not in header]
    if missing:
        raise CheckpointError("checkpoint header lacks %s" % ", ".join(missing))
    if type(header["step"]) is not int or header["step"] < 0:
        raise CheckpointError("bad step in header: want a non-negative int, got %.40r"
                              % (header["step"],))
    if type(header["train_seed"]) is not int:
        raise CheckpointError("bad train_seed in header: want an int, got %.40r"
                              % (header["train_seed"],))
    hyper = header["hyper"]
    hyper_types = {f.name: f.type for f in fields(ModelConfig)}
    if not isinstance(hyper, dict) or any(type(v) is not hyper_types.get(k)
                                          for k, v in hyper.items()):
        raise CheckpointError("bad hyper parameters %r: want ints, use_input_attention "
                              "a bool, keys %s" % (hyper, ", ".join(hyper_types)))
    try:
        cfg = ModelConfig(**hyper)
        shapes = {**param_shapes(cfg), "ind.5": (INDICATOR_DIM,), "ind.7": (INDICATOR_DIM,)}
    except (TypeError, ValueError) as e:
        raise CheckpointError("bad hyper parameters %r: %s" % (hyper, e)) from e
    if cfg.vocab_size <= N_RESERVED:
        raise CheckpointError("bad vocabulary in header: it holds no characters "
                              "(vocab_size %d, %d ids reserved)" % (cfg.vocab_size, N_RESERVED))
    chars = header["vocab"]
    if (not isinstance(chars, list) or len(chars) != cfg.vocab_size - N_RESERVED
            or any(type(c) is not str or len(c) != 1 or c.isspace() for c in chars)
            or len(set(chars)) != len(chars)):
        raise CheckpointError("bad vocabulary in header: want a list of %d distinct "
                              "non-whitespace characters, those of ids %d..%d"
                              % (cfg.vocab_size - N_RESERVED, N_RESERVED, cfg.vocab_size - 1))
    want = {name: list(shapes[name]) for name in sorted(shapes)}
    # The hyper parameters alone give every shape, but a code change could
    # rename or transpose a tensor without a new VERSION, and a transposed
    # matrix has the same byte count: the header's shapes are what catch it.
    got = header["tensors"]
    if got != want:
        got = got if isinstance(got, dict) else {}
        raise CheckpointError("header tensors disagree with the hyper parameters: missing %s, "
                              "unexpected %s, other shape %s"
                              % (sorted(want.keys() - got), sorted(got.keys() - want),
                                 sorted(k for k in want if k in got and got[k] != want[k])))
    return cfg, Vocab(chars), want


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, None, Vocab, step, train_seed).

    The None held the AdaDelta state in version 1; it stays for callers that unpack five.
    The whole header, and the byte count it implies, is checked before any tensor
    buffer is allocated. A checkpoint is only read to generate, so each tensor is
    read straight into a float32 buffer and laid out as `for_generation` says.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(16)
        if head[:4] != MAGIC:
            raise CheckpointError("bad magic at offset 0: not a qgen checkpoint")
        if len(head) < 16:
            raise CheckpointError("truncated checkpoint: need 16 bytes for the version "
                                  "and header length at offset 0, file has %d" % size)
        version, hlen = struct.unpack("<IQ", head[4:])
        if version != VERSION:
            raise CheckpointError("checkpoint version %d unsupported (expected %d)"
                                  % (version, VERSION))
        if hlen > size - 16:
            raise CheckpointError("truncated checkpoint: need %d bytes for the header "
                                  "at offset 16, file has %d" % (hlen, size))
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise CheckpointError("corrupt header at offset 16: %s" % e) from e
        cfg, vocab, shapes = _check_header(header)
        at, need = 16 + hlen, 4 * sum(math.prod(s) for s in shapes.values())
        if need > size - at:
            raise CheckpointError("truncated checkpoint: need %d bytes for the tensors "
                                  "at offset %d, file has %d" % (need, at, size))
        if need < size - at:
            raise CheckpointError("trailing bytes at offset %d" % (at + need))
        tensors = {}
        for name, shape in shapes.items():
            data = np.empty(shape, dtype="<f4")
            f.readinto(data)
            if not np.isfinite(data).all():
                raise CheckpointError("tensor %r holds a non-finite value" % name)
            tensors[name] = for_generation(name, data)

    indicators = {Genre.FIVE_CHAR: tensors["ind.5"], Genre.SEVEN_CHAR: tensors["ind.7"]}
    mparams = ModelParams(cfg, {k: tensors[k] for k in param_shapes(cfg)}, indicators)
    return mparams, None, vocab, header["step"], header["train_seed"]
