"""Training loop, loss oracles, and checkpoint serialization."""

import json
import os
import struct
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import BAD_HEADERS, edit_checkpoint_header
from qgen import numerics as nm
from qgen.corpus import BOS, N_RESERVED, Genre, Poem, build_training_sequence, build_vocab
from qgen.model import (INDICATOR_DIM, ModelConfig, ModelParams, decode_step, encode,
                        for_generation, init_decoder_state, param_shapes)
from qgen.training import (VERSION, CheckpointError, GenreMode, TrainConfig,
                           _check_genre_mode, _genre_pure_batches, _teacher_forced,
                           _write_tensor, batch_loss, load_checkpoint,
                           save_checkpoint, teacher_forced_argmax, train, train_epoch)

POEMS_5 = [
    Poem(Genre.FIVE_CHAR, ["月黑雁飞高", "单于夜遁逃", "欲将轻骑逐", "大雪满弓刀"]),
    Poem(Genre.FIVE_CHAR, ["床前明月光", "疑是地上霜", "举头望明月", "低头思故乡"]),
    Poem(Genre.FIVE_CHAR, ["白日依山尽", "黄河入海流", "欲穷千里目", "更上一层楼"]),
]
POEMS_7 = [
    Poem(Genre.SEVEN_CHAR, ["朝辞白帝彩云间", "千里江陵一日还",
                            "两岸猿声啼不住", "轻舟已过万重山"]),
    Poem(Genre.SEVEN_CHAR, ["故人西辞黄鹤楼", "烟花三月下扬州",
                            "孤帆远影碧空尽", "唯见长江天际流"]),
]


@pytest.fixture(scope="module")
def setup():
    poems = POEMS_5 + POEMS_7
    vocab = build_vocab(poems)
    examples = [build_training_sequence(p, vocab) for p in poems]
    cfg = ModelConfig(vocab_size=len(vocab), d=8, H=6, H_dec=10, seed=0)
    return poems, vocab, examples, cfg


def test_uniform_model_loss_is_log_vocab(setup):
    """With all parameters zero every softmax is uniform, so the mean cross
    entropy is exactly ln V regardless of the targets."""
    _, vocab, examples, cfg = setup
    mp = ModelParams.initialize(cfg)
    for k in mp.tensors:
        mp.tensors[k][:] = 0.0
    losses, _, _ = batch_loss([examples[0]], mp)
    assert abs(losses[0] - np.log(len(vocab))) < 1e-12


def reference_loss(example, mp):
    """One example, one position at a time, on vector activations: the loss
    acceptance 1 builds, with its gradients."""
    nodes = mp.wrap()
    enc = encode(example.input_ids, nodes, mp.cfg)
    s = init_decoder_state(enc, example.genre, nodes, mp.indicators)
    prev = BOS
    terms = []
    for tgt in example.target_ids:
        s, dist, _ = decode_step(s, prev, enc, nodes, mp.cfg)
        term, _ = nm.cross_entropy(dist, tgt)
        terms.append(term)
        prev = tgt
    loss = nm.mean_of(terms)
    nm.backward(loss)
    return float(loss.value), {k: n.grad for k, n in nodes.items() if n.grad is not None}


def test_batch_loss_matches_per_example_reference(setup):
    _, _, examples, cfg = setup
    mp = ModelParams.initialize(cfg)
    batch = [e for e in examples if e.genre == Genre.FIVE_CHAR]
    losses, grads, _ = batch_loss(batch, mp)
    singles = [reference_loss(e, mp) for e in batch]
    np.testing.assert_allclose(losses, [l for l, _ in singles], atol=1e-10)
    # batch grads equal the mean of the per-example grads
    for name in grads:
        mean_g = sum(g.get(name, 0.0) for _, g in singles) / len(batch)
        np.testing.assert_allclose(grads[name], mean_g, atol=1e-10,
                                   err_msg=name)


def test_batch_loss_grads_match_per_step_weight_gradients(setup, monkeypatch):
    """The deferred a^T b weight gradients, one GEMM per weight, against the
    per-step formula that forms and adds each step's product at once. The two
    differ only in the order of a sum, which can move an entry that cancels
    to near zero by more than its own rtol, so each gradient's absolute floor
    is rtol times its largest entry."""
    _, vocab, examples, _ = setup
    cfg = ModelConfig(vocab_size=len(vocab), d=16, H=12, H_dec=20, seed=3)
    mp = ModelParams.initialize(cfg)
    for genre in (Genre.FIVE_CHAR, Genre.SEVEN_CHAR):
        batch = [e for e in examples if e.genre == genre]
        losses, grads, _ = batch_loss(batch, mp)
        with monkeypatch.context() as m:
            m.setattr(nm, "_acc_outer", lambda node, a, b: nm._acc(node, a.T @ b))
            ref_losses, ref_grads, _ = batch_loss(batch, mp)
        np.testing.assert_array_equal(losses, ref_losses)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-12,
                                       atol=1e-12 * np.abs(ref_grads[name]).max(),
                                       err_msg=name)


def test_float32_batch_loss_tracks_float64(setup):
    """The float32 copy a training step computes on gives the float64 losses
    and gradients to float32 precision. Each gradient is bounded relative to
    its own largest entry, with a floor of a millionth of the batch's largest
    gradient: the attention `W` gradients cancel to first order at small
    weights (a softmax's score gradients sum to zero), so they keep only
    float32's absolute precision. AdaDelta moves such a weight by about its
    own gradient, so that error reaches the weight at the gradient's tiny
    size."""
    _, vocab, examples, _ = setup
    cfg = ModelConfig(vocab_size=len(vocab), d=16, H=12, H_dec=20, seed=3)
    mp = ModelParams.initialize(cfg)
    mp32 = ModelParams(cfg, {k: v.astype(np.float32) for k, v in mp.tensors.items()},
                       mp.indicators)
    for genre in (Genre.FIVE_CHAR, Genre.SEVEN_CHAR):
        batch = [e for e in examples if e.genre == genre]
        losses, grads, _ = batch_loss(batch, mp)
        losses32, grads32, _ = batch_loss(batch, mp32)
        assert losses32.dtype == np.float32
        np.testing.assert_allclose(losses32, losses, rtol=0, atol=1e-5)
        assert grads32.keys() == grads.keys()
        floor = 1e-6 * max(np.abs(g).max() for g in grads.values())
        for name, g in grads.items():
            assert grads32[name].dtype == np.float32, name
            np.testing.assert_allclose(grads32[name], g, rtol=0,
                                       atol=1e-4 * max(np.abs(g).max(), floor),
                                       err_msg=name)


def test_train_epoch_steps_float64_masters_with_float32_grads(setup, monkeypatch):
    _, _, examples, cfg = setup
    mp = ModelParams.initialize(cfg)
    opt = nm.AdaDeltaState(mp.tensors)
    fed, norms = [], []
    step = nm.adadelta_step

    def recording_step(params, grads, state):
        fed.append({k: g.dtype for k, g in grads.items()})
        norms.append(np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads.values())))
        return step(params, grads, state)
    monkeypatch.setattr(nm, "adadelta_step", recording_step)
    report = train_epoch(examples, mp, opt, TrainConfig(minibatch=2), np.random.default_rng(0))
    assert len(fed) == 3                   # 3 five-char examples in 2 batches, 2 seven-char in 1
    assert report.grad_norm == pytest.approx(max(norms), rel=1e-5)
    for dtypes in fed:
        assert dtypes and set(dtypes.values()) == {np.dtype(np.float32)}
    for name, v in mp.tensors.items():
        assert v.dtype == np.float64, name
        assert opt.eg2[name].dtype == opt.edx2[name].dtype == np.float64, name
    for g in (Genre.FIVE_CHAR, Genre.SEVEN_CHAR):
        assert mp.indicators[g].dtype == np.float64
    assert opt.edx2["out.b"].any()         # the steps reached the accumulators


def test_epoch_report_is_json(setup):
    """Losses come back as float32; the report holds Python floats, which
    json.dumps writes (it refuses an np.float32)."""
    _, _, examples, cfg = setup
    mp = ModelParams.initialize(cfg)
    _, (report,), _ = train(examples, mp, TrainConfig(epochs=1, minibatch=2, seed=1))
    assert type(report.mean_loss) is float
    assert all(type(v) is float for v in report.genre_loss.values())
    assert type(report.clamped) is int and report.clamped >= 0
    assert type(report.grad_norm) is float and 0.0 < report.grad_norm < np.inf
    line = json.loads(json.dumps(asdict(report)))
    assert line == {"epoch": 0, "mean_loss": report.mean_loss,
                    "genre_loss": report.genre_loss, "clamped": report.clamped,
                    "grad_norm": report.grad_norm}


def test_batch_loss_counts_the_targets_it_floors(setup):
    """A target the model gives less than PROB_FLOOR is floored and counted,
    in float64 and in float32, and the epoch reports the sum over its
    minibatches."""
    _, vocab, examples, cfg = setup
    mp = ModelParams.initialize(cfg)
    batch = [e for e in examples if e.genre == Genre.FIVE_CHAR]
    assert batch_loss(batch, mp)[2] == 0
    rare = batch[0].target_ids[0]
    mp.tensors["out.b"][rare] = -60.0          # e^-60 is far below the floor
    want = sum(list(e.target_ids).count(rare) for e in batch)
    mp32 = ModelParams(cfg, {k: v.astype(np.float32) for k, v in mp.tensors.items()},
                       mp.indicators)
    for model in (mp, mp32):
        losses, _, clamped = batch_loss(batch, model)
        assert type(clamped) is int and clamped == want > 0
        assert np.all(losses <= -np.log(nm.PROB_FLOOR))
    report = train_epoch(examples, mp, nm.AdaDeltaState(mp.tensors), TrainConfig(minibatch=2),
                         np.random.default_rng(0))
    assert report.clamped == sum(list(e.target_ids).count(rare) for e in examples)


def test_batch_loss_rejects_mixed_genres(setup):
    _, _, examples, cfg = setup
    mp = ModelParams.initialize(cfg)
    with pytest.raises(ValueError):
        batch_loss(examples, mp)


def test_genre_pure_batches(setup):
    _, _, examples, _ = setup
    order = np.arange(len(examples))
    batches = _genre_pure_batches(examples, order, 2)
    seen = sorted(i for b in batches for i in b)
    assert seen == list(range(len(examples)))
    for b in batches:
        assert len({examples[i].genre for i in b}) == 1
        assert len(b) <= 2


def test_genre_mode_guards(setup):
    _, _, examples, _ = setup
    five = [e for e in examples if e.genre == Genre.FIVE_CHAR]
    _check_genre_mode(examples, GenreMode.HYBRID)
    _check_genre_mode(five, GenreMode.FIVE_ONLY)
    with pytest.raises(ValueError):
        _check_genre_mode(five, GenreMode.HYBRID)
    with pytest.raises(ValueError):
        _check_genre_mode(examples, GenreMode.FIVE_ONLY)
    with pytest.raises(ValueError):
        _check_genre_mode(five, GenreMode.SEVEN_ONLY)


def test_train_epoch_reduces_loss(setup):
    _, _, examples, cfg = setup
    mp = ModelParams.initialize(cfg)
    tcfg = TrainConfig(epochs=30, minibatch=2, seed=1)
    opt, reports, step = train(examples, mp, tcfg)
    assert step == 30
    assert reports[-1].mean_loss < reports[0].mean_loss
    assert set(reports[0].genre_loss) == {"FIVE_CHAR", "SEVEN_CHAR"}


def test_train_stop_below_loss(setup):
    _, vocab, examples, cfg = setup
    mp = ModelParams.initialize(cfg)
    tcfg = TrainConfig(epochs=50, minibatch=2, seed=1)
    _, reports, _ = train(examples, mp, tcfg, stop_below_loss=np.log(len(vocab)) + 1)
    assert len(reports) == 1       # first epoch is already under the bound


def test_teacher_forced_argmax_shape(setup):
    _, _, examples, cfg = setup
    mp = ModelParams.initialize(cfg)
    preds = teacher_forced_argmax(examples[0], mp)
    assert len(preds) == len(examples[0].target_ids)
    assert all(0 <= p < cfg.vocab_size for p in preds)


def test_teacher_forced_matches_per_step_decode(setup):
    """The stacked (B, T, V) projection of teacher forcing equals one
    decode_step per position, and so do the argmax predictions, with the
    input attention head and without it."""
    _, _, examples, with_x = setup
    for cfg in (with_x, replace(with_x, use_input_attention=False)):
        mp = ModelParams.initialize(cfg)
        train(examples, mp, TrainConfig(epochs=5, minibatch=2, seed=3))
        batch = [e for e in examples if e.genre == Genre.SEVEN_CHAR]
        assert len(batch) == 2
        dists = _teacher_forced(batch, mp.wrap(), mp).value

        nodes = mp.wrap()
        targets = np.array([e.target_ids for e in batch])
        enc = encode(np.array([e.input_ids for e in batch]), nodes, cfg)
        s = init_decoder_state(enc, Genre.SEVEN_CHAR, nodes, mp.indicators)
        prev = np.full(len(batch), BOS)
        steps = []
        for t in range(targets.shape[1]):
            s, dist, info = decode_step(s, prev, enc, nodes, cfg)
            assert (info["alpha_x"] is None) != cfg.use_input_attention
            steps.append(dist.value)
            prev = targets[:, t]
        expect = np.stack(steps, axis=1)
        assert dists.shape == expect.shape == targets.shape + (cfg.vocab_size,)
        np.testing.assert_allclose(dists, expect, rtol=0, atol=1e-12)
        for b, ex in enumerate(batch):
            assert teacher_forced_argmax(ex, mp) == [int(np.argmax(p)) for p in expect[b]]


def test_training_is_deterministic(setup):
    _, _, examples, cfg = setup
    runs = []
    for _ in range(2):
        mp = ModelParams.initialize(cfg)
        tcfg = TrainConfig(epochs=5, minibatch=2, seed=9)
        _, reports, _ = train(examples, mp, tcfg)
        runs.append(([r.mean_loss for r in reports], mp))
    assert runs[0][0] == runs[1][0]
    for name in runs[0][1].tensors:
        np.testing.assert_array_equal(runs[0][1].tensors[name],
                                      runs[1][1].tensors[name])


def test_checkpoint_roundtrip(tmp_path, setup):
    _, vocab, examples, cfg = setup
    mp = ModelParams.initialize(cfg)
    tcfg = TrainConfig(epochs=2, minibatch=2, seed=4)
    _, _, step = train(examples, mp, tcfg)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, mp, None, vocab, step, 4)
    mp2, opt2, vocab2, step2, seed2 = load_checkpoint(path)
    assert opt2 is None
    assert (step2, seed2) == (step, 4)
    assert mp2.cfg == cfg
    assert vocab2.char_to_id == vocab.char_to_id
    # laid out for generation: float32, and every weight matrix but `emb` column-major
    laid_out = mp.laid_out()
    for name in mp.tensors:
        assert mp2.tensors[name].dtype == np.float32, name
        np.testing.assert_array_equal(mp2.tensors[name], laid_out.tensors[name])
    matrices = [k for k, v in mp2.tensors.items() if v.ndim == 2]
    assert "emb" in matrices and len(matrices) == 25
    for name in matrices:
        assert mp2.tensors[name].flags.f_contiguous == (name != "emb"), name
    assert mp2.tensors["emb"].flags.c_contiguous
    for g in (Genre.FIVE_CHAR, Genre.SEVEN_CHAR):
        assert mp2.indicators[g].dtype == np.float32
        np.testing.assert_array_equal(mp2.indicators[g], laid_out.indicators[g])
    # the file holds the model only: no optimizer state
    with open(path, "rb") as f:
        blob = f.read()
    hlen = struct.unpack("<Q", blob[8:16])[0]
    header = json.loads(blob[16:16 + hlen].decode("utf-8"))
    # every tensor's shape, in name order, and then only their float32 bytes
    shapes = {**{k: v.shape for k, v in mp.tensors.items()},
              "ind.5": (INDICATOR_DIM,), "ind.7": (INDICATOR_DIM,)}
    assert list(header["tensors"]) == sorted(shapes)
    assert header["tensors"] == {k: list(s) for k, s in shapes.items()}
    assert len(blob) == 16 + hlen + 4 * sum(int(np.prod(s)) for s in shapes.values())
    # the vocabulary as its characters in id order, and no attention-size key
    assert header["vocab"] == [vocab.char(i) for i in range(N_RESERVED, len(vocab))]
    assert list(header["hyper"]) == ["vocab_size", "d", "H", "H_dec",
                                     "use_input_attention", "seed"]
    # saving the loaded model writes the same bytes
    save_checkpoint(str(tmp_path / "again.ckpt"), mp2, None, vocab2, step2, seed2)
    assert (tmp_path / "again.ckpt").read_bytes() == blob
    # the reloaded model computes the losses of the model laid out for generation
    l1, _, _ = batch_loss([examples[0]], laid_out)
    l2, _, _ = batch_loss([examples[0]], mp2)
    np.testing.assert_array_equal(l1, l2)


def test_checkpoint_corruption_errors(tmp_path, setup, monkeypatch):
    _, vocab, examples, cfg = setup
    mp = ModelParams.initialize(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), mp, None, vocab, 0, 0)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(bad))

    bad.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint(str(bad))

    bad.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(str(bad))

    for size in (4, 15):
        bad.write_bytes(blob[:size])
        with pytest.raises(CheckpointError, match="need 16 bytes .* file has %d" % size):
            load_checkpoint(str(bad))

    assert struct.unpack("<I", blob[4:8])[0] == VERSION == 5
    for version in (1, 2, 3, 4, 99):
        bad.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        with pytest.raises(CheckpointError, match="version %d unsupported \\(expected %d\\)"
                           % (version, VERSION)):
            load_checkpoint(str(bad))

    bad.write_bytes(blob[:8] + struct.pack("<Q", 2**63) + blob[16:])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(bad))

    deep = b"[" * 100000 + b"]" * 100000
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(deep)) + deep)
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_checkpoint(str(bad))

    # one matrix listed transposed: the same byte count, but not the model's layout
    def transpose(h):
        h["tensors"]["attn_h.U"].reverse()
        return h
    bad.write_bytes(edit_checkpoint_header(blob, transpose))
    with pytest.raises(CheckpointError, match="other shape \\['attn_h.U'\\]"):
        load_checkpoint(str(bad))

    # hyper parameters and shapes that agree on a huge model: refused by the
    # byte count before any tensor buffer is allocated
    def huge(h):
        h["hyper"]["d"] = 10**6
        shapes = {**param_shapes(ModelConfig(**h["hyper"])),
                  "ind.5": (INDICATOR_DIM,), "ind.7": (INDICATOR_DIM,)}
        h["tensors"] = {k: list(shapes[k]) for k in sorted(shapes)}
        return h
    bad.write_bytes(edit_checkpoint_header(blob, huge))
    allocated = []
    empty = np.empty
    monkeypatch.setattr(np, "empty", lambda *a, **k: allocated.append(a) or empty(*a, **k))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(bad))
    assert allocated == []
    load_checkpoint(str(path))          # the loader's buffers do come from np.empty
    assert len(allocated) == len(mp.tensors) + 2


def _drop_tensor(mp):
    del mp.tensors["out.b"]


def _nan_bias(mp):
    mp.tensors["out.b"][3] = np.nan


def _inf_weight(mp):
    mp.tensors["dec.Wz"][0, 0] = np.inf


@pytest.mark.parametrize("edit_header, edit_state, match", [
    *[(edit, None, match) for edit, match in BAD_HEADERS.values()],
    (None, _drop_tensor, "missing \\['out.b'\\]"),
    (None, _nan_bias, "'out.b' holds a non-finite value"),
    (None, _inf_weight, "'dec.Wz' holds a non-finite value"),
], ids=[*BAD_HEADERS, "missing tensor", "NaN tensor", "inf tensor"])
def test_checkpoint_malformed_contents(tmp_path, setup, edit_header, edit_state, match):
    _, vocab, _, cfg = setup
    mp = ModelParams.initialize(cfg)
    if edit_state:
        edit_state(mp)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), mp, None, vocab, 0, 0)
    if edit_header:
        path.write_bytes(edit_checkpoint_header(path.read_bytes(), edit_header))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(str(path))


def test_checkpoint_without_characters_is_refused(tmp_path):
    """A vocabulary of the reserved ids alone has nothing to generate."""
    mp = ModelParams.initialize(ModelConfig(vocab_size=N_RESERVED, d=4, H=4, H_dec=4))
    path = str(tmp_path / "empty.ckpt")
    save_checkpoint(path, mp, None, build_vocab([]), 0, 0)
    with pytest.raises(CheckpointError, match="holds no characters"):
        load_checkpoint(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path, setup, monkeypatch):
    _, vocab, _, cfg = setup
    mp = ModelParams.initialize(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), mp, None, vocab, 3, 0)
    blob = path.read_bytes()

    calls = []

    def failing_write(f, name, arr):
        calls.append(name)
        if len(calls) == 6:
            raise OSError("disk full")
        _write_tensor(f, name, arr)
    monkeypatch.setattr("qgen.training._write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(str(path), mp, None, vocab, 4, 0)
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["model.ckpt"]
    mp2, _, _, step, _ = load_checkpoint(str(path))
    assert step == 3
    np.testing.assert_array_equal(mp2.tensors["emb"], for_generation("emb", mp.tensors["emb"]))


@pytest.mark.filterwarnings("error")
def test_save_refuses_value_beyond_float32(tmp_path, setup):
    """A finite value that float32 cannot hold would be written as inf, which
    load_checkpoint refuses; saving refuses it first, naming the tensor, and
    the previous file survives."""
    _, vocab, _, cfg = setup
    mp = ModelParams.initialize(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), mp, None, vocab, 3, 0)
    blob = path.read_bytes()
    mp.tensors["out.b"][3] = 1e39
    with pytest.raises(CheckpointError, match="'out.b' holds a finite value beyond float32"):
        save_checkpoint(str(path), mp, None, vocab, 4, 0)
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["model.ckpt"]
    mp.tensors["out.b"][3] = -np.finfo(np.float32).max     # the largest float32 is kept
    save_checkpoint(str(path), mp, None, vocab, 4, 0)
    assert load_checkpoint(str(path))[0].tensors["out.b"][3] == -np.finfo(np.float32).max


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(minibatch=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_train_epoch_requires_examples(setup):
    _, _, _, cfg = setup
    mp = ModelParams.initialize(cfg)
    opt = nm.AdaDeltaState(mp.tensors)
    with pytest.raises(ValueError):
        train_epoch([], mp, opt, TrainConfig(), np.random.default_rng(0))
