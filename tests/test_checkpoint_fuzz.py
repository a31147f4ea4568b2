"""Property test of the checkpoint loader on damaged files.

A byte-flipped or truncated checkpoint, or one whose header holds an
arbitrary JSON value in any field, hyper key or vocabulary entry, either
raises CheckpointError or loads a vocabulary of str characters and int ids.
A checkpoint of finite weights too large for float32 products ends
`qgen generate` in one error line.
"""

from dataclasses import asdict

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import edit_checkpoint_header  # noqa: E402
from qgen import numerics as nm  # noqa: E402
from qgen.cli import EXIT_FAILURE, main  # noqa: E402
from qgen.corpus import N_RESERVED, Genre, Poem, build_vocab  # noqa: E402
from qgen.model import ModelConfig, ModelParams  # noqa: E402
from qgen.training import (HEADER_FIELDS, CheckpointError, load_checkpoint,  # noqa: E402
                           save_checkpoint)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A small checkpoint's bytes, and a path for the damaged copies."""
    vocab = build_vocab([Poem(Genre.FIVE_CHAR, ["白日依山尽"] * 4)])
    mp = ModelParams.initialize(ModelConfig(vocab_size=len(vocab), d=3, H=2, H_dec=3))
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(str(path), mp, nm.AdaDeltaState(mp.tensors), vocab, 4, 0)
    return path.read_bytes(), path, len(vocab) - N_RESERVED


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                                inner, max_size=3),
    max_leaves=6)

HYPER_KEYS = tuple(asdict(ModelConfig(vocab_size=1)))


def _set(path, value):
    """A header edit that puts `value` at the key path inside the header."""
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return header
    return edit


damage = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 10**6)),
    st.tuples(st.just("edit"), st.sampled_from(HEADER_FIELDS).map(lambda k: (k,)),
              json_values),
    st.tuples(st.just("edit"), st.sampled_from(HYPER_KEYS).map(lambda k: ("hyper", k)),
              json_values),
    st.tuples(st.just("slot"), st.integers(0, 11), json_values),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(damage)
def test_damaged_checkpoint_fails_typed_or_loads_typed_vocab(saved, change):
    blob, path, n_chars = saved
    if change[0] == "flip":
        at = change[1] % len(blob)
        blob = blob[:at] + bytes([blob[at] ^ change[2]]) + blob[at + 1:]
    elif change[0] == "cut":
        blob = blob[:change[1] % len(blob)]
    elif change[0] == "slot":
        blob = edit_checkpoint_header(blob, _set(("vocab", change[1] % n_chars), change[2]))
    else:
        blob = edit_checkpoint_header(blob, _set(change[1], change[2]))
    path.write_bytes(blob)
    try:
        _, _, vocab, _, _ = load_checkpoint(str(path))
    except CheckpointError:
        return
    assert all(type(c) is str and type(i) is int for c, i in vocab.char_to_id.items())
    assert all(vocab.char(i) == c for c, i in vocab.char_to_id.items())


@pytest.mark.parametrize("scale", [1e30, 1e34, 1e38])
@pytest.mark.parametrize("rules", [[], ["--no-tone", "--no-rhyme"]])
def test_extreme_finite_weights_end_in_one_error_line(saved, tmp_path, monkeypatch, capsys,
                                                      scale, rules):
    """Every tensor scaled by `scale` stays finite float32 and loads, but the
    products overflow: a beam-1 search, masked or taking its argmax, names
    the overflow in one line, and no numpy warning escapes (the suite makes
    RuntimeWarning an error)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.ckpt").write_bytes(saved[0])
    mp, _, vocab, step, seed = load_checkpoint("model.ckpt")
    for t in mp.tensors.values():
        t *= scale
    save_checkpoint("scaled.ckpt", mp, None, vocab, step, seed)
    code = main(["generate", "--checkpoint", "scaled.ckpt", "--keywords", "白日",
                 "--genre", "5", "--beam", "1", *rules])
    out, err = capsys.readouterr()
    assert code == EXIT_FAILURE and out == ""
    assert err.splitlines() == ["qgen: the model's numbers overflowed float32 at step 0"]
