"""Shared fixtures: packaged data paths, malformed checkpoint headers, the
session-wide overfit model, and a summary line per acceptance criterion
printed at the end of the run."""

import json
import struct
import time
from importlib import resources

import pytest

from qgen.corpus import build_training_sequence, build_vocab, parse_corpus
from qgen.model import ModelConfig, ModelParams
from qgen.training import GenreMode, TrainConfig, train

ACCEPTANCE_LINES = []


def acceptance(num, ok, detail):
    """Record one acceptance criterion outcome and assert it."""
    line = "ACCEPTANCE %d %s: %s" % (num, "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line("  " + line)


def data_path(name):
    return str(resources.files("qgen").joinpath("data", name))


def edit_checkpoint_header(blob, edit):
    """A checkpoint's bytes with its JSON header replaced by edit(header)."""
    hlen = struct.unpack("<Q", blob[8:16])[0]
    header = edit(json.loads(blob[16:16 + hlen].decode("utf-8")))
    hb = json.dumps(header, ensure_ascii=False).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(hb)) + hb + blob[16 + hlen:]


# Header edits that each make a checkpoint malformed, with the error they give.
BAD_HEADERS = {
    "not an object": (lambda h: [h], "not a JSON object"),
    "missing field": (lambda h: {k: v for k, v in h.items() if k != "step"}, "lacks step"),
    "dict step": (lambda h: {**h, "step": {"x": [1]}}, "bad step"),
    "boolean step": (lambda h: {**h, "step": True}, "bad step"),
    "negative step": (lambda h: {**h, "step": -1}, "bad step"),
    "null train_seed": (lambda h: {**h, "train_seed": None}, "bad train_seed"),
    "unknown hyper key": (lambda h: {**h, "hyper": {**h["hyper"], "colour": 1}},
                          "hyper parameters"),
    "hyper over other shapes": (lambda h: {**h, "hyper": {**h["hyper"], "d": 7}},
                                "shape"),
    "short vocabulary": (lambda h: {**h, "vocab": h["vocab"][:-1]}, "vocabulary"),
    "non-string character": (lambda h: {**h, "vocab": [12345, *h["vocab"][1:]]},
                             "vocabulary"),
    "whitespace character": (lambda h: {**h, "vocab": [*h["vocab"][:-1], "\u3000"]},
                             "vocabulary"),
    "multi-character entry": (lambda h: {**h, "vocab": [*h["vocab"][:-1], "白日"]},
                              "vocabulary"),
    "repeated character": (lambda h: {**h, "vocab": [*h["vocab"][:-1], h["vocab"][0]]},
                           "vocabulary"),
}


# Embedding files that are each malformed, with the line their error names.
BAD_EMBEDDINGS = {
    "empty": ("", "line 1"),
    "bad header": ("2 two\n", "line 1"),
    "no rows": ("0 4\n", "line 1"),
    "truncated": ("3 2\na 0.5 0.25\n", "line 3"),
    "wrong width": ("2 2\na 0.5 0.25\nb 0.5\n", "line 3"),
    "not a number": ("1 2\na 0.5 x\n", "line 2"),
    "nan value": ("2 2\na 0.5 0.25\nb nan 0.5\n", "line 3"),
    "infinite value": ("1 2\na -inf 0.5\n", "line 2"),
    "repeated character": ("3 2\na 0.5 0.25\nb 0.5 0.5\na 0.25 0.5\n", "line 4"),
    "rows past the count": ("1 2\na 0.5 0.25\nb 0.5 0.5\n", "line 3"),
    "two-character key": ("2 2\na 0.5 0.25\nab 0.1 0.2\n", "line 3"),
    "empty key": ("1 2\n 0.3 0.4\n", "line 2"),
    "whitespace key": ("1 2\n\u3000 0.3 0.4\n", "line 2"),
}


OVERFIT_SEED = 123


@pytest.fixture(scope="session")
def overfit_run():
    """Hybrid training overfit on the 32-poem corpus (H=64, d=32).

    Shared by the overfit/echo, keyword fidelity, prosody compliance, genre
    control and determinism acceptance tests; trained once per session.
    """
    report = parse_corpus(data_path("overfit_corpus.txt"))
    assert report.rejected == 0
    poems = report.poems
    vocab = build_vocab(poems)
    examples = [build_training_sequence(p, vocab, echo=True) for p in poems]
    cfg = ModelConfig(vocab_size=len(vocab), d=32, H=64, H_dec=64,
                      seed=OVERFIT_SEED)
    mparams = ModelParams.initialize(cfg)
    tcfg = TrainConfig(epochs=2000, minibatch=8, seed=OVERFIT_SEED,
                       genre_mode=GenreMode.HYBRID)
    t0 = time.monotonic()
    _, reports, _ = train(examples, mparams, tcfg, stop_below_loss=0.145)
    elapsed = time.monotonic() - t0
    return {"poems": poems, "vocab": vocab, "examples": examples,
            "mparams": mparams, "reports": reports, "elapsed": elapsed}
