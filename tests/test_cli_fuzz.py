"""Property test of the whole command line.

A generated argv for each of the five commands, run by `cli.main` in a temp
dir over generated contents for every file it may read (corpus, vectors,
checkpoint, tone dictionary, templates, poem, hypothesis and references):
every run ends in a documented exit code with no traceback, a failure prints
at most one `qgen:` line, and no poem reaches stdout unless the run succeeded.

Half the cases are clean: every flag value is one its parser accepts and the
checkpoint, tone dictionary and templates are whole, so the commands also run
to the end. Training always gets one epoch and small dimensions.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import data_path  # noqa: E402
from qgen.cli import EXIT_FAILURE, EXIT_INVALID, EXIT_OK, EXIT_USAGE, main  # noqa: E402

CHARS = "月黑雁飞高单于夜遁逃欲将轻骑逐大雪满弓刀"
TEXT = st.text(max_size=40)


def packaged(name):
    with open(data_path(name), encoding="utf-8") as f:
        return f.read()


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """The bytes of a toy checkpoint: one epoch at d, H and H_dec 8."""
    out = tmp_path_factory.mktemp("ckpt")
    assert main(["--manifest", str(out / "m.json"), "train", "--corpus",
                 data_path("overfit_corpus.txt"), "--epochs", "1", "--d", "8", "--H", "8",
                 "--H-dec", "8", "--out", str(out / "toy.ckpt")]) == EXIT_OK
    return (out / "toy.ckpt").read_bytes()


def quatrain(clean=False):
    """Four `|`-joined lines of 5 or 7 characters; unless clean, any of them
    may be noise."""
    def lines(n):
        line = st.text(alphabet=CHARS, min_size=n, max_size=n)
        if not clean:
            line = line | st.text(alphabet=CHARS + " 　|#", max_size=8)
        return st.lists(line, min_size=4, max_size=4).map("|".join)
    return st.sampled_from([5, 7]).flatmap(lines)


def lines_of(line, min_size=0, max_size=5):
    return st.lists(line, min_size=min_size, max_size=max_size).map("\n".join)


def contents(checkpoint, clean):
    """The bytes of every file a command may read."""
    def mixed(good, bad):
        return good if clean else good | bad

    def flipped(at_mask):
        at, mask = at_mask
        return checkpoint[:at] + bytes([checkpoint[at] ^ mask]) + checkpoint[at + 1:]

    damaged = (st.binary(max_size=64)
               | st.integers(0, len(checkpoint) - 1).map(lambda n: checkpoint[:n])
               | st.tuples(st.integers(0, len(checkpoint) - 1), st.integers(1, 255)).map(flipped))
    vector_row = st.tuples(st.sampled_from(list(CHARS[:4]) + ["", "月黑"]), st.lists(
        st.sampled_from(["0.5", "-1", "nan", "x", ""]), max_size=9)).map(
        lambda row: " ".join([row[0], *row[1]]))
    vectors = st.tuples(st.integers(0, 3), st.integers(1, 9), lines_of(vector_row)).map(
        lambda v: "%d %d\n%s" % v)
    tone_row = st.tuples(st.sampled_from(list(CHARS[:6]) + ["", "月黑"]),
                         st.sampled_from(["P", "Z", "X"]), st.sampled_from(["a", "b", ""]))
    template_row = st.sampled_from(["PZPZP", "ZZPPZ", "*PZ*Z", "PPZZPPZ", "", "# a", "Q"])
    files = {
        "corpus.txt": mixed(st.just(packaged("overfit_corpus.txt"))
                            | lines_of(quatrain(clean), min_size=1), TEXT),
        "vectors.txt": vectors | TEXT,
        "model.ckpt": mixed(st.just(checkpoint), damaged),
        "tones.tsv": mixed(st.just(packaged("tone_dict.tsv")),
                           lines_of(tone_row.map("\t".join)) | TEXT),
        "templates.txt": mixed(st.just(packaged("templates.txt")),
                               lines_of(template_row, max_size=10) | TEXT),
        "poem.txt": quatrain() | lines_of(st.text(alphabet=CHARS + "|#", max_size=8)) | TEXT,
        "hyp.txt": quatrain() | TEXT,
        "refs.txt": lines_of(quatrain()) | TEXT,
    }
    return st.fixed_dictionaries(files).map(
        lambda texts: {k: v if isinstance(v, bytes) else v.encode("utf-8")
                       for k, v in texts.items()})


def argv(clean):
    """A whole argv; a clean one gives every required flag, only values the
    flags accept, and paths that name the generated files."""
    def pick(good, bad):
        return st.sampled_from(good if clean else good + bad)

    def always(name, values):           # given even when optional: its default is slow
        return values.map(lambda v: [name, v])

    def opt(name, values):
        return always(name, values) | st.just([])

    def req(name, values):
        return always(name, values) if clean else opt(name, values)

    def switch(name):
        return st.sampled_from([[name], []])

    def path(name):
        return pick([name], ["missing.txt", "."])

    out = pick(["out.bin"], ["no/such/dir/out.bin", ".", "corpus.txt"])
    count, dim = pick(["1", "2"], ["0", "-1", "x"]), pick(["2", "8", "1"], ["0", "x"])
    seed = pick(["0", "7", "123456789012345678901234"], ["-1", "x"])
    keywords = st.text(alphabet=CHARS[:6] + "x 　\t|", min_size=1, max_size=5)
    commands = {
        "train": [req("--corpus", path("corpus.txt")),
                  opt("--genre", pick(["hybrid", "5", "7"], ["6"])),
                  always("--epochs", pick(["1"], ["0", "x"])), opt("--minibatch", count),
                  opt("--seed", seed), opt("--out", out), always("--d", dim),
                  always("--H", dim), always("--H-dec", dim), opt("--min-count", count),
                  switch("--no-echo"), switch("--no-input-attention"),
                  opt("--pretrained-embeddings", path("vectors.txt")),
                  opt("--stop-below-loss", pick(["0.5", "1e308", "-1"], ["nan", "-inf", "x"]))],
        "generate": [req("--checkpoint", path("model.ckpt")),
                     req("--keywords", keywords | st.text(max_size=4)),
                     req("--genre", pick(["5", "7"], ["9"])),
                     opt("--beam", pick(["3", "1"], ["0", "x"])), opt("--seed", seed),
                     switch("--no-tone"), switch("--no-rhyme"), switch("--sep-keywords"),
                     opt("--tone-dict", path("tones.tsv")),
                     opt("--templates", path("templates.txt")), opt("--log", out)],
        "validate": [req("--poem", path("poem.txt")), opt("--tone-dict", path("tones.tsv")),
                     opt("--templates", path("templates.txt")), switch("--check-line1")],
        "bleu": [req("--hyp", path("hyp.txt")), req("--refs", path("refs.txt"))],
        "embed": [req("--corpus", path("corpus.txt")), opt("--out", out),
                  always("--d", pick(["2", "8"], ["1", "x"])), opt("--window", count),
                  opt("--negatives", count), opt("--epochs", pick(["1"], ["0"])),
                  opt("--seed", seed)],
    }
    return st.tuples(opt("--manifest", out), st.sampled_from(sorted(commands))).flatmap(
        lambda head: st.tuples(*commands[head[1]]).map(
            lambda parts: head[0] + [head[1]] + [a for part in parts for a in part]))


def cases(checkpoint):
    return st.booleans().flatmap(
        lambda clean: st.tuples(argv(clean), contents(checkpoint, clean)))


def test_cli_ends_in_documented_exit(tmp_path, capsys, monkeypatch, checkpoint):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QGEN_CONFIG", raising=False)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(cases(checkpoint))
    def run(case):
        argv, files = case
        for name, blob in files.items():
            (tmp_path / name).write_bytes(blob)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_INVALID), (argv, code)
        assert "Traceback" not in err, (argv, err)
        if code != EXIT_OK:
            assert sum(line.startswith("qgen:") for line in err.splitlines()) <= 1, (argv, err)
            for line in out.splitlines():       # JSON reports and epoch lines, no poem
                json.loads(line)
    run()
