"""End-to-end CLI runs through main(): exit codes, outputs, manifests."""

import codecs
import io
import json
import os
import subprocess
import sys
import warnings
import zipfile

import numpy as np
import pytest

import qgen
from conftest import BAD_EMBEDDINGS, BAD_HEADERS, data_path, edit_checkpoint_header
from qgen.cli import EXIT_FAILURE, EXIT_INVALID, EXIT_OK, EXIT_USAGE, _emit, main
from qgen.corpus import Genre
from qgen.embeddings import skipgram_pairs
from qgen.generation import GenRequest, ProsodyRules, beam_search_generate
from qgen.prosody import load_templates, load_tone_dict
from qgen.training import load_checkpoint

FIVE = "月黑雁飞高|单于夜遁逃|欲将轻骑逐|大雪满弓刀"
SPACED = "月黑 飞高|单于夜遁逃|欲将轻骑逐|大雪满弓刀"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny checkpoint shared by the generate/validate tests."""
    out = tmp_path_factory.mktemp("ckpt")
    code = main(["--manifest", str(out / "train.manifest.json"),
                 "train", "--corpus", data_path("overfit_corpus.txt"),
                 "--epochs", "2", "--seed", "7",
                 "--d", "12", "--H", "12", "--H-dec", "12",
                 "--out", str(out / "toy.ckpt")])
    assert code == EXIT_OK
    return str(out / "toy.ckpt")


def test_train_writes_checkpoint_and_manifest(workdir, capsys):
    code = main(["train", "--corpus", data_path("overfit_corpus.txt"),
                 "--epochs", "1", "--d", "8", "--H", "8", "--H-dec", "8",
                 "--out", "m.ckpt"])
    assert code == EXIT_OK
    assert (workdir / "m.ckpt").exists()
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[0])
    assert list(report) == ["epoch", "mean_loss", "genre_loss"]
    manifest = json.loads((workdir / "train.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seeds"]["seed"] == 0
    assert manifest["config"]["epochs"] == 1
    assert manifest["outputs"] == ["m.ckpt"]
    assert manifest["inputs"] == [data_path("overfit_corpus.txt")]
    assert list(manifest) == ["command", "config", "seeds", "inputs", "outputs",
                              "build_id", "environment", "wall_time_s"]
    env = manifest["environment"]
    assert list(env) == ["numpy", "blas_threads", "cpu_count", "usable_cpus"]
    assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
    assert isinstance(env["blas_threads"], str) and 1 <= env["usable_cpus"] <= os.cpu_count()
    assert not {"func", "manifest", "inputs", "outputs"} & set(manifest["config"])


def test_train_missing_corpus_is_usage_error(workdir):
    assert main(["train", "--epochs", "1"]) == EXIT_USAGE


def test_train_hybrid_guard_is_runtime_error(workdir, capsys):
    (workdir / "five.txt").write_text(FIVE + "\n", encoding="utf-8")
    code = main(["train", "--corpus", "five.txt", "--genre", "hybrid",
                 "--epochs", "1", "--d", "8", "--H", "8", "--H-dec", "8"])
    assert code == EXIT_FAILURE
    assert "Hybrid" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "embed"])
def test_out_of_memory_is_one_line_failure(workdir, capsys, command):
    """numpy refuses a petabyte (V, d) matrix at once, before using any memory."""
    code = main([command, "--corpus", data_path("overfit_corpus.txt"),
                 "--d", "1000000000000", "--epochs", "1"])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("qgen: out of memory: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not (workdir / (command + ".manifest.json")).exists()


def test_train_with_no_known_character_is_one_line_failure(workdir, capsys):
    (workdir / "five.txt").write_text(FIVE + "\n", encoding="utf-8")
    assert main(["train", "--corpus", "five.txt", "--genre", "5", "--min-count", "9",
                 "--epochs", "1", "--d", "2", "--H", "2", "--H-dec", "2"]) == EXIT_FAILURE
    err = capsys.readouterr().err.splitlines()
    assert err == ["dropped 1 all-unknown poems",
                   "qgen: corpus five.txt yielded no usable poems"]
    assert os.listdir(workdir) == ["five.txt"]


def test_embed_with_no_wellformed_record_is_one_line_failure(workdir, capsys):
    (workdir / "c.txt").write_text("月黑雁飞高\n", encoding="utf-8")
    assert main(["embed", "--corpus", "c.txt", "--d", "2", "--window", "1"]) == EXIT_FAILURE
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "qgen: corpus c.txt yielded no poems"
    assert os.listdir(workdir) == ["c.txt"]


@pytest.mark.parametrize("case", sorted(BAD_EMBEDDINGS))
def test_train_malformed_embeddings_is_one_line_failure(workdir, capsys, case):
    text, line = BAD_EMBEDDINGS[case]
    (workdir / "five.txt").write_text(FIVE + "\n", encoding="utf-8")
    (workdir / "emb.txt").write_text(text, encoding="utf-8")
    assert main(["train", "--corpus", "five.txt", "--genre", "5", "--d", "2",
                 "--H", "2", "--H-dec", "2", "--pretrained-embeddings", "emb.txt"]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("qgen: embeddings emb.txt %s: " % line)
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command, trainer", [("train", "train"), ("embed", "train_skipgram")])
def test_unwritable_out_fails_before_training(workdir, capsys, monkeypatch, command, trainer):
    monkeypatch.setattr("qgen.cli." + trainer,
                        lambda *a, **k: pytest.fail("trained despite an unwritable --out"))
    code = main([command, "--corpus", data_path("overfit_corpus.txt"), "--d", "8",
                 "--epochs", "1", "--out", "nodir/out.txt"])
    assert code == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qgen: ") and "nodir/out.txt" in err and len(err.splitlines()) == 1
    assert os.listdir(workdir) == []


def test_failed_embed_keeps_the_previous_out(workdir):
    (workdir / "emb.txt").write_text("previous\n", encoding="utf-8")
    assert main(["embed", "--corpus", data_path("overfit_corpus.txt"), "--window", "1000000",
                 "--out", "emb.txt"]) == EXIT_FAILURE
    assert (workdir / "emb.txt").read_text(encoding="utf-8") == "previous\n"


def test_generate_deterministic_stdout(workdir, trained, capsys):
    argv = ["generate", "--checkpoint", trained, "--keywords", "月黑雁飞高",
            "--genre", "5", "--beam", "2", "--seed", "3", "--log", "gen.jsonl"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    lines = first.strip().splitlines()
    assert all(len(l) == 5 for l in lines[:4])
    report = json.loads(lines[4])           # compliance self-report
    assert report["structure_ok"]
    assert (workdir / "gen.jsonl").exists()
    assert (workdir / "generate.manifest.json").exists()


def test_generate_log_holds_the_search_records(workdir, trained):
    assert main(["generate", "--checkpoint", trained, "--keywords", "月黑雁飞高",
                 "--genre", "7", "--beam", "3", "--seed", "2", "--log", "gen.jsonl"]) == EXIT_OK
    mparams, _, vocab, _, _ = load_checkpoint(trained)
    rules = ProsodyRules(load_tone_dict(data_path("tone_dict.tsv")),
                         load_templates(data_path("templates.txt")))
    req = GenRequest(keywords="月黑雁飞高", genre=Genre.SEVEN_CHAR, beam_width=3, seed=2)
    _, records = beam_search_generate(req, mparams, vocab, rules)
    lines = (workdir / "gen.jsonl").read_text(encoding="utf-8").split("\n")
    assert lines[-1] == "" and [json.loads(l) for l in lines[:-1]] == rounded(records)
    assert lines[:-1] == [json.dumps(r, ensure_ascii=False) for r in rounded(records)]


def rounded(obj):
    """Records as the beam log holds them: each array's floats to 6 decimals."""
    if isinstance(obj, np.ndarray):
        return np.round(obj.astype(np.float64), 6).tolist()
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    return [rounded(v) for v in obj] if isinstance(obj, list) else obj


def test_emit_rounds_arrays_in_float64_and_refuses_other_objects():
    """A float32 0.1 rounded in float32 would print as 0.10000000149011612."""
    out = io.StringIO()
    _emit({"w": np.array([0.1], np.float32)}, file=out)
    assert out.getvalue() == '{"w": [0.1]}\n'
    with pytest.raises(TypeError, match="not JSON serializable"):
        _emit({"w": object()}, file=io.StringIO())


def test_generate_unwritable_log_prints_no_poem(workdir, trained, capsys):
    assert main(["generate", "--checkpoint", trained, "--keywords", "月黑",
                 "--genre", "5", "--beam", "1", "--log", "nodir/x.jsonl"]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qgen: ") and len(err.splitlines()) == 1
    assert not (workdir / "generate.manifest.json").exists()


def test_failed_generate_leaves_the_log_untouched(workdir, trained, capsys):
    """The search fails (no seven-character template) after the log path was
    checked: an existing log keeps its bytes, and no file appears at a new path."""
    with open(data_path("templates.txt"), encoding="utf-8") as f:
        (workdir / "five.txt").write_text(f.read().split("# wu_2")[0], encoding="utf-8")
    (workdir / "beam.jsonl").write_text("keep\n", encoding="utf-8")
    for log in ("beam.jsonl", "new.jsonl"):
        assert main(["generate", "--checkpoint", trained, "--keywords", "月", "--genre", "7",
                     "--templates", "five.txt", "--log", log]) == EXIT_FAILURE
        out, err = capsys.readouterr()
        assert out == "" and err == "qgen: no tonal templates for genre SEVEN_CHAR\n"
    assert (workdir / "beam.jsonl").read_text(encoding="utf-8") == "keep\n"
    assert sorted(os.listdir(workdir)) == ["beam.jsonl", "five.txt"]


def test_generate_seven_char(workdir, trained, capsys):
    assert main(["generate", "--checkpoint", trained, "--keywords", "月黑",
                 "--genre", "7", "--beam", "1", "--seed", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(len(l) == 7 for l in lines[:4])


def test_generate_without_templates_for_genre_prints_no_self_report(workdir, trained, capsys):
    with open(data_path("templates.txt"), encoding="utf-8") as f:
        five_only = f.read().split("# qi_1")[0]
    (workdir / "five.txt").write_text(five_only, encoding="utf-8")
    assert main(["generate", "--checkpoint", trained, "--keywords", "月黑", "--genre", "7",
                 "--no-tone", "--templates", "five.txt"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4 and all(len(l) == 7 for l in out)
    assert (workdir / "generate.manifest.json").exists()


def test_generate_from_zipped_package_reads_packaged_defaults(tmp_path, trained):
    """Imported from a zip, qgen reads its default tone dictionary and
    templates through the package, as they are no filesystem paths."""
    package = os.path.dirname(qgen.__file__)
    archive = str(tmp_path / "qgen.zip")
    with zipfile.ZipFile(archive, "w") as z:
        for root, dirs, files in os.walk(package):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in files:
                path = os.path.join(root, name)
                z.write(path, os.path.relpath(path, os.path.dirname(package)))
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import qgen.cli; "
              "assert qgen.cli.__file__.startswith(sys.argv[1]); "
              "sys.exit(qgen.cli.main(sys.argv[2:]))")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QGEN_CONFIG")}
    proc = subprocess.run([sys.executable, "-c", script, archive, "--manifest", "g.json",
                           "generate", "--checkpoint", trained, "--keywords", "月黑",
                           "--genre", "5", "--beam", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(proc.stdout.splitlines()) == 5           # four lines and the self-report
    inputs = json.loads((tmp_path / "g.json").read_text(encoding="utf-8"))["inputs"]
    assert inputs[1:] == [os.path.join(archive, "qgen", "data", name)
                          for name in ("tone_dict.tsv", "templates.txt")]


def test_generate_missing_checkpoint(workdir, capsys):
    code = main(["generate", "--checkpoint", "absent.ckpt",
                 "--keywords", "月", "--genre", "5"])
    assert code == EXIT_FAILURE


def test_generate_without_tone_dict_is_one_line_failure(workdir, trained, capsys):
    argv = ["generate", "--checkpoint", trained, "--keywords", "月黑雁飞高",
            "--genre", "5", "--tone-dict", ""]
    for extra in ([], ["--no-tone"]):
        assert main(argv + extra) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("qgen: ") and "tone dictionary" in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_generate_malformed_checkpoint_is_one_line_failure(workdir, trained, capsys, case):
    edit, match = BAD_HEADERS[case]
    with open(trained, "rb") as f:
        (workdir / "bad.ckpt").write_bytes(edit_checkpoint_header(f.read(), edit))
    assert main(["generate", "--checkpoint", "bad.ckpt", "--keywords", "月黑雁飞高",
                 "--genre", "5"]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("qgen: ") and match in err
    assert len(err.splitlines()) == 1


def test_validate_compliant_poem(workdir, capsys):
    # an indented comment is a comment, as in the corpus and the bleu inputs
    (workdir / "poem.txt").write_text("  # a note\n" + FIVE.replace("|", "\n") + "\n",
                                      encoding="utf-8")
    assert main(["validate", "--poem", "poem.txt"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["compliant"] and report["best_template"] == "wu_1"
    assert list(report) == ["structure_ok", "genre", "structure_error", "best_template",
                            "tone_violations", "rhyme_ok", "rhyme_info", "unknown_chars",
                            "compliant"]


def test_validate_structure_error_exits_3(workdir, capsys):
    for poem, error in (("月黑雁飞高|单于夜遁逃|欲将轻骑逐|大雪满弓", "line 4"),
                        (SPACED, "line 1 has whitespace")):
        (workdir / "poem.txt").write_text(poem + "\n", encoding="utf-8")
        assert main(["validate", "--poem", "poem.txt"]) == EXIT_INVALID
        report = json.loads(capsys.readouterr().out)
        assert not report["structure_ok"]
        assert error in report["structure_error"]


def test_validate_tone_violations_exit_3(workdir, capsys):
    # 雁 (Ze) and 飞 (Ping) swapped: structure and rhyme hold, tones do not
    (workdir / "poem.txt").write_text("月黑飞雁高|单于夜遁逃|欲将轻骑逐|大雪满弓刀\n",
                                      encoding="utf-8")
    assert main(["validate", "--poem", "poem.txt"]) == EXIT_INVALID
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
    report = json.loads(out)
    assert report["structure_ok"] and report["rhyme_ok"]
    assert report["tone_violations"] and not report["compliant"]
    assert (workdir / "validate.manifest.json").exists()


def test_unwritable_manifest_is_one_line_failure(workdir, capsys):
    (workdir / "hyp.txt").write_text("月黑雁飞高\n", encoding="utf-8")
    code = main(["--manifest", str(workdir / "missing" / "m.json"),
                 "bleu", "--hyp", "hyp.txt", "--refs", "hyp.txt"])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("qgen: ") and len(err.splitlines()) == 1


def test_generate_unwritable_manifest_prints_no_poem(workdir, trained, capsys):
    assert main(["--manifest", "nodir/m.json", "generate", "--checkpoint", trained,
                 "--keywords", "月黑", "--genre", "5", "--beam", "1"]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qgen: ") and "nodir/m.json" in err and len(err.splitlines()) == 1
    assert os.listdir(workdir) == []


def test_train_unwritable_manifest_fails_before_training(workdir, capsys, monkeypatch):
    monkeypatch.setattr("qgen.cli.train",
                        lambda *a, **k: pytest.fail("trained despite an unwritable --manifest"))
    assert main(["--manifest", "nodir/m.json", "train", "--corpus",
                 data_path("overfit_corpus.txt"), "--epochs", "1", "--d", "8", "--H", "8",
                 "--H-dec", "8", "--out", "m.ckpt"]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qgen: ") and "nodir/m.json" in err and len(err.splitlines()) == 1
    assert os.listdir(workdir) == []


@pytest.mark.parametrize("argv", [
    ["validate", "--poem", "poem-gbk.txt"],
    ["bleu", "--hyp", "poem-gbk.txt", "--refs", "refs.txt"],
    ["bleu", "--hyp", "refs.txt", "--refs", "poem-gbk.txt"],
    ["train", "--corpus", "refs.txt", "--pretrained-embeddings", "poem-gbk.txt",
     "--epochs", "1", "--d", "8", "--H", "8", "--H-dec", "8"],
], ids=" ".join)
def test_non_utf8_text_file_is_one_line_failure(workdir, capsys, argv):
    (workdir / "poem-gbk.txt").write_bytes((FIVE + "\n").encode("gbk"))
    (workdir / "refs.txt").write_text(FIVE + "\n", encoding="utf-8")
    assert main(argv) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("qgen: ") and "poem-gbk.txt" in err
    assert len(err.splitlines()) == 1


def test_bleu_fixture(workdir, capsys):
    (workdir / "h.txt").write_text("AABB\n", encoding="utf-8")
    (workdir / "r.txt").write_text("ABBC\n", encoding="utf-8")
    assert main(["bleu", "--hyp", "h.txt", "--refs", "r.txt"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert abs(report["bleu"] - 0.7071067811865475) < 1e-12
    assert report["p1"] == 0.75
    assert list(report) == ["p1", "p2", "bp", "bleu", "hyp_len", "closest_ref_len",
                            "zero_precision"]


def test_bleu_ignores_byte_order_mark(workdir, capsys):
    (workdir / "h.txt").write_bytes(codecs.BOM_UTF8 + "白日依山尽|黄河入海流\n".encode("utf-8"))
    (workdir / "r.txt").write_text("白日依山尽黄河入海流\n", encoding="utf-8")
    assert main(["bleu", "--hyp", "h.txt", "--refs", "r.txt"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["bleu"] == 1.0 and report["hyp_len"] == 10


def test_bleu_empty_hypothesis_scores_zero(workdir, capsys):
    (workdir / "h.txt").write_text("|\n", encoding="utf-8")
    (workdir / "r.txt").write_text(FIVE + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bleu", "--hyp", "h.txt", "--refs", "r.txt"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 and err == ""
    report = json.loads(out)
    assert report["bleu"] == 0.0 and report["bp"] == 0.0 and report["hyp_len"] == 0
    assert report["zero_precision"]


def test_bleu_rejects_two_hypotheses(workdir, capsys):
    (workdir / "h.txt").write_text("AABB\nABBC\n", encoding="utf-8")
    assert main(["bleu", "--hyp", "h.txt", "--refs", "h.txt"]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err == "qgen: hypothesis file must hold exactly one sequence, got 2\n"


def test_bleu_rejects_empty_refs(workdir, capsys):
    (workdir / "h.txt").write_text("AABB\n", encoding="utf-8")
    (workdir / "r.txt").write_text("# nothing\n", encoding="utf-8")
    assert main(["bleu", "--hyp", "h.txt", "--refs", "r.txt"]) == EXIT_FAILURE


def test_embed_and_reuse(workdir, capsys):
    # the record with a space is skipped, so no vector is keyed by a space
    (workdir / "c.txt").write_text(FIVE + "\n" + SPACED + "\n", encoding="utf-8")
    assert main(["embed", "--corpus", "c.txt", "--out", "emb.txt",
                 "--d", "8", "--window", "2", "--negatives", "2"]) == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert list(info) == ["chars", "d", "out", "pairs"]
    assert info["d"] == 8 and info["chars"] > 0
    assert (workdir / "emb.txt").exists()
    code = main(["train", "--corpus", "c.txt", "--genre", "5", "--epochs", "1",
                 "--d", "8", "--H", "8", "--H-dec", "8",
                 "--pretrained-embeddings", "emb.txt", "--out", "m.ckpt"])
    assert code == EXIT_OK


SEVEN = "白日依山尽黄河|入海流欲穷千里|目更上一层楼月|黑雁飞高单于夜"


@pytest.mark.parametrize("poems, window, epochs", [
    ([FIVE], 1, 1), ([FIVE], 3, 2), ([FIVE], 19, 1), ([FIVE], 19, 3),
    ([FIVE, SEVEN], 5, 2), ([FIVE, SEVEN], 47, 1), ([SEVEN], 27, 2),
])
def test_embed_reports_the_pairs_it_trained(workdir, capsys, poems, window, epochs):
    """`pairs` is epochs * (2wn - w(w+1)), the pairs skipgram_pairs lists
    over the stream of n >= w+1 characters, down to n = w+1."""
    (workdir / "c.txt").write_text("\n".join(poems) + "\n", encoding="utf-8")
    assert main(["embed", "--corpus", "c.txt", "--out", "emb.txt", "--d", "2",
                 "--window", str(window), "--negatives", "1",
                 "--epochs", str(epochs)]) == EXIT_OK
    stream = "".join(poems).replace("|", "")
    assert json.loads(capsys.readouterr().out)["pairs"] == \
        epochs * len(list(skipgram_pairs(stream, window)))


@pytest.mark.parametrize("argv", [
    ["embed", "--corpus", "c.txt", "--out", "emb.txt", "--d", "4", "--window", "1"],
    ["train", "--corpus", "c.txt", "--genre", "5", "--epochs", "1",
     "--d", "4", "--H", "4", "--H-dec", "4", "--out", "m.ckpt"],
], ids=lambda argv: argv[0])
def test_skipped_corpus_records_are_named(workdir, capsys, argv):
    (workdir / "c.txt").write_text("\n".join([FIVE, "月黑雁飞高", FIVE]) + "\n",
                                   encoding="utf-8")
    assert main(argv) == EXIT_OK
    err = capsys.readouterr().err
    assert "skipped 1 malformed records" in err
    assert "record 2: expected 4 lines, got 1" in err


def test_qgen_config_env_defaults(workdir, trained, capsys, monkeypatch):
    cfg = workdir / "defaults.json"
    cfg.write_text(json.dumps({"seed": 5, "beam": 1}), encoding="utf-8")
    monkeypatch.setenv("QGEN_CONFIG", str(cfg))
    assert main(["generate", "--checkpoint", trained, "--keywords", "月黑雁飞高",
                 "--genre", "5"]) == EXIT_OK
    manifest = json.loads((workdir / "generate.manifest.json").read_text())
    assert manifest["seeds"]["seed"] == 5
    assert manifest["config"]["beam"] == 1
    # explicit flags still beat the config file
    assert main(["generate", "--checkpoint", trained, "--keywords", "月黑雁飞高",
                 "--genre", "5", "--seed", "9"]) == EXIT_OK
    manifest = json.loads((workdir / "generate.manifest.json").read_text())
    assert manifest["seeds"]["seed"] == 9


def test_qgen_config_ignores_byte_order_mark(workdir, trained, monkeypatch):
    cfg = workdir / "defaults.json"
    cfg.write_bytes(codecs.BOM_UTF8 + json.dumps({"seed": 5}).encode("utf-8"))
    monkeypatch.setenv("QGEN_CONFIG", str(cfg))
    assert main(["generate", "--checkpoint", trained, "--keywords", "月黑雁飞高",
                 "--genre", "5", "--beam", "1"]) == EXIT_OK
    assert json.loads((workdir / "generate.manifest.json").read_text())["seeds"]["seed"] == 5


def test_qgen_config_null_keeps_a_none_default(workdir, trained, monkeypatch):
    (workdir / "defaults.json").write_text(json.dumps({"log": None}), encoding="utf-8")
    monkeypatch.setenv("QGEN_CONFIG", str(workdir / "defaults.json"))
    assert main(["generate", "--checkpoint", trained, "--keywords", "月黑雁飞高",
                 "--genre", "5", "--beam", "1"]) == EXIT_OK
    manifest = json.loads((workdir / "generate.manifest.json").read_text())
    assert manifest["config"]["log"] is None and manifest["outputs"] == []


@pytest.mark.parametrize("cfg", [
    {"beam": 2.5}, {"beam": [2]}, {"beam": None}, {"beam": True}, {"seed": "x"},
    {"no_tone": 1}, {"no_tone": None}, {"genre": 5}, {"genre": "6"},
    {"tone_dict": 5}, {"keywords": 5}, {"beams": 1, "sead": 4},
], ids=json.dumps)
def test_qgen_config_wrong_value_type(workdir, trained, capsys, monkeypatch, cfg):
    (workdir / "defaults.json").write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.setenv("QGEN_CONFIG", str(workdir / "defaults.json"))
    assert main(["generate", "--checkpoint", trained, "--keywords", "月黑雁飞高",
                 "--genre", "5"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("qgen: bad QGEN_CONFIG: ") and next(iter(cfg)) in err
    assert len(err.splitlines()) == 1


REQUIRED = {"train": ["--corpus", "missing.txt"], "embed": ["--corpus", "missing.txt"],
            "generate": ["--checkpoint", "missing.ckpt", "--keywords", "月", "--genre", "5"]}


@pytest.mark.parametrize("via", ["argv", "QGEN_CONFIG"])
@pytest.mark.parametrize("command, flag, value", [
    ("generate", "--beam", 0), ("generate", "--beam", -3),
    ("train", "--epochs", 0), ("train", "--minibatch", 0), ("train", "--d", 0),
    ("train", "--H", 0), ("train", "--H-dec", 0), ("train", "--min-count", 0),
    ("train", "--stop-below-loss", float("nan")), ("train", "--stop-below-loss", float("inf")),
    ("train", "--stop-below-loss", float("-inf")),
    ("embed", "--d", 1), ("embed", "--window", 0), ("embed", "--negatives", -1),
    ("embed", "--epochs", 0),
])
def test_out_of_range_numbers_are_usage_errors(workdir, capsys, monkeypatch, via,
                                               command, flag, value):
    """Exit 2 before any input is read (the named inputs do not exist), one
    error line naming the flag, and nothing written."""
    argv, key = [command] + REQUIRED[command], flag[2:].replace("-", "_")
    if via == "argv":
        argv.append("%s=%s" % (flag, value))       # "=": argparse takes "-inf" for a flag
    else:
        (workdir / "defaults.json").write_text(json.dumps({key: value}), encoding="utf-8")
        monkeypatch.setenv("QGEN_CONFIG", str(workdir / "defaults.json"))
    assert main(argv) == EXIT_USAGE
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("qgen")]
    assert len(errors) == 1 and "must be" in errors[0]
    assert (flag if via == "argv" else key) in errors[0]
    assert sorted(os.listdir(workdir)) == ([] if via == "argv" else ["defaults.json"])


@pytest.mark.parametrize("via", ["argv", "QGEN_CONFIG"])
@pytest.mark.parametrize("command", ["train", "generate", "embed"])
def test_negative_seed_is_a_usage_error(workdir, capsys, monkeypatch, via, command):
    """numpy's generators take no negative seed: `--seed -1` is refused as any
    out-of-range number is, before an input is read."""
    test_out_of_range_numbers_are_usage_errors(workdir, capsys, monkeypatch, via,
                                               command, "--seed", -1)


@pytest.mark.parametrize("via", ["argv", "QGEN_CONFIG"])
@pytest.mark.parametrize("value", [" ", "\t", "\u3000", ""], ids=repr)
def test_blank_keywords_are_a_usage_error(workdir, capsys, monkeypatch, via, value):
    """Keywords of whitespace alone (a space, a tab, the ideographic space) or
    none at all are refused before the checkpoint is read."""
    test_out_of_range_numbers_are_usage_errors(workdir, capsys, monkeypatch, via,
                                               "generate", "--keywords", value)


def test_qgen_config_bad_file(workdir, monkeypatch):
    cfg = workdir / "defaults.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    monkeypatch.setenv("QGEN_CONFIG", str(cfg))
    assert main(["validate", "--poem", "x"]) == EXIT_USAGE
    cfg.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["validate", "--poem", "x"]) == EXIT_USAGE
