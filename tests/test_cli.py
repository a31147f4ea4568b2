"""End-to-end CLI runs through main(): exit codes, outputs, manifests."""

import json

import pytest

from conftest import BAD_EMBEDDINGS, BAD_HEADERS, data_path, edit_checkpoint_header
from qgen.cli import EXIT_FAILURE, EXIT_INVALID, EXIT_OK, EXIT_USAGE, main

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
    assert {"epoch", "mean_loss", "genre_loss"} <= set(report)
    manifest = json.loads((workdir / "train.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seeds"]["seed"] == 0
    assert manifest["config"]["epochs"] == 1
    assert manifest["outputs"] == ["m.ckpt"]


def test_train_missing_corpus_is_usage_error(workdir):
    assert main(["train", "--epochs", "1"]) == EXIT_USAGE


def test_train_hybrid_guard_is_runtime_error(workdir, capsys):
    (workdir / "five.txt").write_text(FIVE + "\n", encoding="utf-8")
    code = main(["train", "--corpus", "five.txt", "--genre", "hybrid",
                 "--epochs", "1", "--d", "8", "--H", "8", "--H-dec", "8"])
    assert code == EXIT_FAILURE
    assert "Hybrid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--corpus", "five.txt", "--genre", "5", "--d", "0"],
    ["train", "--corpus", "five.txt", "--genre", "5", "--H", "0"],
    ["train", "--corpus", "five.txt", "--genre", "5", "--H-dec", "0"],
    ["embed", "--corpus", "five.txt", "--d", "8", "--window", "2", "--epochs", "0"],
], ids=" ".join)
def test_non_positive_size_is_one_line_failure(workdir, capsys, argv):
    (workdir / "five.txt").write_text(FIVE + "\n", encoding="utf-8")
    assert main(argv) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("qgen: ") and ">= 1" in err
    assert len(err.splitlines()) == 1
    assert not (workdir / "embeddings.txt").exists()


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


def test_generate_seven_char(workdir, trained, capsys):
    assert main(["generate", "--checkpoint", trained, "--keywords", "月黑",
                 "--genre", "7", "--beam", "1", "--seed", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(len(l) == 7 for l in lines[:4])


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
    (workdir / "poem.txt").write_text(FIVE + "\n", encoding="utf-8")
    assert main(["validate", "--poem", "poem.txt"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["compliant"] and report["best_template"] == "wu_1"


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


@pytest.mark.parametrize("argv", [
    ["validate", "--poem", "poem-gbk.txt"],
    ["bleu", "--hyp", "poem-gbk.txt", "--refs", "refs.txt"],
    ["bleu", "--hyp", "refs.txt", "--refs", "poem-gbk.txt"],
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
    assert info["d"] == 8 and info["chars"] > 0
    assert (workdir / "emb.txt").exists()
    code = main(["train", "--corpus", "c.txt", "--genre", "5", "--epochs", "1",
                 "--d", "8", "--H", "8", "--H-dec", "8",
                 "--pretrained-embeddings", "emb.txt", "--out", "m.ckpt"])
    assert code == EXIT_OK


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


@pytest.mark.parametrize("cfg", [
    {"beam": 2.5}, {"beam": [2]}, {"beam": None}, {"beam": True}, {"seed": "x"},
    {"no_tone": 1}, {"no_tone": None}, {"genre": 5}, {"genre": "6"},
    {"tone_dict": 5},
], ids=json.dumps)
def test_qgen_config_wrong_value_type(workdir, trained, capsys, monkeypatch, cfg):
    (workdir / "defaults.json").write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.setenv("QGEN_CONFIG", str(workdir / "defaults.json"))
    assert main(["generate", "--checkpoint", trained, "--keywords", "月黑雁飞高",
                 "--genre", "5"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("qgen: bad QGEN_CONFIG: ") and next(iter(cfg)) in err
    assert len(err.splitlines()) == 1


def test_qgen_config_bad_file(workdir, monkeypatch):
    cfg = workdir / "defaults.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    monkeypatch.setenv("QGEN_CONFIG", str(cfg))
    assert main(["validate", "--poem", "x"]) == EXIT_USAGE
    cfg.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["validate", "--poem", "x"]) == EXIT_USAGE
