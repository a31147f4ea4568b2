"""Property test of the QGEN_CONFIG defaults file.

A JSON object whose keys are the parsers' dests, or any other JSON value,
read through QGEN_CONFIG before `qgen validate` runs: every run ends in a
documented exit code with no traceback, and a failure prints one `qgen:`
line.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qgen.cli import (EXIT_FAILURE, EXIT_INVALID, EXIT_OK, EXIT_USAGE,  # noqa: E402
                      build_parser, main)

FIVE = "月黑雁飞高|单于夜遁逃|欲将轻骑逐|大雪满弓刀"

_ap, _sub = build_parser()
DESTS = sorted({a.dest for p in [_ap, *_sub.choices.values()] for a in p._actions})

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["5", "7", "hybrid", "validate", "1", "-1", "0.5", "poem.txt", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                                inner, max_size=3),
    max_leaves=6)
documents = st.dictionaries(st.sampled_from(DESTS), json_values, max_size=4) | json_values


def test_qgen_config_ends_in_documented_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poem.txt").write_text(FIVE + "\n", encoding="utf-8")
    config = tmp_path / "defaults.json"
    monkeypatch.setenv("QGEN_CONFIG", str(config))

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(documents)
    def run(doc):
        config.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["--manifest", str(tmp_path / "m.json"), "validate", "--poem", "poem.txt"])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_INVALID)
        assert "Traceback" not in err
        if code == EXIT_FAILURE or (code == EXIT_USAGE and "bad QGEN_CONFIG" in err):
            assert len(err.splitlines()) == 1 and err.startswith("qgen: ")
    run()
