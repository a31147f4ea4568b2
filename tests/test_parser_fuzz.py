"""Property test of the text parsers on arbitrary input.

Random bytes, random text, or text built from the symbols a format gives
meaning to, read by the corpus, tone-dictionary or template parser, either
parse or raise that module's typed error; every poem or template returned
has the quatrain shape, no poem holds whitespace or `|`, and every tone row
has a single character and a tone.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qgen.corpus import CorpusError, parse_corpus, quatrain_genre  # noqa: E402
from qgen.prosody import (ProsodyError, Tone, load_templates,  # noqa: E402
                          load_tone_dict)


def quatrain(symbols, noise):
    """Four lines of 5 or 7 `symbols`, any of them replaced by `noise`."""
    def lines(n):
        return st.lists(st.text(alphabet=symbols, min_size=n, max_size=n) | noise,
                        min_size=4, max_size=4)
    return st.sampled_from([5, 7]).flatmap(lines)


def lines_of(line, sep="\n"):
    return st.lists(line, max_size=6).map(sep.join)


corpus_text = lines_of(quatrain("月黑雁飞高", st.text(alphabet="月 　\t|#", max_size=8))
                       .map("|".join))
tone_text = lines_of(st.tuples(st.sampled_from(["月", "黑", " ", "#", "", "月黑"]),
                               st.sampled_from(["P", "Z", "X", ""]),
                               st.text(alphabet="a \t", max_size=2)).map("\t".join)
                     | st.text(alphabet="月#\tPZ ", max_size=5))
template_text = lines_of(st.tuples(st.sampled_from(["# a", "#", "", "a"]),
                                   quatrain("PZ*", st.text(alphabet="PZ*Q ", max_size=8)))
                         .map(lambda block: "\n".join([block[0], *block[1]])), sep="\n\n")


def payloads(near_valid):
    return st.one_of(st.binary(max_size=200),
                     st.text(max_size=200).map(str.encode),
                     near_valid.map(str.encode))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def check_corpus(path):
    try:
        report = parse_corpus(str(path))
    except CorpusError:
        return
    for poem in report.poems:
        assert quatrain_genre(poem.lines) == (poem.genre, None)
        assert not any(c.isspace() or c == "|" for c in poem.chars())


def check_tone_dict(path):
    try:
        td = load_tone_dict(str(path))
    except ProsodyError:
        return
    assert all(len(c) == 1 for c in td.tones)
    assert set(td.tones.values()) <= {Tone.PING, Tone.ZE}


def check_templates(path):
    try:
        templates = load_templates(str(path))
    except ProsodyError:
        return
    for t in templates:
        assert quatrain_genre(t.lines) == (t.genre, None)
        assert not set("".join(t.lines)) - set("PZ*")


@pytest.mark.parametrize("near_valid, check", [
    (corpus_text, check_corpus),
    (tone_text, check_tone_dict),
    (template_text, check_templates),
], ids=["corpus", "tone dict", "templates"])
def test_parser_returns_well_formed_or_raises_typed(path, near_valid, check):
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(payloads(near_valid))
    def run(data):
        path.write_bytes(data)
        check(path)
    run()
