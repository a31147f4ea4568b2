"""Tonal templates, rhyme groups, and the compliance report."""

import codecs
import json
import logging
from dataclasses import asdict
from pathlib import Path

import pytest

from conftest import data_path
from qgen.corpus import Genre, read_lines
from qgen import prosody
from qgen.prosody import (ProsodyError, StructureError, TonalTemplate, Tone, ToneDict,
                          compliance_report, load_templates, load_tone_dict,
                          templates_for, validate_structure)

POEM = ["月黑雁飞高", "单于夜遁逃", "欲将轻骑逐", "大雪满弓刀"]


@pytest.fixture(scope="module")
def tone_dict():
    return load_tone_dict(data_path("tone_dict.tsv"))


@pytest.fixture(scope="module")
def templates():
    return load_templates(data_path("templates.txt"))


def test_tone_dict_loads(tone_dict):
    assert len(tone_dict) > 400
    assert tone_dict.tone("月") == Tone.ZE
    assert tone_dict.tone("高") == Tone.PING
    assert tone_dict.tone("瞾") == Tone.UNKNOWN
    assert tone_dict.rhyme_group("高") == tone_dict.rhyme_group("刀") == "ao"
    assert tone_dict.rhyme_group("瞾") is None


def test_tone_dict_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("月\tX\tie\n", encoding="utf-8")
    with pytest.raises(ProsodyError):
        load_tone_dict(str(bad))


@pytest.mark.parametrize("char", [" ", "\u3000", "\u00a0"], ids=repr)
def test_tone_dict_rejects_whitespace_character(tmp_path, char):
    bad = tmp_path / "space.tsv"
    bad.write_text("月\tZ\tie\n%s\tP\tao\n" % char, encoding="utf-8")
    with pytest.raises(ProsodyError, match="space.tsv:2"):
        load_tone_dict(str(bad))


@pytest.mark.parametrize("group", ["", " ", "a b", "ao\u3000"], ids=repr)
def test_tone_dict_rejects_blank_group(tmp_path, group):
    """A group that is empty or holds whitespace would be a known group."""
    bad = tmp_path / "blank.tsv"
    bad.write_text("月\tZ\tie\n黑\tZ\t%s\n" % group, encoding="utf-8")
    with pytest.raises(ProsodyError, match="blank.tsv:2"):
        load_tone_dict(str(bad))


@pytest.mark.parametrize("loader", [load_tone_dict, load_templates])
def test_loaders_name_path_of_unreadable_file(tmp_path, loader):
    with pytest.raises(ProsodyError, match="absent.txt"):
        loader(str(tmp_path / "absent.txt"))
    bad = tmp_path / "gbk.txt"
    bad.write_bytes("月\tZ\tie\n".encode("gbk"))
    with pytest.raises(ProsodyError, match="gbk.txt"):
        loader(str(bad))


@pytest.mark.parametrize("name", ["tone_dict.tsv", "templates.txt"])
def test_loaders_ignore_byte_order_mark(tmp_path, name):
    """A BOM-prefixed copy of a packaged file, and a copy with CRLF line ends,
    read as the file itself, through a path and through a Traversable such as
    a packaged file is."""
    data = Path(data_path(name)).read_bytes()
    plain = read_lines(data_path(name), ProsodyError)
    for copy in [codecs.BOM_UTF8 + data, data.replace(b"\n", b"\r\n")]:
        path = tmp_path / name
        path.write_bytes(copy)
        assert read_lines(str(path), ProsodyError) == read_lines(path, ProsodyError) == plain
        if name == "tone_dict.tsv":
            loaded, want = load_tone_dict(str(path)), load_tone_dict(data_path(name))
            assert (loaded.tones, loaded.groups) == (want.tones, want.groups)
        else:
            assert load_templates(str(path)) == load_templates(data_path(name))


def test_tone_dict_duplicate_last_wins(tmp_path, caplog):
    p = tmp_path / "dup.tsv"
    p.write_text("  # an indented comment\n月\tZ\tie\n月\tP\tan\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        td = load_tone_dict(str(p))
    assert "duplicate" in caplog.text
    assert td.tone("月") == Tone.PING
    assert td.rhyme_group("月") == "an"


def test_templates_load(templates):
    assert len(templates) == 8
    assert len(templates_for(templates, Genre.FIVE_CHAR)) == 4
    assert len(templates_for(templates, Genre.SEVEN_CHAR)) == 4
    wu1 = [t for t in templates if t.template_id == "wu_1"][0]
    assert wu1.slot(0, 0) == "*"
    assert wu1.slot(1, 4) == "P"
    # every shipped template keeps the rhyme slots (line 2/4 finals) level tone
    for t in templates:
        assert t.lines[1][-1] == "P"
        assert t.lines[3][-1] == "P"


def test_templates_reject_bad_blocks(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# x\nPPZZP\nPPZZP\n\n", encoding="utf-8")
    with pytest.raises(ProsodyError):
        load_templates(str(p))
    p.write_text("# x\nPPQZP\nPPZZP\nPPZZP\nPPZZP\n", encoding="utf-8")
    with pytest.raises(ProsodyError):
        load_templates(str(p))


def test_validate_structure():
    assert validate_structure(POEM) == Genre.FIVE_CHAR
    assert validate_structure(["一" * 7] * 4) == Genre.SEVEN_CHAR
    with pytest.raises(StructureError):
        validate_structure(POEM[:3])
    with pytest.raises(StructureError):
        validate_structure(POEM[:3] + ["大雪满弓"])
    with pytest.raises(StructureError):
        validate_structure(["一" * 5] * 2 + ["一" * 7] * 2)
    with pytest.raises(StructureError, match="line 3 has whitespace"):
        validate_structure(POEM[:2] + ["欲将\u3000骑逐", POEM[3]])


def test_fixture_poem_matches_wu1_cleanly(tone_dict, templates):
    rep = compliance_report(POEM, tone_dict, templates)
    assert rep.best_template == "wu_1"
    assert rep.tone_violations == []


def test_match_reports_violations(tone_dict, templates):
    # all-Ping nonsense lines violate every Z slot of the best template
    lines = ["高高高高高"] * 4
    violations = compliance_report(lines, tone_dict, templates).tone_violations
    assert violations
    assert all(v[3] == "P" for v in violations)


TIED = [TonalTemplate("b", Genre.FIVE_CHAR, ["*****"] * 4),
        TonalTemplate("a", Genre.FIVE_CHAR, ["*****"] * 4)]


def test_match_tie_breaks_to_lowest_id(tone_dict):
    rep = compliance_report(POEM, tone_dict, TIED)
    assert rep.best_template == "a"
    assert rep.tone_violations == []


def test_match_requires_templates(tone_dict):
    with pytest.raises(ProsodyError):
        compliance_report(POEM, tone_dict, [])


def test_validate_rhyme(tone_dict, templates):
    rep = compliance_report(POEM, tone_dict, templates)
    assert rep.rhyme_ok
    assert rep.rhyme_info["line2_group"] == rep.rhyme_info["line4_group"] == "ao"
    bad = POEM[:3] + ["大雪满弓人"]       # 人: group en, breaks the rhyme
    rep = compliance_report(bad, tone_dict, templates)
    assert not rep.rhyme_ok and rep.rhyme_info["reason"] == "mismatch"
    unk = POEM[:3] + ["大雪满弓瞾"]
    rep = compliance_report(unk, tone_dict, templates)
    assert not rep.rhyme_ok and rep.rhyme_info["reason"] == "unknown"
    rep = compliance_report(POEM, tone_dict, templates, include_line1=True)
    assert rep.rhyme_info["line1_group"] == "ao" and rep.rhyme_info["line1_rhymes"]


def test_compliance_report(tone_dict, templates):
    rep = compliance_report(POEM, tone_dict, templates)
    assert rep.compliant
    assert rep.structure_ok and rep.rhyme_ok
    assert rep.best_template == "wu_1"
    assert rep.genre == "FIVE_CHAR"
    assert rep.unknown_chars == []
    assert asdict(rep)["compliant"] is True

    bad = compliance_report(POEM[:3] + ["大雪满弓"], tone_dict, templates)
    assert not bad.structure_ok and not bad.compliant
    assert "line 4" in bad.structure_error

    unk = compliance_report(POEM[:3] + ["大雪满弓瞾"], tone_dict, templates)
    assert unk.unknown_chars == ["瞾"]
    assert not unk.compliant


def oracle_report(lines, td, templates, include_line1=False):
    """The report as a dict, character by character and slot by slot, from
    `ToneDict.tone` and `ToneDict.rhyme_group` alone."""
    try:
        genre = validate_structure(lines)
    except StructureError as e:
        return {"structure_ok": False, "genre": None, "structure_error": str(e),
                "best_template": None, "tone_violations": [], "rhyme_ok": None,
                "rhyme_info": {}, "unknown_chars": [], "compliant": False}
    best, best_bad = None, None
    for t in sorted(templates_for(templates, genre), key=lambda t: t.template_id):
        bad = []
        for li, (slots, line) in enumerate(zip(t.lines, lines)):
            for pi, (slot, c) in enumerate(zip(slots, line)):
                tone = td.tone(c)
                if slot != "*" and tone is not Tone.UNKNOWN and tone.value != slot:
                    bad.append((li, pi, slot, tone.value))
        if best is None or len(bad) < len(best_bad):      # most slots satisfied
            best, best_bad = t, bad
    g1, g2, g4 = (td.rhyme_group(lines[i][-1]) for i in (0, 1, 3))
    info = {"line2_group": g2, "line4_group": g4}
    if g2 is None or g4 is None:
        info["reason"] = "unknown"
    elif g2 != g4:
        info["reason"] = "mismatch"
    if include_line1:
        info["line1_group"] = g1
        info["line1_rhymes"] = g1 is not None and g1 == g2
    unknown = sorted({c for line in lines for c in line if td.tone(c) is Tone.UNKNOWN})
    rhyme_ok = "reason" not in info
    return {"structure_ok": True, "genre": genre.name, "structure_error": None,
            "best_template": best.template_id, "tone_violations": best_bad,
            "rhyme_ok": rhyme_ok, "rhyme_info": info, "unknown_chars": unknown,
            "compliant": not best_bad and rhyme_ok}


def assert_report_matches_oracle(lines, td, templates):
    """The report's JSON equals the oracle's byte for byte, with and without
    line 1's rhyme, and every violation is a tuple of Python ints and strs."""
    for include_line1 in (False, True):
        rep = compliance_report(lines, td, templates, include_line1=include_line1)
        want = oracle_report(lines, td, templates, include_line1=include_line1)
        got = asdict(rep)
        assert json.dumps(got, ensure_ascii=False) == json.dumps(want, ensure_ascii=False)
        assert got == want
        assert all(tuple(map(type, v)) == (int, int, str, str) for v in rep.tone_violations)
        assert type(rep.rhyme_ok) is (bool if rep.structure_ok else type(None))


def test_report_matches_oracle_on_fixture_poems(tone_dict, templates):
    poems = [POEM, ["高高高高高"] * 4, POEM[:3] + ["大雪满弓人"], POEM[:3] + ["大雪满弓瞾"],
             POEM[:3] + ["大雪满弓"], ["瞾" * 5] * 4, ["朝辞白帝彩云间", "千里江陵一日还",
                                                  "两岸猿声啼不住", "轻舟已过万重山"]]
    for lines in poems:
        assert_report_matches_oracle(lines, tone_dict, templates)
    assert_report_matches_oracle(POEM, tone_dict, TIED)


def test_report_matches_oracle_on_drawn_quatrains(tone_dict, templates):
    """Quatrains of both genres drawn from the dictionary and two characters
    it lacks, some with a short line, against the packaged templates and
    drawn ones whose ids often tie."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    chars = sorted(tone_dict.tones) + ["瞾", "龘"]

    @st.composite
    def cases(draw):
        L = draw(st.sampled_from([5, 7]))
        genre = Genre.FIVE_CHAR if L == 5 else Genre.SEVEN_CHAR
        line = st.text(st.sampled_from(chars), min_size=L, max_size=L)
        lines = draw(st.lists(line, min_size=4, max_size=4))
        short = draw(st.sampled_from([None] * 19 + [0, 1, 2, 3]))
        if short is not None:
            lines[short] = lines[short][:-1]
        slots = st.text(st.sampled_from("PZ*"), min_size=L, max_size=L)
        drawn = draw(st.lists(st.builds(TonalTemplate, st.sampled_from("xyz"), st.just(genre),
                                        st.lists(slots, min_size=4, max_size=4)),
                              max_size=3))
        return lines, templates + drawn

    @hyp.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hyp.given(cases())
    def check(case):
        lines, tmpls = case
        assert_report_matches_oracle(lines, tone_dict, tmpls)

    check()


def test_report_checks_shape_once_and_looks_characters_up_once(monkeypatch, tone_dict,
                                                               templates):
    calls = {"quatrain_genre": 0, "tables": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(prosody, "quatrain_genre", counted("quatrain_genre",
                                                           prosody.quatrain_genre))
    monkeypatch.setattr(ToneDict, "tables", counted("tables", ToneDict.tables))
    for include_line1 in (False, True):
        calls.update(quatrain_genre=0, tables=0)
        assert compliance_report(POEM, tone_dict, templates, include_line1=include_line1).compliant
        assert calls == {"quatrain_genre": 1, "tables": 1}
    calls.update(quatrain_genre=0, tables=0)
    assert not compliance_report(POEM[:3], tone_dict, templates).structure_ok
    assert calls == {"quatrain_genre": 1, "tables": 0}
