"""Tonal templates, rhyme groups, and the compliance report."""

import logging

import pytest

from conftest import data_path
from qgen.corpus import Genre
from qgen.prosody import (ProsodyError, StructureError, Tone,
                          compliance_report, load_templates, load_tone_dict,
                          match_tonal_template, templates_for,
                          validate_rhyme, validate_structure)

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


@pytest.mark.parametrize("loader", [load_tone_dict, load_templates])
def test_loaders_name_path_of_unreadable_file(tmp_path, loader):
    with pytest.raises(ProsodyError, match="absent.txt"):
        loader(str(tmp_path / "absent.txt"))
    bad = tmp_path / "gbk.txt"
    bad.write_bytes("月\tZ\tie\n".encode("gbk"))
    with pytest.raises(ProsodyError, match="gbk.txt"):
        loader(str(bad))


def test_tone_dict_duplicate_last_wins(tmp_path, caplog):
    p = tmp_path / "dup.tsv"
    p.write_text("月\tZ\tie\n月\tP\tan\n", encoding="utf-8")
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
    best, violations = match_tonal_template(POEM, tone_dict, templates)
    assert best.template_id == "wu_1"
    assert violations == []


def test_match_reports_violations(tone_dict, templates):
    # all-Ping nonsense lines violate every Z slot of the best template
    lines = ["高高高高高"] * 4
    best, violations = match_tonal_template(lines, tone_dict, templates)
    assert violations
    assert all(v[3] == "P" for v in violations)


def test_match_tie_breaks_to_lowest_id(tone_dict):
    from qgen.prosody import TonalTemplate
    ts = [TonalTemplate("b", Genre.FIVE_CHAR, ["*****"] * 4),
          TonalTemplate("a", Genre.FIVE_CHAR, ["*****"] * 4)]
    best, violations = match_tonal_template(POEM, tone_dict, ts)
    assert best.template_id == "a"
    assert violations == []


def test_match_requires_templates(tone_dict):
    with pytest.raises(ProsodyError):
        match_tonal_template(POEM, tone_dict, [])


def test_validate_rhyme(tone_dict):
    ok, info = validate_rhyme(POEM, tone_dict)
    assert ok
    assert info["line2_group"] == info["line4_group"] == "ao"
    bad = POEM[:3] + ["大雪满弓人"]       # 人: group en, breaks the rhyme
    ok, info = validate_rhyme(bad, tone_dict)
    assert not ok and info["reason"] == "mismatch"
    unk = POEM[:3] + ["大雪满弓瞾"]
    ok, info = validate_rhyme(unk, tone_dict)
    assert not ok and info["reason"] == "unknown"
    ok, info = validate_rhyme(POEM, tone_dict, include_line1=True)
    assert info["line1_group"] == "ao" and info["line1_rhymes"]


def test_compliance_report(tone_dict, templates):
    rep = compliance_report(POEM, tone_dict, templates)
    assert rep.compliant
    assert rep.structure_ok and rep.rhyme_ok
    assert rep.best_template == "wu_1"
    assert rep.genre == "FIVE_CHAR"
    assert rep.unknown_chars == []
    d = rep.to_dict()
    assert d["compliant"] is True

    bad = compliance_report(POEM[:3] + ["大雪满弓"], tone_dict, templates)
    assert not bad.structure_ok and not bad.compliant
    assert "line 4" in bad.structure_error

    unk = compliance_report(POEM[:3] + ["大雪满弓瞾"], tone_dict, templates)
    assert unk.unknown_chars == ["瞾"]
    assert not unk.compliant
