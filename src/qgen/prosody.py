"""Quatrain regulations: structure, Ping/Ze tonal templates, rhyme groups.

Tone dictionary TSV: `char <TAB> P|Z <TAB> rhyme_group` per row, the group
non-empty and free of whitespace. Template file: blocks of four lines over
P/Z/*, one block per template, preceded by a `# id` line; blank lines
separate blocks. Characters missing from the dictionary have Unknown tone
and satisfy any slot -- generation must not be blocked by dictionary gaps,
and the compliance report lists them. Both files are read by
`corpus.read_lines`.
"""

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .corpus import Genre, content_lines, quatrain_genre, read_lines

log = logging.getLogger(__name__)


class Tone(Enum):
    PING = "P"
    ZE = "Z"
    UNKNOWN = "?"


class ProsodyError(Exception):
    pass


class StructureError(ProsodyError):
    pass


class ToneDict:
    """char -> tone and char -> rhyme group, Unknown for anything absent."""

    def __init__(self):
        self.tones = {}
        self.groups = {}

    def tone(self, char):
        return self.tones.get(char, Tone.UNKNOWN)

    def rhyme_group(self, char):
        return self.groups.get(char)

    def tables(self, chars):
        """Tone codes ('P'/'Z'/'?') and rhyme groups (None where unknown) of
        `chars`, as two arrays indexed like `chars`."""
        tones = np.array([self.tone(c).value for c in chars])
        groups = np.array([self.rhyme_group(c) for c in chars], dtype=object)
        return tones, groups

    def __len__(self):
        return len(self.tones)


def load_tone_dict(path):
    td = ToneDict()
    for lineno, line in content_lines(path, ProsodyError):
        parts = line.split("\t")
        if (len(parts) != 3 or len(parts[0]) != 1 or parts[0].isspace()
                or parts[1] not in ("P", "Z") or parts[2].split() != [parts[2]]):
            raise ProsodyError("malformed tone row at %s:%d: %r" % (path, lineno, line))
        char, tone, group = parts
        if char in td.tones:
            log.warning("duplicate tone entry for %r at line %d; last row wins",
                        char, lineno)
        td.tones[char] = Tone(tone)
        td.groups[char] = group
    return td


@dataclass
class TonalTemplate:
    template_id: str
    genre: Genre
    lines: list           # 4 strings over P/Z/*

    def slot(self, line_idx, pos):
        return self.lines[line_idx][pos]


def load_templates(path):
    templates, block_id, block = [], None, []
    for line in map(str.strip, read_lines(path, ProsodyError) + [""]):   # "" ends the last block
        if line.startswith("#"):
            block_id = line.lstrip("#").strip()
        elif line:
            if set(line) - set("PZ*"):
                raise ProsodyError("bad template symbols in %r" % line)
            block.append(line)
        elif block:
            genre, reason = quatrain_genre(block)
            if genre is None:
                raise ProsodyError("template %r: %s" % (block_id, reason))
            templates.append(TonalTemplate(block_id or "t%d" % len(templates), genre, block))
            block_id, block = None, []
    return templates


def templates_for(templates, genre):
    return [t for t in templates if t.genre == genre]


def validate_structure(lines):
    """Return the genre of 4 x 5 or 4 x 7 character lines, else raise."""
    genre, reason = quatrain_genre(lines)
    if genre is None:
        raise StructureError(reason)
    return genre


def slot_allows(slot, tone):
    """Whether a template slot (P/Z/*) admits a tone code (P/Z/?).

    `tone` may be one code or an array of codes; Unknown fits any slot.
    """
    return (slot == "*") | (tone == "?") | (tone == slot)


def match_tonal_template(lines, tone_dict, templates):
    """Best template for the poem and its violation list.

    Each template is scored by the number of satisfied known-tone slots;
    Unknown-tone characters satisfy any slot. Ties break to the lowest
    template id. Violations are (line_idx, pos, expected_slot, found_tone).
    """
    genre = validate_structure(lines)
    cands = templates_for(templates, genre)
    if not cands:
        raise ProsodyError("no templates for genre %s" % genre.name)
    tones = tone_dict.tables("".join(lines))[0].reshape(4, -1)
    best, best_score = None, -1
    for t in sorted(cands, key=lambda t: t.template_id):
        ok = slot_allows(np.array([list(l) for l in t.lines]), tones)
        if ok.sum() > best_score:
            best_score = ok.sum()
            best = (t, [(li, pi, t.slot(li, pi), str(tones[li, pi]))
                        for li, pi in np.argwhere(~ok).tolist()])
    return best


def validate_rhyme(lines, tone_dict, include_line1=False):
    """Lines 2 and 4 must end in the same known rhyme group.

    Returns (rhyme_ok, info); info records the groups found and, optionally,
    whether line 1's last character also rhymes.
    """
    validate_structure(lines)
    g2 = tone_dict.rhyme_group(lines[1][-1])
    g4 = tone_dict.rhyme_group(lines[3][-1])
    info = {"line2_group": g2, "line4_group": g4}
    if g2 is None or g4 is None:
        info["reason"] = "unknown"
        ok = False
    else:
        ok = g2 == g4
        if not ok:
            info["reason"] = "mismatch"
    if include_line1:
        g1 = tone_dict.rhyme_group(lines[0][-1])
        info["line1_group"] = g1
        info["line1_rhymes"] = g1 is not None and g1 == g2
    return ok, info


@dataclass
class ComplianceReport:
    structure_ok: bool
    genre: str = None
    structure_error: str = None
    best_template: str = None
    tone_violations: list = field(default_factory=list)
    rhyme_ok: bool = None
    rhyme_info: dict = field(default_factory=dict)
    unknown_chars: list = field(default_factory=list)
    compliant: bool = field(init=False)

    def __post_init__(self):
        self.compliant = self.structure_ok and not self.tone_violations and bool(self.rhyme_ok)


def compliance_report(lines, tone_dict, templates, include_line1=False):
    """Full check of one poem: structure, then tones and rhyme."""
    try:
        genre = validate_structure(lines)
    except StructureError as e:
        return ComplianceReport(structure_ok=False, structure_error=str(e))
    best, violations = match_tonal_template(lines, tone_dict, templates)
    rhyme_ok, rhyme_info = validate_rhyme(lines, tone_dict, include_line1=include_line1)
    chars = "".join(lines)
    tones = tone_dict.tables(chars)[0]
    unknown = sorted({c for c, tone in zip(chars, tones) if tone == Tone.UNKNOWN.value})
    return ComplianceReport(structure_ok=True, genre=genre.name,
                            best_template=best.template_id,
                            tone_violations=violations,
                            rhyme_ok=rhyme_ok, rhyme_info=rhyme_info,
                            unknown_chars=unknown)
