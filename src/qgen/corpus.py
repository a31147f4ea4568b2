"""Corpus ingestion: poem parsing, character vocabulary, training sequences.

Corpus file format: one poem per line, lines separated by `|`, lines
starting with `#` are comments. A quatrain has exactly 4 lines of 5
characters (FiveChar) or 7 characters (SevenChar), none of them whitespace;
genre is inferred. `read_lines` reads every text input of the package.
"""

import codecs
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum


class Genre(Enum):
    FIVE_CHAR = 5
    SEVEN_CHAR = 7


# reserved vocabulary slots
PAD, BOS, EOS, SEP, UNK = 0, 1, 2, 3, 4
RESERVED = {"<pad>": PAD, "<bos>": BOS, "<eos>": EOS, "<sep>": SEP, "<unk>": UNK}
N_RESERVED = len(RESERVED)


@dataclass
class Poem:
    genre: Genre
    lines: list          # 4 strings of genre length
    source_id: str = ""

    def chars(self):
        return [c for line in self.lines for c in line]


@dataclass
class ParseReport:
    poems: list
    rejected: int = 0
    reasons: list = field(default_factory=list)


class CorpusError(Exception):
    pass


def read_lines(path, error):
    """The lines of a UTF-8 file or packaged Traversable (also inside a zip), a
    leading byte-order mark dropped, split at LF, CRLF or a lone CR as text mode
    splits them (never at U+2028 or a form feed). Raises `error` naming the path
    of a file that cannot be read, or the path, line and column of a non-UTF-8 byte."""
    try:
        if hasattr(path, "read_bytes"):
            data = path.read_bytes()
        else:
            with open(path, "rb") as f:
                data = f.read()
    except OSError as e:
        raise error("cannot read %s: %s" % (path, e)) from e
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start + 1].splitlines()      # bytes split at LF, CRLF and CR only
        column = len(head[-1][:-1].decode("utf-8")) + 1     # the line is UTF-8 up to its bad byte
        bad = "byte 0x%02x" % data[e.start] if e.end - e.start == 1 else "bytes"
        raise error("%s line %d: '%s' codec can't decode %s at column %d: %s"
                    % (path, len(head), e.encoding, bad, column, e.reason)) from e
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def content_lines(path, error):
    """(line number, line) of each line of `read_lines(path, error)`, blank
    lines and comments (first non-blank character `#`) left out."""
    return [(n, line) for n, line in enumerate(read_lines(path, error), start=1)
            if line.strip()[:1] not in ("", "#")]


def quatrain_genre(lines):
    """The genre of a quatrain: 4 lines, all of 5 or all of 7 characters,
    none of them whitespace.

    Returns (genre, None), or (None, reason) for any other shape.
    """
    if len(lines) != 4:
        return None, "expected 4 lines, got %d" % len(lines)
    for i, l in enumerate(lines):
        if any(map(str.isspace, l)):
            return None, "line %d has whitespace" % (i + 1)
    bad = ["line %d has %d chars" % (i + 1, len(l))
           for i, l in enumerate(lines) if len(l) not in (5, 7)]
    if bad:
        return None, "lines with bad length: " + ", ".join(bad)
    lengths = sorted({len(l) for l in lines})
    if len(lengths) > 1:
        return None, "mixed line lengths %s" % lengths
    return Genre(lengths[0]), None


def parse_corpus(path, genre_filter=None):
    """Parse a corpus file. Malformed records are skipped and counted.

    Returns a ParseReport; poems keep 1-based record numbers as source ids.
    Records are the lines of `read_lines`: unlike `str.splitlines`, a U+2028
    or a form feed inside a record does not start another.
    """
    report = ParseReport(poems=[])
    for lineno, record in content_lines(path, CorpusError):
        lines = [seg.strip() for seg in record.split("|")]
        genre, reason = quatrain_genre(lines)
        if genre is None:
            report.rejected += 1
            report.reasons.append("record %d: %s" % (lineno, reason))
            continue
        if genre_filter is not None and genre != genre_filter:
            continue
        report.poems.append(Poem(genre=genre, lines=lines, source_id=str(lineno)))
    return report


class Vocab:
    """The characters in id order, reserved tokens first, and their char -> id map."""

    def __init__(self, chars=()):
        self.chars = [*RESERVED, *chars]
        self.char_to_id = {c: i for i, c in enumerate(self.chars)}

    def __len__(self):
        return len(self.chars)

    def id(self, char):
        return self.char_to_id.get(char, UNK)

    def char(self, idx):
        return self.chars[idx]

    def encode(self, text):
        return [self.id(c) for c in text]


def build_vocab(poems, min_count=1):
    """Count characters over poems; chars below min_count fall back to UNK.

    Deterministic: ids are assigned in first-occurrence order.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(c for poem in poems for c in poem.chars())
    return Vocab(c for c, n in counts.items() if n >= min_count)


def filter_poems(poems, vocab):
    """Drop poems with no in-vocabulary character.

    Returns (kept, removed_count).
    """
    kept = [p for p in poems if any(vocab.id(c) != UNK for c in p.chars())]
    return kept, len(poems) - len(kept)


@dataclass
class TrainingExample:
    input_ids: list
    target_ids: list
    genre: Genre
    source_id: str = ""


def build_training_sequence(poem, vocab, echo=True):
    """Turn a poem into a teacher-forcing example.

    Input is the first line. The target walks the lines 1-2-3-4 and, when
    `echo` is on, repeats line 1 at the end; lines are joined with SEP and the
    target finishes with EOS. Lengths: 5-char -> 30, 7-char -> 40 (echo on).
    """
    input_ids = vocab.encode(poem.lines[0])
    seq = list(poem.lines)
    if echo:
        seq.append(poem.lines[0])
    target = []
    for i, line in enumerate(seq):
        if i > 0:
            target.append(SEP)
        target.extend(vocab.encode(line))
    target.append(EOS)
    return TrainingExample(input_ids=input_ids, target_ids=target,
                           genre=poem.genre, source_id=poem.source_id)
