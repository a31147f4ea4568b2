"""Corpus parsing, vocabulary, and training sequence construction."""

import codecs
from collections import Counter
from pathlib import Path

import pytest

from conftest import data_path
from qgen.corpus import (BOS, EOS, N_RESERVED, PAD, RESERVED, SEP, UNK, CorpusError,
                         Genre, Poem, Vocab, build_training_sequence, build_vocab,
                         filter_poems, parse_corpus)

FIVE = "月黑雁飞高|单于夜遁逃|欲将轻骑逐|大雪满弓刀"
SEVEN = "朝辞白帝彩云间|千里江陵一日还|两岸猿声啼不住|轻舟已过万重山"


def write_corpus(tmp_path, text):
    path = tmp_path / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_both_genres(tmp_path):
    path = write_corpus(tmp_path, "# comment\n%s\n\n%s\n" % (FIVE, SEVEN))
    report = parse_corpus(path)
    assert len(report.poems) == 2
    assert report.rejected == 0
    assert report.poems[0].genre == Genre.FIVE_CHAR
    assert report.poems[1].genre == Genre.SEVEN_CHAR
    assert report.poems[0].lines[0] == "月黑雁飞高"
    assert len(report.poems[0].chars()) == 20


def test_record_numbers_count_line_feeds_only(tmp_path):
    # str.splitlines would also end a record at U+2028 or a form feed
    text = "\n".join([FIVE, FIVE.replace("|", "\u2028", 1), FIVE.replace("|", "\f", 1),
                      SEVEN]) + "\n"
    report = parse_corpus(write_corpus(tmp_path, text))
    assert report.rejected == 2
    assert [r.split(":")[0] for r in report.reasons] == ["record 2", "record 3"]
    assert [p.source_id for p in report.poems] == ["1", "4"]


def test_parse_rejects_malformed_records(tmp_path):
    bad = ["一二三四五|六七八九十|短行|千里江陵一日还",   # mixed lengths
           "一二三四五|六七八九十",                        # 2 lines
           "月黑 飞高|单于夜遁逃|欲将轻骑逐|大雪满弓刀",     # inner space
           FIVE]
    report = parse_corpus(write_corpus(tmp_path, "\n".join(bad)))
    assert len(report.poems) == 1
    assert report.rejected == 3
    assert all("record" in r for r in report.reasons)
    assert report.reasons[2] == "record 3: line 1 has whitespace"


def test_parse_ignores_byte_order_mark(tmp_path):
    """A leading BOM, as Windows editors write one, hides neither a first
    comment nor a first poem; CRLF line ends, as they also write, read as LF."""
    copy = tmp_path / "copy.txt"
    for text in [Path(data_path("overfit_corpus.txt")).read_text(encoding="utf-8"),
                 "%s\n%s\n" % (FIVE, SEVEN)]:
        want = parse_corpus(write_corpus(tmp_path, text))
        for data in [codecs.BOM_UTF8 + text.encode("utf-8"),
                     text.replace("\n", "\r\n").encode("utf-8")]:
            copy.write_bytes(data)
            report = parse_corpus(str(copy))
            assert report == want
            assert report.rejected == 0 and report.poems


def test_parse_genre_filter(tmp_path):
    path = write_corpus(tmp_path, FIVE + "\n" + SEVEN + "\n")
    report = parse_corpus(path, genre_filter=Genre.SEVEN_CHAR)
    assert [p.genre for p in report.poems] == [Genre.SEVEN_CHAR]
    assert report.rejected == 0


def test_parse_missing_file():
    with pytest.raises(CorpusError):
        parse_corpus("/nonexistent/corpus.txt")


@pytest.mark.parametrize("data, named", [
    (FIVE.encode("gbk"), []),
    ("月黑雁飞高\n白日".encode("utf-8") + b"\xff" + "山尽".encode("utf-8"),
     ["line 2", "column 3"]),
], ids=["gbk", "bad byte in line 2"])
def test_parse_non_utf8_names_path(tmp_path, data, named):
    """The error names the file and, for a byte after valid text, its line
    and its character column in that line."""
    path = tmp_path / "corpus.txt"
    path.write_bytes(data)
    with pytest.raises(CorpusError, match="corpus.txt") as info:
        parse_corpus(str(path))
    for part in named:
        assert part in str(info.value)


def test_reserved_ids_are_fixed():
    assert (PAD, BOS, EOS, SEP, UNK) == (0, 1, 2, 3, 4)
    assert N_RESERVED == 5


def test_vocab_first_occurrence_order(tmp_path):
    report = parse_corpus(write_corpus(tmp_path, FIVE))
    vocab = build_vocab(report.poems)
    assert vocab.id("月") == N_RESERVED
    assert vocab.id("黑") == N_RESERVED + 1
    assert vocab.char(N_RESERVED) == "月"
    assert vocab.id("不存在") == UNK
    # rebuilding gives the identical map
    vocab2 = build_vocab(report.poems)
    assert vocab.char_to_id == vocab2.char_to_id


def test_vocab_min_count(tmp_path):
    report = parse_corpus(write_corpus(tmp_path, FIVE + "\n" + SEVEN))
    vocab = build_vocab(report.poems, min_count=2)
    # only repeated characters survive
    assert vocab.id("大") == UNK
    assert vocab.id("轻") == N_RESERVED
    counts = Counter(c for p in report.poems for c in p.chars())
    for c, n in counts.items():
        if n >= 2:
            assert vocab.id(c) >= N_RESERVED
        else:
            assert vocab.id(c) == UNK


def test_vocab_from_chars_puts_reserved_tokens_first():
    chars = list("月黑雁飞高")
    vocab = Vocab(chars)
    assert len(vocab) == N_RESERVED + len(chars)
    assert [vocab.id(t) for t in RESERVED] == list(range(N_RESERVED))
    assert [vocab.char(i) for i in range(N_RESERVED)] == list(RESERVED)
    assert [vocab.id(c) for c in chars] == list(range(N_RESERVED, len(vocab)))
    assert all(vocab.char(vocab.id(c)) == c for c in [*RESERVED, *chars])
    assert len(Vocab()) == N_RESERVED


def test_vocab_min_count_validation():
    with pytest.raises(ValueError):
        build_vocab([], min_count=0)


def test_filter_poems_thresholds(tmp_path):
    report = parse_corpus(write_corpus(tmp_path, FIVE + "\n" + SEVEN))
    five, seven = report.poems
    # the 7-char poem shares one character with the 5-char one (27/28
    # unknown): one in-vocabulary character keeps it
    kept, removed = filter_poems(report.poems, build_vocab([five]))
    assert removed == 0 and len(kept) == 2
    # a vocabulary without that character leaves it none: it is dropped
    shared = set(five.chars()) & set(seven.chars())
    rest = Poem(Genre.FIVE_CHAR, ["".join(c for c in five.chars() if c not in shared)])
    kept, removed = filter_poems(report.poems, build_vocab([rest]))
    assert removed == 1
    assert kept == [five]


def test_training_sequence_with_echo(tmp_path):
    report = parse_corpus(write_corpus(tmp_path, FIVE + "\n" + SEVEN))
    vocab = build_vocab(report.poems)
    ex5 = build_training_sequence(report.poems[0], vocab, echo=True)
    ex7 = build_training_sequence(report.poems[1], vocab, echo=True)
    assert len(ex5.input_ids) == 5 and len(ex7.input_ids) == 7
    assert len(ex5.target_ids) == 30
    assert len(ex7.target_ids) == 40
    assert ex5.target_ids[-1] == EOS
    assert ex5.target_ids.count(SEP) == 4
    # echo: the last line before EOS repeats line 1
    assert ex5.target_ids[-6:-1] == ex5.input_ids
    assert ex5.target_ids[:5] == ex5.input_ids


def test_training_sequence_without_echo(tmp_path):
    report = parse_corpus(write_corpus(tmp_path, FIVE))
    vocab = build_vocab(report.poems)
    ex = build_training_sequence(report.poems[0], vocab, echo=False)
    assert len(ex.target_ids) == 24     # 4*5 chars + 3 SEP + EOS
    assert ex.target_ids.count(SEP) == 3

