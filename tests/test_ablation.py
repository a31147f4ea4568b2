"""The ablation table: which techniques each row turns on, and which entries
a split with a missing genre leaves empty."""

import pytest

from conftest import data_path
from qgen import ablation
from qgen.corpus import Genre, parse_corpus
from qgen.training import GenreMode

ROW_NAMES = ["basic", "+char vector init", "+input reconstruction",
             "+input vector attention", "+hybrid training"]


@pytest.fixture(scope="module")
def by_genre():
    poems = parse_corpus(data_path("sample_corpus.txt")).poems
    return {g: [p for p in poems if p.genre == g][:6] for g in Genre}


def test_one_genre_corpus_leaves_the_other_genre_and_the_hybrid_row_empty(by_genre):
    five = by_genre[Genre.FIVE_CHAR]
    rows = ablation.run_ablation(five, five[:2], d=4, H=4, H_dec=4, epochs=1)["rows"]
    assert [r["model"] for r in rows] == ROW_NAMES
    assert all(r["bleu_7"] is None for r in rows)
    assert all(isinstance(r["bleu_5"], float) for r in rows[:4])
    assert rows[4]["bleu_5"] is None


def test_each_row_adds_the_next_technique(by_genre, monkeypatch):
    trainings, skipgrams, scored = [], [], []

    def train(examples, mparams, config):
        e = examples[0]
        echo = len(e.target_ids) == 5 * (len(e.input_ids) + 1)   # 5 lines, 4 SEP and EOS
        trainings.append((config.genre_mode, echo, mparams.cfg.use_input_attention))

    def train_skipgram(stream, **kwargs):
        skipgrams.append(len(stream))
        return real_skipgram(stream, **kwargs)

    def score(mparams, vocab, held_out, index, seed=0):
        scored.append(held_out[0].genre)
        return 0.0

    real_skipgram = ablation.train_skipgram
    monkeypatch.setattr(ablation, "train", train)
    monkeypatch.setattr(ablation, "train_skipgram", train_skipgram)
    monkeypatch.setattr(ablation, "_score", score)
    poems = by_genre[Genre.FIVE_CHAR] + by_genre[Genre.SEVEN_CHAR]
    held = by_genre[Genre.FIVE_CHAR][:2] + by_genre[Genre.SEVEN_CHAR][:2]
    rows = ablation.run_ablation(poems, held, d=4, H=4, H_dec=4, epochs=1)["rows"]

    assert [r["model"] for r in rows] == ROW_NAMES
    assert all(r["bleu_5"] == r["bleu_7"] == 0.0 for r in rows)
    assert [mode for mode, _, _ in trainings] == \
        [GenreMode.FIVE_ONLY, GenreMode.SEVEN_ONLY] * 4 + [GenreMode.HYBRID]
    assert len(skipgrams) == 7                          # rows 1-4: 2 + 2 + 2 + 1
    assert [echo for _, echo, _ in trainings] == [False] * 4 + [True] * 5
    assert [attn for _, _, attn in trainings] == [False] * 6 + [True] * 3
    assert scored == [Genre.FIVE_CHAR, Genre.SEVEN_CHAR] * 5
