"""BLEU against a brute-force counter, plus reference set construction."""

import warnings
from math import exp, isclose, sqrt

import numpy as np
import pytest

from qgen.corpus import Genre, Poem
from qgen.evaluation import (ReferenceIndex, bleu, brevity_penalty,
                             build_reference_set, evaluate_keywords,
                             ngram_precision)


def oracle_bleu(hyp, refs):
    """Independent BLEU-1/2: dict-based counting, no shared code paths."""
    def grams(seq, n):
        out = {}
        for i in range(len(seq) - n + 1):
            g = tuple(seq[i:i + n])
            out[g] = out.get(g, 0) + 1
        return out

    ps = []
    for n in (1, 2):
        h = grams(hyp, n)
        total = sum(h.values())
        if total == 0:
            ps.append(0.0)
            continue
        clipped = 0
        for g, c in h.items():
            best = 0
            for ref in refs:
                rc = grams(ref, n).get(g, 0)
                if rc > best:
                    best = rc
            clipped += min(c, best)
        ps.append(clipped / total)
    # closest reference length, ties to the shorter
    best_r = None
    for ref in refs:
        if (best_r is None
                or abs(len(ref) - len(hyp)) < abs(best_r - len(hyp))
                or (abs(len(ref) - len(hyp)) == abs(best_r - len(hyp))
                    and len(ref) < best_r)):
            best_r = len(ref)
    bp = 1.0 if len(hyp) >= best_r else exp(1.0 - best_r / len(hyp))
    if ps[0] > 0 and ps[1] > 0:
        return bp * (ps[0] * ps[1]) ** 0.5
    return 0.0


def test_fixture_aabb_abbc():
    rep = bleu(list("AABB"), [list("ABBC")])
    assert isclose(rep.p1, 3 / 4, abs_tol=1e-15)
    assert isclose(rep.p2, 2 / 3, abs_tol=1e-15)
    assert rep.bp == 1.0
    assert isclose(rep.bleu, sqrt(0.5), abs_tol=1e-15)


def test_matches_oracle_on_random_cases():
    rng = np.random.default_rng(0)
    alphabet = list("abcdefgh")
    for _ in range(50):
        hyp = [alphabet[i] for i in rng.integers(0, len(alphabet),
                                                 size=rng.integers(2, 12))]
        refs = [[alphabet[i] for i in rng.integers(0, len(alphabet),
                                                   size=rng.integers(2, 12))]
                for _ in range(rng.integers(1, 4))]
        rep = bleu(hyp, refs)
        assert abs(rep.bleu - oracle_bleu(hyp, refs)) < 1e-12


def test_precision_clipping():
    # "aaa" vs "a": the single reference 'a' clips the count to 1
    assert isclose(ngram_precision("aaa", ["a"], 1), 1 / 3, abs_tol=1e-15)
    assert ngram_precision("ab", ["ab"], 2) == 1.0
    with pytest.raises(ValueError):
        ngram_precision("ab", ["ab"], 3)


def test_short_hypothesis_scores_zero_precision():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ngram_precision(["a"], [["a", "b"]], 2) == 0.0
        rep = bleu(["a"], [["a", "b"]])
    assert rep.zero_precision and rep.bleu == 0.0


def test_brevity_penalty_ties_pick_shorter():
    bp, r = brevity_penalty(4, [2, 6])
    assert r == 2 and bp == 1.0           # tie at distance 2: shorter wins
    bp, r = brevity_penalty(2, [4])
    assert r == 4 and isclose(bp, exp(1 - 4 / 2), abs_tol=1e-15)
    bp, r = brevity_penalty(5, [5, 9])
    assert r == 5 and bp == 1.0
    bp, r = brevity_penalty(0, [4, 6])      # empty hypothesis: the limit, 0
    assert r == 4 and bp == 0.0


def test_bleu_requires_references():
    with pytest.raises(ValueError):
        bleu("abc", [])


def make_poems():
    return [
        Poem(Genre.FIVE_CHAR, ["月黑雁飞高", "单于夜遁逃", "欲将轻骑逐", "大雪满弓刀"]),
        Poem(Genre.FIVE_CHAR, ["床前明月光", "疑是地上霜", "举头望明月", "低头思故乡"]),
        Poem(Genre.FIVE_CHAR, ["明月几时有", "把酒问青天", "不知天上宫", "今夕是何年"]),
    ]


def test_build_reference_set_filters_and_orders():
    poems = make_poems()
    refs = build_reference_set("明月", poems)
    # poems 2 and 3 contain both characters; poem 2 has 月 three times
    assert len(refs) == 2
    assert refs[0] == poems[1].chars()
    refs = build_reference_set("明月", poems, cap=1)
    assert len(refs) == 1
    assert build_reference_set("不存在字", poems) == []


def test_reference_index_caches():
    index = ReferenceIndex(make_poems())
    a = index.references("明月")
    assert index.references("明月") is a


def test_evaluate_keywords_mean_and_missing():
    poems = make_poems()
    index = ReferenceIndex(poems)

    records, summary = evaluate_keywords(lambda kw: poems[1].chars(),
                                         ["明月", "不存在字"], index)
    assert summary["keywords"] == 2 and summary["scored"] == 1
    assert records[1]["bleu"] is None
    assert isclose(summary["mean_bleu"], records[0]["bleu"], abs_tol=1e-15)
    assert records[0]["bleu"] == 1.0      # hypothesis is its own best reference
