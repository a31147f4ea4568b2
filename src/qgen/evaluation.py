"""BLEU-1/2 with keyword-indexed reference sets.

Poems are flattened to plain character sequences (no line delimiters) before
n-gram counting. BLEU uses equal 1/2 weights over 1-gram and 2-gram modified
precisions, no smoothing, and the closest-reference-length brevity penalty
(ties to the shorter reference). A zero precision yields BLEU 0 with the zero
flagged in the report.
"""

from collections import Counter
from dataclasses import asdict, dataclass
from math import exp, log


@dataclass
class BleuReport:
    p1: float
    p2: float
    bp: float               # brevity penalty
    bleu: float
    hyp_len: int
    closest_ref_len: int
    zero_precision: bool = False


def _ngrams(seq, n):
    return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]


def ngram_precision(hyp, refs, n):
    """Modified n-gram precision: counts clipped at the per-reference maximum."""
    if n not in (1, 2):
        raise ValueError("only 1-grams and 2-grams are used")
    hyp = list(hyp)
    if len(hyp) < n:
        return 0.0
    counts = Counter(_ngrams(hyp, n))
    max_counts = Counter()
    for ref in refs:
        rc = Counter(_ngrams(list(ref), n))
        for gram in counts:
            max_counts[gram] = max(max_counts[gram], rc[gram])
    clipped = sum(min(c, max_counts[g]) for g, c in counts.items())
    return clipped / sum(counts.values())


def brevity_penalty(hyp_len, ref_lens):
    """BP against the closest reference length, ties picking the shorter; 0 if empty."""
    r = min(ref_lens, key=lambda L: (abs(L - hyp_len), L))
    if hyp_len >= r:
        return 1.0, r
    return (exp(1.0 - r / hyp_len) if hyp_len else 0.0), r


def bleu(hyp, refs):
    """BLEU over 1-grams and 2-grams with equal weights."""
    if not refs:
        raise ValueError("reference list must be non-empty")
    hyp = list(hyp)
    refs = [list(r) for r in refs]
    p1 = ngram_precision(hyp, refs, 1)
    p2 = ngram_precision(hyp, refs, 2)
    bp, r = brevity_penalty(len(hyp), [len(x) for x in refs])
    if p1 > 0.0 and p2 > 0.0:
        score = bp * exp(0.5 * log(p1) + 0.5 * log(p2))
        zero = False
    else:
        score = 0.0
        zero = True
    return BleuReport(p1=p1, p2=p2, bp=bp, bleu=score,
                      hyp_len=len(hyp), closest_ref_len=r, zero_precision=zero)


def build_reference_set(keyword, poems, cap=20):
    """Reference character sequences for a keyword.

    Selects the corpus poems containing every character of the keyword,
    ordered by descending keyword-character occurrence count (ties keep corpus
    order), capped at `cap`. Returns flattened char lists; empty when nothing
    matches (BLEU is then undefined and must be reported as absent).
    """
    kw = [c for c in keyword if not c.isspace()]
    scored = []
    for i, poem in enumerate(poems):
        chars = poem.chars()
        if all(c in chars for c in kw):
            score = sum(chars.count(c) for c in kw)
            scored.append((-score, i, chars))
    scored.sort()
    return [chars for _, _, chars in scored[:cap]]


class ReferenceIndex:
    """keyword -> reference poem character sequences over a fixed corpus."""

    def __init__(self, poems, cap=20):
        self.poems = list(poems)
        self.cap = cap
        self._cache = {}

    def references(self, keyword):
        if keyword not in self._cache:
            self._cache[keyword] = build_reference_set(keyword, self.poems, self.cap)
        return self._cache[keyword]


def evaluate_keywords(generate_fn, keywords, index):
    """Score a generator over keywords; sentence-level BLEU averaged.

    generate_fn(keyword) -> poem character sequence. Keywords with an empty
    reference set are reported with bleu None and excluded from the mean.
    Returns (records, summary).
    """
    records = []
    scores = []
    for kw in keywords:
        refs = index.references(kw)
        rec = {"keyword": kw}
        if not refs:
            rec["bleu"] = None
            rec["note"] = "no references"
        else:
            hyp = generate_fn(kw)
            rep = bleu(hyp, refs)
            rec.update(asdict(rep))
            scores.append(rep.bleu)
        records.append(rec)
    summary = {"keywords": len(keywords), "scored": len(scores),
               "mean_bleu": (sum(scores) / len(scores)) if scores else None}
    return records, summary
