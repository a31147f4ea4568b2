"""Seeded inputs for the benchmark workloads.

Every input a workload feeds to qgen is made here from the workload seed, so
the same seed gives the same inputs. qgen itself never sees the seed: it only
receives the derived model/shuffle seeds, keyword strings and file paths.
"""

import random
from dataclasses import dataclass

# Why each workload is in the benchmark; printed with every run.
WHY = {
    "train": "hybrid teacher-forced AdaDelta epochs at CLI default dims: tape "
             "forward, backward and AdaDelta, no beam search or masking",
    "generate": "beam 5 with tone and rhyme masks over the 449-token tone-dictionary "
                "vocabulary: per-hypothesis decode and O(V) masks, no backward",
    "greedy": "beam 1, no masks, BLEU against keyword references: the same decoder "
              "with one hypothesis, where batched-beam or mask work must not cost",
    "embed": "skip-gram negative sampling on the corpus character stream: the only "
             "workload that runs embeddings and never touches the tape",
}

WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Size:
    """Model dimensions and input caps; FULL is the benchmark, TINY the self-test."""
    d: int
    H: int
    H_dec: int
    greedy_d: int
    greedy_H: int
    embed_d: int
    beam: int
    max_poems: int      # cap on the corpus poems of train and embed (0 = all)


FULL = Size(d=128, H=128, H_dec=256, greedy_d=32, greedy_H=64, embed_d=128,
            beam=5, max_poems=0)
TINY = Size(d=8, H=8, H_dec=8, greedy_d=8, greedy_H=8, embed_d=8,
            beam=2, max_poems=16)


def read_corpus_records(path):
    """Poem records (one `|`-joined line each) of a corpus file, in file order."""
    with open(path, encoding="utf-8") as f:
        return [rec for rec in (raw.strip() for raw in f)
                if rec and not rec.startswith("#")]


def read_tone_chars(path):
    """Characters of a tone-dictionary TSV, in file order."""
    with open(path, encoding="utf-8") as f:
        return [row.split("\t", 1)[0] for row in f
                if row.strip() and not row.startswith("#")]


def _cap(records, max_poems):
    """The first max_poems/2 poems of each genre: hybrid training needs both."""
    if not max_poems:
        return records
    by_len = {}
    for rec in records:
        by_len.setdefault(len(rec.split("|")[0]), []).append(rec)
    return [rec for recs in by_len.values() for rec in recs[:max_poems // 2]]


def _sub_seed(rng):
    return rng.randrange(2 ** 31)


def make_inputs(workload, seed, size, data_dir):
    """The inputs of one run of `workload`, derived from `seed` only."""
    rng = random.Random("%s:%d" % (workload, seed))
    records = read_corpus_records("%s/sample_corpus.txt" % data_dir)
    if workload == "train":
        return {"corpus_records": _cap(records, size.max_poems),
                "model_seed": _sub_seed(rng), "shuffle_seed": _sub_seed(rng)}
    if workload == "generate":
        chars = read_tone_chars("%s/tone_dict.tsv" % data_dir)
        # Keywords only use tone-dictionary characters, all of which are in the
        # vocabulary: an out-of-vocabulary character would be fed in as UNK.
        keywords = ["".join(rng.choice(chars) for _ in range(rng.randint(2, 7)))
                    for _ in range(1000)]
        return {"vocab_chars": chars, "keywords": keywords,
                "model_seed": _sub_seed(rng), "tie_seed": _sub_seed(rng)}
    if workload == "greedy":
        keywords = [rec.split("|")[0] for rec in records]
        rng.shuffle(keywords)
        return {"corpus_records": records, "keywords": keywords,
                "model_seed": _sub_seed(rng)}
    if workload == "embed":
        return {"corpus_records": _cap(records, size.max_poems),
                "sg_seed": _sub_seed(rng)}
    raise ValueError("unknown workload %r" % workload)
