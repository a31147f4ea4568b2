"""Ablation harness: add the paper's modelling techniques one at a time and score BLEU.

Produces a table-shaped report over cumulative configurations (basic model,
then adding each of `TECHNIQUES` in turn), each scored with keyword-referenced
BLEU on a held-out split. The harness is meant for toy-sized runs; the
numbers it emits on desk-scale corpora carry no claim beyond being finite.
"""

from .corpus import Genre, build_training_sequence, build_vocab
from .embeddings import train_skipgram
from .evaluation import ReferenceIndex, evaluate_keywords
from .generation import GenRequest, ProsodyRules, beam_search_generate
from .model import ModelConfig, ModelParams
from .training import GenreMode, TrainConfig, train

# the table's order: row i turns on the first i of them
TECHNIQUES = ("char vector init", "input reconstruction", "input vector attention",
              "hybrid training")


def _train_model(poems, vocab, techniques, d, H, H_dec, epochs, seed):
    """A model trained on `poems` with `techniques` (a prefix of TECHNIQUES) on,
    in the genre mode of the genres the poems hold."""
    examples = [build_training_sequence(p, vocab, echo="input reconstruction" in techniques)
                for p in poems]
    cfg = ModelConfig(vocab_size=len(vocab), d=d, H=H, H_dec=H_dec,
                      use_input_attention="input vector attention" in techniques, seed=seed)
    mparams = ModelParams.initialize(cfg)
    if "char vector init" in techniques:
        stream = [c for p in poems for c in p.chars()]
        sg = train_skipgram(stream, window=2, d=d, negatives=2, epochs=1, seed=seed)
        sg.copy_into(mparams.tensors["emb"], vocab)
    genres = {p.genre for p in poems}
    mode = GenreMode.HYBRID if len(genres) > 1 else GenreMode(str(genres.pop().value))
    train(examples, mparams, TrainConfig(epochs=epochs, minibatch=8, seed=seed, genre_mode=mode))
    return mparams


def _score(mparams, vocab, held_out, index, seed=0):
    """Mean BLEU of greedy, unconstrained generations from held-out first lines."""
    rules = ProsodyRules(tone_dict=None, templates=[])

    def generate(kw):
        req = GenRequest(keywords=kw, genre=Genre(len(kw)), beam_width=1,
                         tone=False, rhyme=False, seed=seed)
        return beam_search_generate(req, mparams, vocab, rules)[0].chars()

    _, summary = evaluate_keywords(generate, [p.lines[0] for p in held_out], index)
    return summary["mean_bleu"]


def run_ablation(train_poems, held_out_poems, d=16, H=16, H_dec=16, epochs=5, seed=0):
    """Run the cumulative ablation table on a train/held-out poem split.

    Row 0 is the basic model and row i adds the i-th of `TECHNIQUES`. Each row
    trains one model per genre, or with hybrid training one model on both.
    Returns {"rows": [{"model", "bleu_5", "bleu_7"}, ...]}; an entry is None
    where its model lacks a genre's training poems, its genre has no held-out
    poems, or none of its keywords has references.
    """
    vocab = build_vocab(train_poems)
    index = ReferenceIndex(train_poems)
    rows = []
    for i in range(len(TECHNIQUES) + 1):
        on = TECHNIQUES[:i]
        row = {"model": "+" + on[-1] if on else "basic", "bleu_5": None, "bleu_7": None}
        groups = [tuple(Genre)] if "hybrid training" in on else [(g,) for g in Genre]
        for group in groups:
            poems = [p for p in train_poems if p.genre in group]
            held = {g: [p for p in held_out_poems if p.genre == g] for g in group}
            if {p.genre for p in poems} == set(group) and any(held.values()):
                mp = _train_model(poems, vocab, on, d, H, H_dec, epochs, seed)
                for g in group:
                    if held[g]:
                        row["bleu_%d" % g.value] = _score(mp, vocab, held[g], index, seed=seed)
        rows.append(row)
    return {"rows": rows}
