"""Ablation harness: toggle each modelling technique and score BLEU.

Produces a table-shaped report over cumulative configurations (basic model,
then adding character-vector pretraining, input reconstruction, input-vector
attention, and hybrid-style training), each scored with keyword-referenced
BLEU on a held-out split. The harness is meant for toy-sized runs; the
numbers it emits on desk-scale corpora carry no claim beyond being finite.
"""

from dataclasses import dataclass

from .corpus import Genre, build_training_sequence, build_vocab
from .embeddings import train_skipgram
from .evaluation import ReferenceIndex, evaluate_keywords
from .generation import GenRequest, ProsodyRules, beam_search_generate
from .model import ModelConfig, ModelParams
from .training import GenreMode, TrainConfig, train


@dataclass
class AblationConfig:
    pretrain: bool = False
    reconstruction: bool = False
    input_attention: bool = False
    hybrid: bool = False


CUMULATIVE_ROWS = [
    ("basic", AblationConfig()),
    ("+char vector init", AblationConfig(pretrain=True)),
    ("+input reconstruction", AblationConfig(pretrain=True, reconstruction=True)),
    ("+input vector attention",
     AblationConfig(pretrain=True, reconstruction=True, input_attention=True)),
    ("+hybrid training",
     AblationConfig(pretrain=True, reconstruction=True, input_attention=True, hybrid=True)),
]


def _train_model(train_poems, vocab, ab, genre_mode, d, H, H_dec, epochs, seed):
    examples = [build_training_sequence(p, vocab, echo=ab.reconstruction)
                for p in train_poems]
    cfg = ModelConfig(vocab_size=len(vocab), d=d, H=H, H_dec=H_dec,
                      use_input_attention=ab.input_attention, seed=seed)
    mparams = ModelParams.initialize(cfg)
    if ab.pretrain:
        stream = [c for p in train_poems for c in p.chars()]
        sg = train_skipgram(stream, window=2, d=d, negatives=2, epochs=1, seed=seed)
        sg.copy_into(mparams.tensors["emb"], vocab)
    tc = TrainConfig(epochs=epochs, minibatch=8, seed=seed, genre_mode=genre_mode)
    train(examples, mparams, tc)
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

    Returns {"rows": [{"model", "bleu_5", "bleu_7"}, ...]}; entries are None
    where a genre is absent or no keyword has references.
    """
    vocab = build_vocab(train_poems)
    index = ReferenceIndex(train_poems)
    by_genre = {g: [p for p in train_poems if p.genre == g]
                for g in (Genre.FIVE_CHAR, Genre.SEVEN_CHAR)}
    held_by_genre = {g: [p for p in held_out_poems if p.genre == g]
                     for g in (Genre.FIVE_CHAR, Genre.SEVEN_CHAR)}
    rows = []
    for name, ab in CUMULATIVE_ROWS:
        row = {"model": name, "bleu_5": None, "bleu_7": None}
        if ab.hybrid:
            mp = _train_model(train_poems, vocab, ab, GenreMode.HYBRID,
                              d, H, H_dec, epochs, seed)
            for g, key in ((Genre.FIVE_CHAR, "bleu_5"), (Genre.SEVEN_CHAR, "bleu_7")):
                if held_by_genre[g]:
                    row[key] = _score(mp, vocab, held_by_genre[g], index, seed=seed)
        else:
            for g, mode, key in ((Genre.FIVE_CHAR, GenreMode.FIVE_ONLY, "bleu_5"),
                                 (Genre.SEVEN_CHAR, GenreMode.SEVEN_ONLY, "bleu_7")):
                if by_genre[g] and held_by_genre[g]:
                    mp = _train_model(by_genre[g], vocab, ab, mode,
                                      d, H, H_dec, epochs, seed)
                    row[key] = _score(mp, vocab, held_by_genre[g], index, seed=seed)
        rows.append(row)
    return {"rows": rows}
