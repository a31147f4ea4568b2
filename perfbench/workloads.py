"""The four benchmark workloads: set-up, one request, and the check of its output.

Each workload is a closed loop with a single client: the runner calls
`request()` again only after the previous call returned. A request returns
(items of work done, whether its output passed the check, output text for
the run digest). qgen is always reached through its module attributes, so
the tracer's wrappers see every call.
"""

import hashlib
import math
import os

import numpy as np

from qgen import (corpus, embeddings, evaluation, generation, model, numerics,
                  prosody, training)

# Errors that qgen raises on a failed operation; they count as failed checks.
OP_ERRORS = (FloatingPointError, ValueError, generation.GenerationError,
             prosody.ProsodyError, training.CheckpointError, corpus.CorpusError)

SKIPGRAM_WINDOW = 5
SKIPGRAM_NEGATIVES = 5


def check_loss(loss, first_loss):
    """train: the epoch loss is finite and below the warm-up epoch's loss."""
    return math.isfinite(loss) and (first_loss is None or loss < first_loss)


def check_poem(lines, tone_dict, templates):
    """generate: 4 well-formed lines that satisfy a tonal template and the rhyme."""
    try:
        prosody.validate_structure(lines)
    except prosody.StructureError:
        return False
    return prosody.compliance_report(lines, tone_dict, templates).compliant


def check_bleu(record):
    """greedy: the keyword had references and its BLEU is finite."""
    score = record.get("bleu")
    return score is not None and math.isfinite(score)


def check_vectors(matrix):
    """embed: every trained vector component is finite."""
    return bool(np.isfinite(matrix).all())


class Workload:
    """Subclasses define `setup()`, which builds the state the requests use,
    and `request()`, which does one unit of work and checks its output."""

    def __init__(self, inputs, size, data_dir, out_dir):
        self.inputs = inputs
        self.size = size
        self.data_dir = data_dir
        self.out_dir = out_dir
        self.corpus_path = None
        if "corpus_records" in inputs:
            self.corpus_path = os.path.join(out_dir, "%s-corpus-%d.txt"
                                            % (type(self).__name__.lower(), os.getpid()))
            with open(self.corpus_path, "w", encoding="utf-8") as f:
                f.write("\n".join(inputs["corpus_records"]) + "\n")

    def close(self):
        if self.corpus_path:
            os.remove(self.corpus_path)


class Train(Workload):
    """`qgen train` epochs: hybrid genre, minibatch 8, CLI default dims."""

    def setup(self):
        poems = corpus.parse_corpus(self.corpus_path).poems
        vocab = corpus.build_vocab(poems)
        poems, _ = corpus.filter_poems(poems, vocab)
        self.examples = [corpus.build_training_sequence(p, vocab) for p in poems]
        self.tokens = sum(len(e.target_ids) for e in self.examples)
        s = self.size
        cfg = model.ModelConfig(vocab_size=len(vocab), d=s.d, H=s.H, H_dec=s.H_dec,
                                seed=self.inputs["model_seed"])
        self.mparams = model.ModelParams.initialize(cfg)
        self.opt = numerics.AdaDeltaState(self.mparams.tensors)
        seed = self.inputs["shuffle_seed"]
        self.tcfg = training.TrainConfig(minibatch=8, seed=seed,
                                         genre_mode=training.GenreMode.HYBRID)
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.epoch = 0
        self.first_loss = None

    def request(self):
        report = training.train_epoch(self.examples, self.mparams, self.opt,
                                      self.tcfg, epoch=self.epoch, rng=self.rng)
        self.epoch += 1
        loss = report.mean_loss
        ok = check_loss(loss, self.first_loss)
        if self.first_loss is None:
            self.first_loss = loss
        return self.tokens, ok, repr(loss)


class Generate(Workload):
    """`qgen generate`: beam search with tone and rhyme on, 7-char genre."""

    def setup(self):
        self.tone_dict = prosody.load_tone_dict(os.path.join(self.data_dir, "tone_dict.tsv"))
        self.templates = prosody.load_templates(os.path.join(self.data_dir, "templates.txt"))
        # one pseudo-poem holding every tone-dictionary character: V = 5 + 444
        vocab = corpus.build_vocab([corpus.Poem(corpus.Genre.SEVEN_CHAR,
                                                ["".join(self.inputs["vocab_chars"])])])
        s = self.size
        seed = self.inputs["model_seed"]
        cfg = model.ModelConfig(vocab_size=len(vocab), d=s.d, H=s.H, H_dec=s.H_dec, seed=seed)
        mparams = model.ModelParams.initialize(cfg)
        path = os.path.join(self.out_dir, "generate-%d.ckpt" % os.getpid())
        try:
            training.save_checkpoint(path, mparams, numerics.AdaDeltaState(mparams.tensors),
                                     vocab, 0, seed)
            self.mparams, _, self.vocab, _, _ = training.load_checkpoint(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        self.rules = generation.ProsodyRules(tone_dict=self.tone_dict, templates=self.templates)
        self.n = 0

    def request(self):
        keywords = self.inputs["keywords"]
        req = generation.GenRequest(keywords=keywords[self.n % len(keywords)],
                                    genre=corpus.Genre.SEVEN_CHAR,
                                    beam_width=self.size.beam, tone=True, rhyme=True,
                                    seed=self.inputs["tie_seed"] + self.n)
        self.n += 1
        poem, _ = generation.beam_search_generate(req, self.mparams, self.vocab, self.rules)
        return 1, check_poem(poem.lines, self.tone_dict, self.templates), "|".join(poem.lines)


class Greedy(Workload):
    """Evaluation traffic: beam 1, no masks, BLEU against ReferenceIndex(corpus)."""

    def setup(self):
        poems = corpus.parse_corpus(self.corpus_path).poems
        self.vocab = corpus.build_vocab(poems)
        s = self.size
        cfg = model.ModelConfig(vocab_size=len(self.vocab), d=s.greedy_d, H=s.greedy_H,
                                H_dec=s.greedy_H, seed=self.inputs["model_seed"])
        self.mparams = model.ModelParams.initialize(cfg)
        self.index = evaluation.ReferenceIndex(poems)
        self.rules = generation.ProsodyRules(tone_dict=None, templates=[])
        self.n = 0

    def _generate(self, keyword):
        req = generation.GenRequest(keywords=keyword, genre=corpus.Genre(len(keyword)),
                                    beam_width=1, tone=False, rhyme=False)
        poem, _ = generation.beam_search_generate(req, self.mparams, self.vocab, self.rules)
        self.poem = poem
        return poem.chars()

    def request(self):
        keywords = self.inputs["keywords"]
        kw = keywords[self.n % len(keywords)]
        self.n += 1
        self.poem = None
        records, _ = evaluation.evaluate_keywords(self._generate, [kw], self.index)
        out = "%s %r" % ("|".join(self.poem.lines) if self.poem else "", records[0].get("bleu"))
        return 1, check_bleu(records[0]), out


class Embed(Workload):
    """`qgen embed`: one skip-gram epoch over the corpus character stream."""

    def setup(self):
        poems = corpus.parse_corpus(self.corpus_path).poems
        self.stream = [c for p in poems for c in p.chars()]
        self.pairs = sum(1 for _ in embeddings.skipgram_pairs(self.stream, SKIPGRAM_WINDOW))
        self.n = 0

    def request(self):
        emb = embeddings.train_skipgram(self.stream, window=SKIPGRAM_WINDOW,
                                        d=self.size.embed_d, negatives=SKIPGRAM_NEGATIVES,
                                        epochs=1, seed=self.inputs["sg_seed"] + self.n)
        self.n += 1
        return (self.pairs, check_vectors(emb.matrix),
                hashlib.sha256(emb.matrix.tobytes()).hexdigest())


WORKLOAD_CLASSES = {"train": Train, "generate": Generate, "greedy": Greedy, "embed": Embed}
