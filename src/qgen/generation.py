"""Keyword-conditioned quatrain generation via prosody-constrained beam search.

The decoder runs over a fixed position plan: genre-many characters per line,
a SEP token between lines, stop after line 4, so structure is a hard
guarantee. Tone and rhyme mask the output distribution: the search decides
the rules in force once per character position, and a row whose mass they
would all remove drops them in the order rhyme -> tone, each drop logged.
The beam is its rows: hypothesis b is row b of each array the search keeps,
re-indexed by each position's survivors. One decoder call, one mask and one
top-k per character position serve all rows; a SEP position, whose token is
forced, skips the projection onto the vocabulary, and a lone row with no rule
in force takes its argmax. Searches decode `laid_out`.
"""

import logging
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .corpus import BOS, N_RESERVED, SEP, UNK, Genre, Poem
from .model import decode_recurrence, decode_step, encode, init_decoder_state
from .numerics import constant
from .prosody import slot_allows, templates_for

log = logging.getLogger(__name__)


@dataclass
class GenRequest:
    keywords: str
    genre: Genre
    beam_width: int = 1
    tone: bool = True
    rhyme: bool = True
    seed: int = 0
    sep_keywords: bool = False     # insert SEP between whitespace-split keywords

    def __post_init__(self):
        if not self.keywords.strip():
            raise ValueError("keywords must be non-empty")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")


@dataclass
class ProsodyRules:
    tone_dict: object
    templates: list
    _table: tuple = field(default=None, init=False, repr=False, compare=False)

    def vocab_table(self, vocab):
        """The VocabTable of the vocabulary's characters in id order, kept for
        the next request; neither may change once generation has read it."""
        td, built_for, table = self._table or (None, None, None)
        if td is not self.tone_dict or built_for is not vocab:
            table = VocabTable(self.tone_dict.tables(vocab.chars))
            self._table = (self.tone_dict, vocab, table)
        return table


class VocabTable:
    """The rhyme groups (None where unknown) of `ToneDict.tables`' pair, and the
    rules' bool masks: one per slot symbol, one per rhyme group (None: none)."""

    def __init__(self, table):
        tones, self.groups = table
        self.slots = {s: slot_allows(s, tones) for s in "PZ*"}
        self.known = np.not_equal(self.groups, None)    # a rhyme needs a known group
        self.rhymes = {g: self.known & (self.groups == g) for g in {None, *self.groups}}


class GenerationError(Exception):
    pass


def position_plan(genre):
    """Step descriptors: ("char", line, pos), and ("sep", line, -1) before
    lines 2-4."""
    L = genre.value
    plan = []
    for line in range(4):
        if line > 0:
            plan.append(("sep", line, -1))
        for pos in range(L):
            plan.append(("char", line, pos))
    return plan


def constraint_mask(line, pos, dist, in_force):
    """Mask and renormalize the (R, V) rows of one character position under
    `in_force`, the (rule, bool (V,) or (R, V) mask) pairs the search decided
    once for the position, in the order a row drops them.

    Structure masking (no reserved token) is unconditional. A row whose mass
    is all removed drops the rules in order, then falls back to uniform
    ("model"). Returns the masked rows and the relaxations as (row, record)
    pairs. SEP positions never come here."""
    p = np.array(dist, dtype=np.float64)    # a float64 copy, so scores sum in float64
    p[:, :N_RESERVED] = 0.0
    masked = p * reduce(np.logical_and, [m for _, m in in_force]) if in_force else p
    sums = masked.sum(axis=1)
    relaxations = []
    for b in np.flatnonzero(sums <= 0.0).tolist():
        rules = [(rule, np.broadcast_to(m, p.shape)[b]) for rule, m in in_force]
        while masked[b].sum() <= 0.0 and rules:
            relaxations.append((b, {"line": line, "pos": pos, "dropped": rules.pop(0)[0]}))
            masked[b] = reduce(np.multiply, [m for _, m in rules], p[b])
        if masked[b].sum() <= 0.0:     # no mass on any character token
            relaxations.append((b, {"line": line, "pos": pos, "dropped": "model"}))
            masked[b, N_RESERVED:] = 1.0
        sums[b] = masked[b].sum()
    masked /= sums[:, None]
    return masked, relaxations


def candidate_pool(masked, logp, k):
    """Each row's k most probable ids of positive probability, equal ones by
    ascending id, as (rows, ids, scores = logp[row] + log p) in row order and
    by rank within a row: the order the tie draws follow."""
    V = masked.shape[1]
    # cut at each row's k-th largest, and above zero
    cut = np.maximum(np.partition(masked, -min(k, V), axis=1)[:, -min(k, V), None], 5e-324)
    flat = (masked >= cut).ravel().nonzero()[0]         # row * V + id, ascending
    flat = flat[np.lexsort((flat, -masked.ravel()[flat], flat // V))]
    flat = flat[np.arange(len(flat)) - np.searchsorted(flat // V, flat // V) < k]
    flat = flat[masked.ravel()[flat] > 0.0]     # a row that is no distribution (NaN) offers none
    rows = flat // V
    return rows, flat - rows * V, logp[rows] + np.log(masked.ravel()[flat])


def first_maximum(dist, logp):
    """The kept (row, id, score) of one unmasked row: its first maximum over the
    characters, scored by its share of their mass in float64; None if no mass."""
    p = dist[0, N_RESERVED:]
    mass = p.sum(dtype=np.float64)
    if mass > 0.0:                  # not zero, nor NaN: no "model" fallback
        i = int(p.argmax())
        return np.zeros(1, np.intp), np.array([N_RESERVED + i]), logp + np.log(p[i] / mass)


def keep_best(rows, ids, scores, width, rng):
    """The `width` best of a pool by descending score, ties by one draw per entry."""
    kept = np.lexsort((rng.random(len(rows)), -scores))[:width]
    return rows[kept], ids[kept], scores[kept]


@np.errstate(over="ignore", invalid="ignore")     # overflow ends in the GenerationError below
def beam_search_generate(req, mparams, vocab, rules):
    """Generate one quatrain. Returns (Poem, log_records).

    A step record's candidates hold their attention weights (`alpha_h`,
    `alpha_x`) as the step's float array rows; `cli._emit` formats them.
    Deterministic given req.seed; the seed only breaks exact score ties.
    """
    if len(vocab) <= N_RESERVED:
        raise GenerationError("the vocabulary holds no characters to generate")
    if req.tone:
        bindings = templates_for(rules.templates, req.genre)
        if not bindings:
            raise GenerationError("no tonal templates for genre %s" % req.genre.name)
    else:
        bindings = [None]
    if (req.tone or req.rhyme) and rules.tone_dict is None:
        raise GenerationError("tone and rhyme constraints need a tone dictionary")
    table = None if rules.tone_dict is None else rules.vocab_table(vocab)
    mparams = mparams.laid_out()
    cfg, nodes = mparams.cfg, mparams.wrap()
    text = (" " if req.sep_keywords else "").join(req.keywords.split())    # " ": a SEP
    ids = [SEP if c == " " else vocab.id(c) for c in text]
    for c in [c for c, idx in zip(text, ids) if idx == UNK]:
        log.warning("keyword char %r not in vocabulary; using UNK", c)
    enc = encode(ids, nodes, cfg)
    s0 = init_decoder_state(enc, req.genre, nodes, mparams.indicators)
    rng = np.random.Generator(np.random.PCG64(req.seed))
    n, L = len(bindings), req.genre.value
    # row b of each: hypothesis b's text, score, template, bound rhyme group,
    # relaxations (rows may share a list: replace it, never extend it), state, last id
    texts, logp = np.full(n, "", dtype=object), np.zeros(n)
    tmpls, groups = np.array(bindings, dtype=object), np.full(n, None)
    relax = np.fromiter(([] for _ in bindings), dtype=object, count=n)
    state, prev = np.repeat(s0.value[None], n, axis=0), np.full(n, BOS)
    chars = np.array([""] * N_RESERVED + vocab.chars[N_RESERVED:], dtype=object)   # SEP adds none
    records = []

    for step, (kind, line, pos) in enumerate(position_plan(req.genre)):
        picked, relaxed = None, []
        if kind == "sep":               # forced: no model mass is spent
            s_new, _, info = decode_recurrence(constant(state), prev, enc, nodes, cfg)
            rows, ids, scores = np.arange(len(logp)), np.full(len(logp), SEP), logp
        else:
            s_new, dist, info = decode_step(constant(state), prev, enc, nodes, cfg)
            in_force = []               # (rule, bool mask), in the order a row drops them
            if req.rhyme and pos == L - 1 and line in (1, 3):   # line 2 binds, line 4 matches
                in_force.append(("rhyme", table.known if line == 1 else
                                 np.array([table.rhymes[g] for g in groups])))
            if req.tone:                # every row holds a template
                in_force.append(("tone", np.array([table.slots[t.slot(line, pos)]
                                                   for t in tmpls])))
            if len(logp) == req.beam_width == 1 and not in_force:
                picked = first_maximum(dist.value, logp)
            if not picked:
                masked, relaxed = constraint_mask(line, pos, dist.value, in_force)
            rows, ids, scores = picked or candidate_pool(masked, logp, req.beam_width)
        records.append({"step": step, "kind": kind, "line": line, "pos": pos, "candidates": [
            {"prefix": text, "alpha_h": info["alpha_h"][b], "alpha_x": None
             if info["alpha_x"] is None else info["alpha_x"][b]} for b, text in enumerate(texts)]})
        if relaxed:
            records[-1]["relaxations"] = [r for _, r in relaxed]
            for b, r in relaxed:
                relax[b] = relax[b] + [r]
        if not len(rows):               # only a character position's pool can be empty
            raise GenerationError("the model's numbers overflowed float32 at step %d" % step
                                  if not np.isfinite(dist.value).all()
                                  else "beam exhausted at step %d" % step)
        rows, ids, logp = picked or keep_best(rows, ids, scores, req.beam_width, rng)
        texts, tmpls, groups = texts[rows] + chars[ids], tmpls[rows], groups[rows]
        relax, state, prev = relax[rows], s_new.value[rows], ids
        if line == 1 and pos == L - 1 and table is not None:   # line 2 binds the rhyme
            groups = table.groups[ids]

    lines = [texts[0][i * L:(i + 1) * L] for i in range(4)]
    poem = Poem(genre=req.genre, lines=lines, source_id="generated")
    records.append({"final_logp": float(logp[0]),
                    "template": tmpls[0].template_id if tmpls[0] else None,
                    "rhyme_group": groups[0], "relaxations": relax[0]})
    return poem, records
