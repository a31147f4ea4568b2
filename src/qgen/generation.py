"""Keyword-conditioned quatrain generation via prosody-constrained beam search.

The decoder runs over a fixed position plan: genre-many characters per line,
a SEP token between lines, stop after line 4. Structure is therefore a hard
guarantee. Tone and rhyme are enforced by masking the output distribution;
when the masks would remove all probability mass the rules in force at that
position are relaxed in the order rhyme -> tone, and every relaxation of a rule
in force is logged. The live hypotheses are the rows of one batch: one decoder
call per position serves them all.
"""

import logging
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .corpus import BOS, N_RESERVED, SEP, UNK, Genre, Poem
from .model import decode_step, encode, init_decoder_state
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
        """`tone_dict.tables` of the vocabulary's characters in id order.

        Built once per tone dictionary and vocabulary and kept for the next
        request; neither may change once generation has read it.
        """
        td, built_for, table = self._table or (None, None, None)
        if td is not self.tone_dict or built_for is not vocab:
            table = self.tone_dict.tables(vocab.chars)
            self._table = (self.tone_dict, vocab, table)
        return table


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


@dataclass
class _Hyp:
    text: str               # the characters chosen so far, separators left out
    logp: float
    template: object = None
    rhyme_group: str = None
    relaxations: list = field(default_factory=list)


def constraint_mask(line, pos, dist, table, template, rhyme_group,
                    tone_on, rhyme_on, genre):
    """Mask and renormalize the distribution of one character position.

    Structure masking (no reserved token) is unconditional. The rules in force
    are decided once: rhyme at the final characters of lines 2 and 4 (group
    bound by line 2, matched by line 4), then tone by the bound template's
    slot. `table` holds the tone codes and rhyme groups of the vocabulary
    (`ToneDict.tables`). While all mass is removed, the first rule in force is
    dropped, and then the uniform "model" fallback; every relaxation of a rule
    in force is returned. Separator steps never come here: the beam emits SEP.
    """
    p = np.array(dist, dtype=np.float64)       # a float64 copy, so scores sum in float64
    p[:N_RESERVED] = 0.0
    in_force = []                       # (rule, 0/1 mask), in the order they are dropped
    if rhyme_on and pos == genre.value - 1 and line in (1, 3):
        rhyme = np.not_equal(table[1], None)    # a rhyme needs a known group
        if line == 3:
            rhyme &= table[1] == rhyme_group
        in_force.append(("rhyme", rhyme))
    if tone_on and template is not None:
        in_force.append(("tone", slot_allows(template.slot(line, pos), table[0])))
    relaxations = []
    masked = reduce(np.multiply, [allowed for _, allowed in in_force], p)
    while masked.sum() <= 0.0 and in_force:
        relaxations.append({"line": line, "pos": pos, "dropped": in_force.pop(0)[0]})
        masked = reduce(np.multiply, [allowed for _, allowed in in_force], p)
    if masked.sum() <= 0.0:
        # model put zero mass on every character token; fall back to uniform
        relaxations.append({"line": line, "pos": pos, "dropped": "model"})
        p[N_RESERVED:] = 1.0
        masked = p
    return masked / masked.sum(), relaxations


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
    cfg = mparams.cfg
    nodes = mparams.wrap()
    keywords = req.keywords.split() if req.sep_keywords else ["".join(req.keywords.split())]
    ids = []
    for ki, kw in enumerate(keywords):
        if ki > 0:
            ids.append(SEP)
        for c in kw:
            idx = vocab.id(c)
            if idx == UNK:
                log.warning("keyword char %r not in vocabulary; using UNK", c)
            ids.append(idx)
    enc = encode(ids, nodes, cfg)
    s0 = init_decoder_state(enc, req.genre, nodes, mparams.indicators)
    rng = np.random.Generator(np.random.PCG64(req.seed))
    plan = position_plan(req.genre)
    beam = [_Hyp(text="", logp=0.0, template=t) for t in bindings]
    state = np.repeat(s0.value[None], len(beam), axis=0)    # row b: beam[b]'s state
    prev = np.full(len(beam), BOS)
    L = req.genre.value
    records = []

    for step, (kind, line, pos) in enumerate(plan):
        s_new, dist, info = decode_step(constant(state), prev, enc, nodes, cfg)
        step_rec = {"step": step, "kind": kind, "line": line, "pos": pos, "candidates": [
            {"prefix": hyp.text, "alpha_h": info["alpha_h"][b], "alpha_x": None
             if info["alpha_x"] is None else info["alpha_x"][b]} for b, hyp in enumerate(beam)]}
        pool = []                       # (logp, row of the parent, char id)
        relaxed = [[] for _ in beam]    # relaxed[b]: this step's relaxations of row b
        for b, hyp in enumerate(beam):
            if kind == "sep":
                pool.append((hyp.logp, b, SEP))     # forced: no model mass is spent
                continue
            masked, relaxed[b] = constraint_mask(line, pos, dist.value[b], table, hyp.template,
                                                 hyp.rhyme_group, req.tone, req.rhyme, req.genre)
            if relaxed[b]:
                step_rec.setdefault("relaxations", []).extend(relaxed[b])
            k = min(req.beam_width, int((masked > 0).sum()))
            if k:                       # the k largest, equal probabilities by ascending id
                ids = np.flatnonzero(masked >= np.partition(masked, -k)[-k])
                pool += [(hyp.logp + float(np.log(masked[idx])), b, int(idx))
                         for idx in ids[np.lexsort((ids, -masked[ids]))[:k]]]
        if not pool:
            raise GenerationError("beam exhausted at step %d" % step)
        tie = rng.random(len(pool))
        kept = [pool[i] for i in sorted(range(len(pool)),
                                        key=lambda i: (-pool[i][0], tie[i]))[:req.beam_width]]
        binds = line == 1 and pos == L - 1 and table is not None    # line 2 binds the rhyme
        beam = [_Hyp(text=beam[b].text + (vocab.char(idx) if kind == "char" else ""),
                     logp=logp, template=beam[b].template,
                     rhyme_group=table[1][idx] if binds else beam[b].rhyme_group,
                     relaxations=beam[b].relaxations + relaxed[b]) for logp, b, idx in kept]
        state = s_new.value[[b for _, b, _ in kept]]
        prev = np.array([idx for _, _, idx in kept])
        records.append(step_rec)

    best = beam[0]
    lines = [best.text[i * L:(i + 1) * L] for i in range(4)]
    poem = Poem(genre=req.genre, lines=lines, source_id="generated")
    records.append({"final_logp": best.logp,
                    "template": best.template.template_id if best.template else None,
                    "rhyme_group": best.rhyme_group,
                    "relaxations": best.relaxations})
    return poem, records
