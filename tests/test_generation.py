"""Constrained beam search: masks, structure guarantees, determinism."""

import io
import json
import logging
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from conftest import data_path
from qgen import model
from qgen import numerics as nm
from qgen.cli import _emit
from qgen.corpus import (BOS, N_RESERVED, SEP, Genre, Poem,
                         build_training_sequence, build_vocab)
from qgen.generation import (GenerationError, GenRequest, ProsodyRules, VocabTable,
                             beam_search_generate, candidate_pool, constraint_mask,
                             keep_best, position_plan)
from qgen.model import ModelConfig, ModelParams, decode_step, encode, init_decoder_state
from qgen.prosody import (Tone, ToneDict, load_templates, load_tone_dict,
                          match_tonal_template, slot_allows, templates_for,
                          validate_structure)
from qgen.training import TrainConfig, load_checkpoint, save_checkpoint, train, train_epoch

POEMS = [
    Poem(Genre.FIVE_CHAR, ["月黑雁飞高", "单于夜遁逃", "欲将轻骑逐", "大雪满弓刀"]),
    Poem(Genre.FIVE_CHAR, ["床前明月光", "疑是地上霜", "举头望明月", "低头思故乡"]),
    Poem(Genre.SEVEN_CHAR, ["朝辞白帝彩云间", "千里江陵一日还",
                            "两岸猿声啼不住", "轻舟已过万重山"]),
]


@pytest.fixture(scope="module")
def world():
    vocab = build_vocab(POEMS)
    cfg = ModelConfig(vocab_size=len(vocab), d=8, H=6, H_dec=10, seed=0)
    mparams = ModelParams.initialize(cfg)
    rules = ProsodyRules(tone_dict=load_tone_dict(data_path("tone_dict.tsv")),
                         templates=load_templates(data_path("templates.txt")))
    return vocab, mparams, rules


def tables(vocab, rules):
    return rules.tone_dict.tables([vocab.char(i) for i in range(len(vocab))])


def rules_in_force(line, pos, table, templates, groups, tone_on, rhyme_on, genre):
    """The (rule, bool mask) pairs in force at (line, pos) for rows under
    `templates` and bound rhyme `groups`, in the order a row drops them."""
    in_force = []
    if rhyme_on and pos == genre.value - 1 and line in (1, 3):
        in_force.append(("rhyme", table.known if line == 1 else
                         np.array([table.rhymes[g] for g in groups])))
    if tone_on and templates[0] is not None:
        in_force.append(("tone", np.array([table.slots[t.slot(line, pos)] for t in templates])))
    return in_force


def mask_row(line, pos, dist, vocab, rules, template, group, tone_on, rhyme_on, genre):
    """constraint_mask over the one row `dist`, under `template` and bound
    rhyme `group`: the masked row and its relaxation records."""
    in_force = rules_in_force(line, pos, VocabTable(tables(vocab, rules)), [template], [group],
                              tone_on, rhyme_on, genre)
    masked, relaxed = constraint_mask(line, pos, dist[None], in_force)
    return masked[0], [r for _, r in relaxed]


def test_position_plan():
    for genre in (Genre.FIVE_CHAR, Genre.SEVEN_CHAR):
        plan = position_plan(genre)
        assert len(plan) == 4 * genre.value + 3
        assert sum(1 for p in plan if p[0] == "sep") == 3
        chars = [p for p in plan if p[0] == "char"]
        assert chars[0] == ("char", 0, 0)
        assert chars[-1] == ("char", 3, genre.value - 1)


def test_request_validation():
    with pytest.raises(ValueError):
        GenRequest(keywords="  ", genre=Genre.FIVE_CHAR)
    with pytest.raises(ValueError):
        GenRequest(keywords="月", genre=Genre.FIVE_CHAR, beam_width=0)


def test_beam_emits_sep_the_model_gives_no_mass(world):
    vocab, mparams, rules = world
    tensors = {**mparams.tensors, "out.b": mparams.tensors["out.b"].copy()}
    tensors["out.b"][SEP] = -np.inf
    no_sep = ModelParams(mparams.cfg, tensors, mparams.indicators)
    for genre in (Genre.FIVE_CHAR, Genre.SEVEN_CHAR):
        req = GenRequest(keywords="月黑雁飞高", genre=genre, beam_width=3, seed=4)
        poem, records = beam_search_generate(req, no_sep, vocab, rules)
        assert validate_structure(poem.lines) == genre
        seps = [r for r in records[:-1] if r["kind"] == "sep"]
        assert [r["line"] for r in seps] == [1, 2, 3]
        assert not any("relaxations" in r for r in seps)
        assert np.isfinite(records[-1]["final_logp"])


def test_mask_excludes_reserved_tokens(world):
    vocab, _, rules = world
    dist = np.full(len(vocab), 1.0 / len(vocab))
    p, relax = mask_row(0, 0, dist, vocab, rules, None, None, False, False, Genre.FIVE_CHAR)
    assert np.all(p[:N_RESERVED] == 0.0)
    assert abs(p.sum() - 1.0) < 1e-12
    assert relax == []


def test_mask_enforces_tone_slot(world):
    vocab, _, rules = world
    template = [t for t in rules.templates if t.template_id == "wu_3"][0]
    assert template.slot(0, 4) == "P"      # known-tone slot
    dist = np.full(len(vocab), 1.0 / len(vocab))
    p, _ = mask_row(0, 4, dist, vocab, rules, template, None, True, True, Genre.FIVE_CHAR)
    from qgen.prosody import Tone
    for idx in range(N_RESERVED, len(vocab)):
        tone = rules.tone_dict.tone(vocab.char(idx))
        if tone == Tone.ZE:
            assert p[idx] == 0.0
        elif tone == Tone.PING:
            assert p[idx] > 0.0


def test_mask_rhyme_binding_and_match(world):
    vocab, _, rules = world
    dist = np.full(len(vocab), 1.0 / len(vocab))
    # line 2 final: only characters with a known rhyme group stay
    p, _ = mask_row(1, 4, dist, vocab, rules, None, None, False, True, Genre.FIVE_CHAR)
    for idx in range(N_RESERVED, len(vocab)):
        known = rules.tone_dict.rhyme_group(vocab.char(idx)) is not None
        assert (p[idx] > 0) == known
    # line 4 final: only the bound group stays
    p, _ = mask_row(3, 4, dist, vocab, rules, None, "ao", False, True, Genre.FIVE_CHAR)
    for idx in range(N_RESERVED, len(vocab)):
        assert (p[idx] > 0) == (rules.tone_dict.rhyme_group(vocab.char(idx)) == "ao")


def test_mask_relaxation_order_and_logging(world):
    vocab, _, rules = world
    # all model mass on a reserved token: rhyme drops first, then tone,
    # then the uniform structural fallback
    dist = np.zeros(len(vocab))
    dist[SEP] = 1.0
    template = [t for t in rules.templates if t.template_id == "wu_3"][0]
    p, relax = mask_row(3, 4, dist, vocab, rules, template, "ao", True, True, Genre.FIVE_CHAR)
    assert [r["dropped"] for r in relax] == ["rhyme", "tone", "model"]
    assert np.all(p[:N_RESERVED] == 0.0)
    assert abs(p.sum() - 1.0) < 1e-12


def reference_mask(line, pos, dist, vocab, tone_dict, template, rhyme_group,
                   tone_on, rhyme_on, genre):
    """Per-character masking loop at a char position: the oracle that the
    table-driven constraint_mask must reproduce bit for bit."""
    p = np.asarray(dist, dtype=np.float64).copy()
    structural = np.zeros_like(p)
    structural[N_RESERVED:] = 1.0
    tone = np.ones_like(p)
    rhyme = np.ones_like(p)
    for idx in range(N_RESERVED, len(p)):
        t = tone_dict.tone(vocab.char(idx))
        g = tone_dict.rhyme_group(vocab.char(idx))
        if tone_on and template is not None:
            slot = template.slot(line, pos)
            if slot != "*" and t != Tone.UNKNOWN and t.value != slot:
                tone[idx] = 0.0
        if rhyme_on and pos == genre.value - 1 and line in (1, 3):
            if g is None or (line == 3 and g != rhyme_group):
                rhyme[idx] = 0.0
    relaxations = []
    masked = p * structural * tone * rhyme
    # only a rule in force at (line, pos) can be relaxed
    if masked.sum() <= 0.0 and rhyme_on and pos == genre.value - 1 and line in (1, 3):
        relaxations.append({"line": line, "pos": pos, "dropped": "rhyme"})
        masked = p * structural * tone
    if masked.sum() <= 0.0 and tone_on and template is not None:
        relaxations.append({"line": line, "pos": pos, "dropped": "tone"})
        masked = p * structural
    if masked.sum() <= 0.0:
        relaxations.append({"line": line, "pos": pos, "dropped": "model"})
        masked = structural.copy()
    return masked / masked.sum(), relaxations


def test_mask_matches_per_character_oracle(world):
    _, _, rules = world
    td = rules.tone_dict
    # every dictionary character, the fixture poems' characters (some of
    # them missing from the dictionary) and one more unknown character
    vocab = build_vocab(POEMS + [Poem(Genre.FIVE_CHAR, ["".join(td.tones) + "瞾"])])
    rng = np.random.default_rng(0)
    dist = rng.random(len(vocab))
    dist /= dist.sum()
    on_reserved = np.zeros(len(vocab))
    on_reserved[SEP] = 1.0
    groups = sorted(set(td.groups.values())) + [None]

    def check(line, pos, dist, template, group, tone_on, rhyme_on, genre):
        got = mask_row(line, pos, dist, vocab, rules, template, group,
                       tone_on, rhyme_on, genre)
        want = reference_mask(line, pos, dist, vocab, td, template, group,
                              tone_on, rhyme_on, genre)
        assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]
        return [r["dropped"] for r in got[1]]

    for genre in (Genre.FIVE_CHAR, Genre.SEVEN_CHAR):
        last = genre.value - 1
        for template in templates_for(rules.templates, genre):
            for line in range(4):
                for pos in range(genre.value):
                    for rhyme_on in (False, True):
                        check(line, pos, dist, template, "ao", True, rhyme_on, genre)
        for line in (1, 3):
            for group in groups:
                check(line, last, dist, None, group, False, True, genre)
        template = templates_for(rules.templates, genre)[0]
        # all mass on a reserved token: each rule in force drops, in order,
        # and no rule that is not in force is logged
        for group in ("ao", None):
            for line, pos, tmpl, tone_on, rhyme_on, dropped in (
                    (3, last, template, True, True, ["rhyme", "tone", "model"]),
                    (0, 0, template, True, True, ["tone", "model"]),
                    (1, 2, template, True, True, ["tone", "model"]),
                    (3, last, None, True, True, ["rhyme", "model"]),
                    (0, 0, None, True, False, ["model"]),
                    (2, last, None, False, True, ["model"]),
                    (3, last, None, False, False, ["model"])):
                assert check(line, pos, on_reserved, tmpl, group,
                             tone_on, rhyme_on, genre) == dropped


def test_slot_allows_agrees_with_template_violations(world):
    _, _, rules = world
    td = rules.tone_dict
    poems = [p.lines for p in POEMS] + [["高高高高高"] * 4, ["月黑雁飞瞾"] * 4]
    for lines in poems:
        best, violations = match_tonal_template(lines, td, rules.templates)
        L = len(lines[0])
        tones = td.tables("".join(lines))[0]
        slots = np.array(list("".join(best.lines)))
        bad = np.flatnonzero(~slot_allows(slots, tones))
        assert violations == [(i // L, i % L, slots[i], tones[i]) for i in bad]


def test_generation_structure_and_determinism(world):
    vocab, mparams, rules = world
    for genre in (Genre.FIVE_CHAR, Genre.SEVEN_CHAR):
        req = GenRequest(keywords="月黑雁飞高", genre=genre, beam_width=3, seed=11)
        poem, records = beam_search_generate(req, mparams, vocab, rules)
        assert validate_structure(poem.lines) == genre
        poem2, _ = beam_search_generate(req, mparams, vocab, rules)
        assert poem.lines == poem2.lines
        assert all(w.count("\n") == 1 and w.endswith("\n") for w in map(written, records))
        assert records[-1]["template"] is not None


def test_beam_one_equals_greedy_argmax(world):
    """With constraints off, beam width 1 is the structurally-masked greedy
    decode; replay it by hand on the searched layout and compare token for token."""
    vocab, mparams, rules = world
    req = GenRequest(keywords="床前明月光", genre=Genre.FIVE_CHAR, beam_width=1,
                     tone=False, rhyme=False, seed=0)
    poem, _ = beam_search_generate(req, mparams, vocab, rules)

    mparams = mparams.laid_out()
    cfg = mparams.cfg
    nodes = mparams.wrap()
    enc = encode(vocab.encode("床前明月光"), nodes, cfg)
    s = init_decoder_state(enc, Genre.FIVE_CHAR, nodes, mparams.indicators)
    prev = BOS
    tokens = []
    for kind, _, _ in position_plan(Genre.FIVE_CHAR):
        s, dist, _ = decode_step(s, prev, enc, nodes, cfg)
        if kind == "sep":
            prev = SEP
        else:
            p = dist.value.copy()
            p[:N_RESERVED] = 0.0
            prev = int(np.argmax(p))
            tokens.append(prev)
    expect = "".join(vocab.char(t) for t in tokens)
    assert "".join(poem.lines) == expect


def per_hypothesis_beam(req, mparams, vocab, rules):
    """Reference beam search: one vector decode_step per live hypothesis, each
    hypothesis carrying its own state and previous id, masked by the
    per-character reference_mask. It decodes the tensors as given: pass
    `mparams.laid_out()` for those the search decodes."""
    bindings = templates_for(rules.templates, req.genre) if req.tone else [None]
    table = rules.tone_dict.tables([vocab.char(i) for i in range(len(vocab))])
    cfg, nodes = mparams.cfg, mparams.wrap()
    keywords = req.keywords.split() if req.sep_keywords else ["".join(req.keywords.split())]
    ids = []
    for ki, kw in enumerate(keywords):
        ids += ([SEP] if ki > 0 else []) + [vocab.id(c) for c in kw]
    enc = encode(ids, nodes, cfg)
    s0 = init_decoder_state(enc, req.genre, nodes, mparams.indicators)
    rng = np.random.Generator(np.random.PCG64(req.seed))
    beam = [{"tokens": [], "state": s0, "prev": BOS, "logp": 0.0, "template": t,
             "group": None, "relax": []} for t in bindings]
    records = []
    for step, (kind, line, pos) in enumerate(position_plan(req.genre)):
        pool = []
        rec = {"step": step, "kind": kind, "line": line, "pos": pos, "candidates": []}
        for hyp in beam:
            s_new, dist, info = decode_step(hyp["state"], hyp["prev"], enc, nodes, cfg)
            relax = []
            if kind == "sep":
                cands = [(SEP, hyp["logp"])]
            else:
                masked, relax = reference_mask(line, pos, dist.value, vocab, rules.tone_dict,
                                               hyp["template"], hyp["group"], req.tone,
                                               req.rhyme, req.genre)
                if relax:
                    rec.setdefault("relaxations", []).extend(relax)
                k = min(req.beam_width, int((masked > 0).sum()))
                ranked = sorted(range(len(masked)), key=lambda i: (-masked[i], i))
                cands = [(i, hyp["logp"] + float(np.log(masked[i]))) for i in ranked[:k]]
            for idx, logp in cands:
                group = hyp["group"]
                if line == 1 and pos == req.genre.value - 1:
                    group = table[1][idx]
                pool.append((logp, {"tokens": hyp["tokens"] + [idx], "state": s_new,
                                    "prev": idx, "logp": logp, "template": hyp["template"],
                                    "group": group, "relax": hyp["relax"] + relax}))
            rec["candidates"].append({
                "prefix": "".join(vocab.char(t) for t in hyp["tokens"] if t >= N_RESERVED),
                "alpha_h": info["alpha_h"], "alpha_x": info["alpha_x"]})
        tie = rng.random(len(pool))
        order = sorted(range(len(pool)), key=lambda i: (-pool[i][0], tie[i]))
        beam = [pool[i][1] for i in order[:req.beam_width]]
        records.append(rec)
    best = beam[0]
    L = req.genre.value
    chars = [vocab.char(t) for t in best["tokens"] if t != SEP]
    lines = ["".join(chars[i * L:(i + 1) * L]) for i in range(4)]
    records.append({"final_logp": best["logp"],
                    "template": best["template"].template_id if best["template"] else None,
                    "rhyme_group": best["group"], "relaxations": best["relax"]})
    return lines, records


BEAM_REQUESTS = [
    dict(keywords=kw, genre=genre, beam_width=beam, tone=tone, rhyme=rhyme, seed=seed)
    for beam in (1, 3, 5)
    for tone, rhyme in ((True, True), (False, False), (True, False), (False, True))
    for kw, genre, seed in (("月黑雁飞高", Genre.FIVE_CHAR, beam),
                            ("朝辞白帝", Genre.SEVEN_CHAR, 7 + beam))
] + [dict(keywords="月黑 雁飞", genre=Genre.FIVE_CHAR, beam_width=beam, seed=2,
          sep_keywords=True) for beam in (1, 3, 5)]
# the same search from a model without the input attention head
NO_INPUT_ATTENTION = [
    dict(keywords=kw, genre=genre, beam_width=beam, seed=beam, input_attention=False)
    for beam in (1, 3)
    for kw, genre in (("月黑雁飞高", Genre.FIVE_CHAR), ("朝辞白帝", Genre.SEVEN_CHAR))]


def request_id(kw):
    return "-".join("%s=%s" % (k, getattr(v, "name", v)) for k, v in kw.items()
                    if k != "keywords")


@pytest.mark.parametrize("kw", BEAM_REQUESTS + NO_INPUT_ATTENTION, ids=request_id)
def test_batched_beam_equals_per_hypothesis_loop(world, kw):
    """The beam decodes its hypotheses as rows of one batch; it must give
    the per-hypothesis loop's poem, step records and final score. Without
    the input attention head every candidate's alpha_x is None."""
    vocab, mparams, rules = world
    kw = dict(kw)
    if not kw.pop("input_attention", True):
        mparams = ModelParams.initialize(replace(mparams.cfg, use_input_attention=False))
    records = assert_beam_matches_oracle(GenRequest(**kw), mparams, vocab, rules)
    alpha_x = [c["alpha_x"] for rec in records[:-1] for c in rec["candidates"]]
    assert alpha_x and all((a is None) != mparams.cfg.use_input_attention for a in alpha_x)


def assert_beam_matches_oracle(req, mparams, vocab, rules):
    poem, records = beam_search_generate(req, mparams, vocab, rules)
    assert_same_search(poem.lines, records,
                       *per_hypothesis_beam(req, mparams.laid_out(), vocab, rules))
    return records


def written(record):
    """The line that the CLI's writer prints for a record."""
    out = io.StringIO()
    _emit(record, file=out)
    return out.getvalue()


def assert_same_search(lines, records, want_lines, expect):
    """Equal poems, step records as the writer prints them, and final scores
    equal to 1e-12."""
    assert lines == want_lines
    assert [written(r) for r in records[:-1]] == [written(r) for r in expect[:-1]]
    got_final, want_final = dict(records[-1]), dict(expect[-1])
    assert abs(got_final.pop("final_logp") - want_final.pop("final_logp")) <= 1e-12
    assert got_final == want_final


@pytest.fixture(scope="module")
def trained_and_reloaded(world, tmp_path_factory):
    """A toy model trained in memory, its layout for generation, and the model
    saved and reloaded, which holds it in float32 with its weight matrices
    column-major."""
    vocab, mparams, _ = world
    trained = ModelParams.initialize(mparams.cfg)
    examples = [build_training_sequence(p, vocab) for p in POEMS]
    train(examples, trained, TrainConfig(epochs=3, minibatch=2, seed=5))
    path = str(tmp_path_factory.mktemp("ckpt") / "toy.ckpt")
    save_checkpoint(path, trained, None, vocab, 3, 5)
    return trained, trained.laid_out(), load_checkpoint(path)[0]


@pytest.mark.parametrize("kw", BEAM_REQUESTS, ids=request_id)
def test_reloaded_checkpoint_generates_as_trained_model(world, trained_and_reloaded, kw):
    """The file holds exactly the in-memory model's layout for generation, and
    a search from memory, from that layout and from the file writes the same
    poem and records, bit for bit."""
    vocab, _, rules = world
    req = GenRequest(**kw)
    (want, expect), *others = [beam_search_generate(req, m, vocab, rules)
                               for m in trained_and_reloaded]
    for poem, records in others:
        assert poem.lines == want.lines
        assert [written(r) for r in records] == [written(r) for r in expect]


@pytest.mark.parametrize("kw", BEAM_REQUESTS, ids=request_id)
def test_float32_checkpoint_generates_the_float64_poems(world, trained_and_reloaded, kw):
    """Decoding in float32 moves no poem of the float64 oracle and scores
    within 1e-5 of it, and the writer prints its step records' attention
    weights to 6 decimals."""
    vocab, _, rules = world
    trained, _, reloaded = trained_and_reloaded
    req = GenRequest(**kw)
    poem, records = beam_search_generate(req, reloaded, vocab, rules)
    want_lines, expect = per_hypothesis_beam(req, trained, vocab, rules)
    assert poem.lines == want_lines
    got_final, want_final = dict(records[-1]), dict(expect[-1])
    assert abs(got_final.pop("final_logp") - want_final.pop("final_logp")) <= 1e-5
    assert got_final == want_final
    logged = [json.loads(written(r)) for r in records[:-1]]
    weights = [w for rec in logged for cand in rec["candidates"]
               for w in cand["alpha_h"] + (cand["alpha_x"] or [])]
    assert weights and all(round(w, 6) == w for w in weights)


def test_layout_is_built_once_and_a_checkpoint_is_its_own(trained_and_reloaded):
    """An in-memory model's layout is float32, its weight matrices but `emb`
    column-major, and built once; a loaded checkpoint's holds its own arrays."""
    trained, laid_out, reloaded = trained_and_reloaded
    assert trained.laid_out() is laid_out
    for name, v in laid_out.tensors.items():
        assert v.dtype == np.float32, name
        np.testing.assert_array_equal(v, trained.tensors[name].astype(np.float32))
        assert v.ndim == 1 or v.flags.f_contiguous == (name != "emb"), name
    assert reloaded.laid_out() is reloaded.laid_out()
    for mine, theirs in ((reloaded.tensors, reloaded.laid_out().tensors),
                         (reloaded.indicators, reloaded.laid_out().indicators)):
        assert mine.keys() == theirs.keys()
        assert all(theirs[k] is v for k, v in mine.items())


def test_search_after_an_epoch_reads_the_new_weights(world):
    """train_epoch steps the masters in place after a search has laid them
    out: the next search decodes the stepped weights, as a fresh copy does."""
    vocab, mparams, rules = world
    model = ModelParams.initialize(mparams.cfg)
    req = GenRequest(keywords="月黑雁飞高", genre=Genre.FIVE_CHAR, beam_width=3, seed=1)
    before = [written(r) for r in beam_search_generate(req, model, vocab, rules)[1]]
    examples = [build_training_sequence(p, vocab) for p in POEMS]
    train_epoch(examples, model, nm.AdaDeltaState(model.tensors), TrainConfig(minibatch=2),
                np.random.default_rng(0))
    after = [written(r) for r in beam_search_generate(req, model, vocab, rules)[1]]
    fresh = ModelParams(model.cfg, {k: v.copy() for k, v in model.tensors.items()},
                        model.indicators)
    expect = [written(r) for r in beam_search_generate(req, fresh, vocab, rules)[1]]
    assert after == expect != before


@pytest.mark.parametrize("tone, rhyme, dropped, masked, in_force", [
    (False, False, None, 0, []), (False, True, None, 2, ["rhyme"]),
    (True, False, None, 20, ["tone"]), (False, False, "model", 20, [])],
    ids=["free", "rhyme", "tone", "no-mass"])
def test_beam_one_masks_only_where_a_rule_is_in_force(world, monkeypatch, tone, rhyme,
                                                      dropped, masked, in_force):
    """At beam 1 a position with no rule in force takes the argmax and skips
    constraint_mask, unless its row has no character mass; every position
    where a rule is in force is masked, under the rules named `in_force`."""
    vocab = world[0]
    mparams, rules = relaxing_setup(world, dropped) if dropped else world[1:]
    calls = []
    mask = constraint_mask

    def record(line, pos, dist, pairs):
        calls.append((line, pos, [rule for rule, _ in pairs]))
        return mask(line, pos, dist, pairs)

    monkeypatch.setattr("qgen.generation.constraint_mask", record)
    req = GenRequest(keywords="月黑雁飞高", genre=Genre.FIVE_CHAR, beam_width=1,
                     tone=tone, rhyme=rhyme, seed=3)
    beam_search_generate(req, mparams, vocab, rules)
    assert [names for _, _, names in calls] == [in_force] * masked
    if rhyme and not tone:
        assert [(line, pos) for line, pos, _ in calls] == [(1, 4), (3, 4)]


def relaxing_setup(world, dropped):
    """Model and rules under which the masks must drop `dropped`: no rhyme
    groups, every character level-toned, or no model mass on any character."""
    vocab, mparams, rules = world
    if dropped == "model":
        tensors = {**mparams.tensors, "out.b": mparams.tensors["out.b"].copy()}
        tensors["out.b"][N_RESERVED:] = -np.inf
        return ModelParams(mparams.cfg, tensors, mparams.indicators), rules
    td = ToneDict()
    if dropped == "rhyme":
        td.tones = rules.tone_dict.tones
    else:
        td.tones = {vocab.char(i): Tone.PING for i in range(N_RESERVED, len(vocab))}
        td.groups = rules.tone_dict.groups
    return mparams, ProsodyRules(tone_dict=td, templates=rules.templates)


@pytest.mark.parametrize("dropped", ["rhyme", "tone", "model"])
@pytest.mark.parametrize("beam, genre", [(1, Genre.FIVE_CHAR), (3, Genre.SEVEN_CHAR)],
                         ids=["beam1-5char", "beam3-7char"])
def test_batched_beam_equals_per_hypothesis_loop_under_relaxation(world, dropped, beam, genre):
    """The relaxations each hypothesis carries match the oracle's, and a
    rhyme is relaxed only where one is in force: the last character of
    lines 2 and 4."""
    vocab = world[0]
    mparams, rules = relaxing_setup(world, dropped)
    req = GenRequest(keywords="月黑雁飞高", genre=genre, beam_width=beam, seed=beam)
    records = assert_beam_matches_oracle(req, mparams, vocab, rules)
    final = records[-1]["relaxations"]
    assert dropped in {r["dropped"] for r in final}
    logged = final + [r for rec in records[:-1] for r in rec.get("relaxations", [])]
    assert {(r["line"], r["pos"]) for r in logged if r["dropped"] == "rhyme"} <= {
        (1, genre.value - 1), (3, genre.value - 1)}


def per_row_mask(line, pos, dist, table, template, rhyme_group, tone_on, rhyme_on, genre):
    """One row's mask as the search took it row by row, from the (tone codes,
    rhyme groups) arrays: the oracle of constraint_mask's rows."""
    p = np.array(dist, dtype=np.float64)
    p[:N_RESERVED] = 0.0
    in_force = []
    if rhyme_on and pos == genre.value - 1 and line in (1, 3):
        rhyme = np.not_equal(table[1], None)
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
        relaxations.append({"line": line, "pos": pos, "dropped": "model"})
        p[N_RESERVED:] = 1.0
        masked = p
    return masked / masked.sum(), relaxations


def per_row_step(dists, logp, table, templates, groups, line, pos, width, genre, rng):
    """A character position taken row by row: one mask call and one
    partition/lexsort per row, a pool of (score, row, id) in row order, and
    the `width` best by descending score, equal scores by one draw per entry."""
    masked_rows, relaxed, pool = [], [], []
    for b, dist in enumerate(dists):
        masked, relax = per_row_mask(line, pos, dist, table, templates[b], groups[b],
                                     True, True, genre)
        masked_rows.append(masked)
        relaxed += [(b, r) for r in relax]
        k = min(width, int((masked > 0).sum()))
        if k:
            ids = np.flatnonzero(masked >= np.partition(masked, -k)[-k])
            pool += [(logp[b] + float(np.log(masked[idx])), b, int(idx))
                     for idx in ids[np.lexsort((ids, -masked[ids]))[:k]]]
    tie = rng.random(len(pool))
    kept = [pool[i] for i in sorted(range(len(pool)), key=lambda i: (-pool[i][0], tie[i]))]
    return np.array(masked_rows), relaxed, pool, kept[:width]


def step_case(vocab, rules, name):
    """(line, pos, genre, dists, templates, bound groups, width) of one
    character position of a beam whose rows differ as `name` says."""
    rng = np.random.default_rng(len(name))
    V = len(vocab)
    dists = rng.random((4, V)).astype(np.float32)
    five = templates_for(rules.templates, Genre.FIVE_CHAR)
    seven = templates_for(rules.templates, Genre.SEVEN_CHAR)
    groups = sorted({rules.tone_dict.rhyme_group(c) for c in vocab.chars} - {None})
    if name == "templates_per_row":
        return 0, 1, Genre.SEVEN_CHAR, dists, seven, [None] * 4, 3
    if name == "float64_rows":
        return 2, 3, Genre.SEVEN_CHAR, dists.astype(np.float64), seven, [None] * 4, 5
    if name == "line4_groups_per_row":
        return 3, 4, Genre.FIVE_CHAR, dists, five, groups[:3] + [None], 5
    if name == "one_row_relaxes":
        dists[2] = 0.0
        dists[2, SEP] = 1.0             # all mass on a reserved token
        return 0, 0, Genre.FIVE_CHAR, dists, five, [None] * 4, 2
    if name == "beam_wider_than_survivors":
        dists[1] = 0.0
        dists[1, [N_RESERVED + 1, V - 1]] = 0.5     # two characters, one of them masked
        dists[3] = 1.0                  # equal probabilities rank by ascending id
        return 1, 2, Genre.FIVE_CHAR, dists, five, [None] * 4, 5
    if name == "beam_wider_than_vocabulary":
        return 1, 4, Genre.FIVE_CHAR, dists, five, [None] * 4, V + 3
    assert name == "beam_one_equal_rows_and_scores"
    dists[:] = 1.0
    return 0, 0, Genre.FIVE_CHAR, dists, [five[0]] * 4, [None] * 4, 1


@pytest.mark.parametrize("name", [
    "templates_per_row", "float64_rows", "line4_groups_per_row", "one_row_relaxes",
    "beam_wider_than_survivors", "beam_wider_than_vocabulary",
    "beam_one_equal_rows_and_scores"])
def test_array_step_equals_the_per_row_step(world, name):
    """One constraint_mask call over the rows, one candidate_pool and one
    keep_best give, bit for bit, the per-row step's masked rows and
    relaxations, its pool in order, and its kept entries."""
    vocab, _, rules = world
    line, pos, genre, dists, templates, groups, width = step_case(vocab, rules, name)
    logp = np.array([-1.25, -1.25, -2.5, -0.75])
    if name == "beam_one_equal_rows_and_scores":
        logp[:] = -1.0                  # every score ties: the draws alone decide
    in_force = rules_in_force(line, pos, rules.vocab_table(vocab), templates, groups,
                              True, True, genre)
    masked, relaxed = constraint_mask(line, pos, dists, in_force)
    rows, ids, scores = candidate_pool(masked, logp, width)
    kept = keep_best(rows, ids, scores, width, np.random.Generator(np.random.PCG64(9)))
    want_masked, want_relaxed, pool, want_kept = per_row_step(
        dists, logp, tables(vocab, rules), templates, groups, line, pos, width, genre,
        np.random.Generator(np.random.PCG64(9)))
    assert masked.dtype == want_masked.dtype and masked.tobytes() == want_masked.tobytes()
    assert relaxed == want_relaxed
    for (r, i, sc), want in (((rows, ids, scores), pool), (kept, want_kept)):
        assert list(zip(r.tolist(), i.tolist())) == [(b, idx) for _, b, idx in want]
        assert sc.tobytes() == np.array([score for score, _, _ in want]).tobytes()
    survivors = (want_masked > 0).sum(axis=1)
    if name == "one_row_relaxes":
        assert {b for b, _ in relaxed} == {2}
    if name.startswith("beam_wider"):
        assert survivors.min() < width
    if name == "beam_one_equal_rows_and_scores":
        assert len(set(scores.tolist())) == 1 and len(pool) == 4


@pytest.mark.parametrize("genre", [Genre.FIVE_CHAR, Genre.SEVEN_CHAR])
def test_separator_steps_skip_the_projection(world, monkeypatch, genre):
    """Only the 4·L character positions project onto the vocabulary, and the
    search equals the oracle's, which projects at every position."""
    vocab, mparams, rules = world
    req = GenRequest(keywords="月黑雁飞高", genre=genre, beam_width=3, seed=5)
    projected = []
    project = model.output_projection
    monkeypatch.setattr(model, "output_projection",
                        lambda *args: projected.append(args) or project(*args))
    poem, records = beam_search_generate(req, mparams, vocab, rules)
    monkeypatch.undo()
    assert len(projected) == 4 * genre.value
    assert_same_search(poem.lines, records,
                       *per_hypothesis_beam(req, mparams.laid_out(), vocab, rules))


def test_equal_probabilities_rank_by_ascending_id(world):
    """Under the uniform "model" fallback every character is equally likely,
    and beam 1 takes the lowest character id at every position."""
    vocab = world[0]
    mparams, rules = relaxing_setup(world, "model")
    req = GenRequest(keywords="月黑雁飞高", genre=Genre.FIVE_CHAR, beam_width=1,
                     tone=False, rhyme=False)
    poem, _ = beam_search_generate(req, mparams, vocab, rules)
    assert poem.lines == [vocab.char(N_RESERVED) * 5] * 4


def test_unknown_keyword_char_warns_and_proceeds(world, caplog):
    vocab, mparams, rules = world
    req = GenRequest(keywords="月黑瞾飞高", genre=Genre.FIVE_CHAR, beam_width=1, seed=1)
    with caplog.at_level(logging.WARNING, logger="qgen.generation"):
        poem, _ = beam_search_generate(req, mparams, vocab, rules)
    assert "not in vocabulary" in caplog.text
    assert validate_structure(poem.lines) == Genre.FIVE_CHAR
    # one warning per unknown occurrence, in keyword order, across separators
    for sep_keywords in (False, True):
        caplog.clear()
        req = GenRequest(keywords="瞾黑 瞾飞龘", genre=Genre.FIVE_CHAR, seed=1,
                         sep_keywords=sep_keywords)
        with caplog.at_level(logging.WARNING, logger="qgen.generation"):
            beam_search_generate(req, mparams, vocab, rules)
        assert [r.getMessage() for r in caplog.records] == [
            "keyword char %r not in vocabulary; using UNK" % c for c in "瞾瞾龘"]


def test_sep_keywords_mode(world, monkeypatch):
    vocab, mparams, rules = world
    encoded = []
    monkeypatch.setattr("qgen.generation.encode",
                        lambda ids, *args: encoded.append(list(ids)) or encode(ids, *args))

    def keyword_ids(keywords, sep_keywords):
        req = GenRequest(keywords=keywords, genre=Genre.FIVE_CHAR, beam_width=1,
                         seed=2, sep_keywords=sep_keywords)
        poem, _ = beam_search_generate(req, mparams, vocab, rules)
        assert validate_structure(poem.lines) == Genre.FIVE_CHAR
        return encoded.pop()

    moon, geese = vocab.encode("月黑"), vocab.encode("雁飞")
    assert keyword_ids("月黑 雁飞", True) == moon + [SEP] + geese
    # without the flag the whitespace is simply squeezed out
    assert keyword_ids("月黑 雁飞", False) == moon + geese
    # any run of whitespace between keywords is one separator; around them, none
    for keywords in ("月黑   雁飞", "月黑\t雁飞", "月黑\u3000雁飞", " 月黑 \u3000\t雁飞\n"):
        assert keyword_ids(keywords, True) == moon + [SEP] + geese
        assert keyword_ids(keywords, False) == moon + geese
    for keywords in (" 月黑雁飞", "月黑雁飞\t", "\u3000月黑雁飞\u3000"):
        assert keyword_ids(keywords, True) == keyword_ids(keywords, False) == moon + geese


def test_one_rules_serves_vocabularies_and_dictionaries_in_turn(world, tmp_path):
    """ProsodyRules keeps the table of the last vocabulary and tone dictionary
    it served: switching the vocabulary, switching back, or replacing the
    dictionary searches as fresh rules do."""
    vocab_a, mparams, rules = world
    vocab_b = build_vocab(POEMS[::-1])      # the same characters under other ids
    assert len(vocab_b) == len(vocab_a) and vocab_b.chars != vocab_a.chars
    flipped = tmp_path / "flipped.tsv"      # every tone swapped, every group renamed
    flipped.write_text("".join("%s\t%s\tx%s\n" % (c, "Z" if t == Tone.PING else "P",
                                                    rules.tone_dict.groups[c])
                               for c, t in rules.tone_dict.tones.items()), encoding="utf-8")
    shared = ProsodyRules(tone_dict=rules.tone_dict, templates=rules.templates)
    searches = set()
    for vocab, tone_dict in ((vocab_a, rules.tone_dict), (vocab_b, rules.tone_dict),
                             (vocab_a, rules.tone_dict), (vocab_a, load_tone_dict(flipped))):
        shared.tone_dict = tone_dict
        fresh = ProsodyRules(tone_dict=tone_dict, templates=rules.templates)
        for genre, beam in ((Genre.FIVE_CHAR, 3), (Genre.SEVEN_CHAR, 2)):
            req = GenRequest(keywords="月黑雁飞高", genre=genre, beam_width=beam, seed=beam)
            poem, records = beam_search_generate(req, mparams, vocab, shared)
            want, expect = beam_search_generate(req, mparams, vocab, fresh)
            assert poem.lines == want.lines
            assert [written(r) for r in records] == [written(r) for r in expect]
            searches.add("".join(written(r) for r in records))
    assert len(searches) == 6               # vocabulary B and the flipped dictionary search anew


def test_no_templates_for_genre_errors(world):
    vocab, mparams, _ = world
    bare = ProsodyRules(tone_dict=None, templates=[])
    req = GenRequest(keywords="月黑雁飞高", genre=Genre.FIVE_CHAR, tone=True)
    with pytest.raises(GenerationError):
        beam_search_generate(req, mparams, vocab, bare)


def test_vocabulary_without_characters_errors_before_decoding(monkeypatch):
    vocab = build_vocab([])
    mparams = ModelParams.initialize(ModelConfig(vocab_size=len(vocab), d=4, H=4, H_dec=4))
    monkeypatch.setattr("qgen.generation.encode",
                        lambda *a, **k: pytest.fail("decoding started"))
    req = GenRequest(keywords="月", genre=Genre.FIVE_CHAR, tone=False, rhyme=False)
    with pytest.raises(GenerationError, match="no characters"):
        beam_search_generate(req, mparams, vocab, ProsodyRules(tone_dict=None, templates=[]))


def test_constraints_without_tone_dict_error_before_decoding(world, monkeypatch):
    vocab, mparams, rules = world
    no_dict = ProsodyRules(tone_dict=None, templates=rules.templates)

    def no_decoding(*args, **kwargs):
        raise AssertionError("decoding started")
    monkeypatch.setattr("qgen.generation.encode", no_decoding)
    for tone, rhyme in ((True, True), (True, False), (False, True)):
        req = GenRequest(keywords="月黑雁飞高", genre=Genre.FIVE_CHAR,
                         tone=tone, rhyme=rhyme)
        with pytest.raises(GenerationError, match="tone dictionary"):
            beam_search_generate(req, mparams, vocab, no_dict)
