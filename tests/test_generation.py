"""Constrained beam search: masks, structure guarantees, determinism."""

import json
import logging

import numpy as np
import pytest

from conftest import data_path, laid_out_for_generation
from qgen.corpus import (BOS, N_RESERVED, SEP, Genre, Poem,
                         build_training_sequence, build_vocab)
from qgen.generation import (GenerationError, GenRequest, ProsodyRules,
                             beam_search_generate, constraint_mask, position_plan)
from qgen.model import ModelConfig, ModelParams, decode_step, encode, init_decoder_state
from qgen.prosody import (Tone, ToneDict, load_templates, load_tone_dict,
                          match_tonal_template, slot_allows, templates_for,
                          validate_structure)
from qgen.training import TrainConfig, load_checkpoint, save_checkpoint, train

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
    p, relax = constraint_mask(0, 0, dist, tables(vocab, rules),
                               None, None, False, False, Genre.FIVE_CHAR)
    assert np.all(p[:N_RESERVED] == 0.0)
    assert abs(p.sum() - 1.0) < 1e-12
    assert relax == []


def test_mask_enforces_tone_slot(world):
    vocab, _, rules = world
    template = [t for t in rules.templates if t.template_id == "wu_3"][0]
    assert template.slot(0, 4) == "P"      # known-tone slot
    dist = np.full(len(vocab), 1.0 / len(vocab))
    p, _ = constraint_mask(0, 4, dist, tables(vocab, rules),
                           template, None, True, True, Genre.FIVE_CHAR)
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
    p, _ = constraint_mask(1, 4, dist, tables(vocab, rules),
                           None, None, False, True, Genre.FIVE_CHAR)
    for idx in range(N_RESERVED, len(vocab)):
        known = rules.tone_dict.rhyme_group(vocab.char(idx)) is not None
        assert (p[idx] > 0) == known
    # line 4 final: only the bound group stays
    p, _ = constraint_mask(3, 4, dist, tables(vocab, rules),
                           None, "ao", False, True, Genre.FIVE_CHAR)
    for idx in range(N_RESERVED, len(vocab)):
        assert (p[idx] > 0) == (rules.tone_dict.rhyme_group(vocab.char(idx)) == "ao")


def test_mask_relaxation_order_and_logging(world):
    vocab, _, rules = world
    # all model mass on a reserved token: rhyme drops first, then tone,
    # then the uniform structural fallback
    dist = np.zeros(len(vocab))
    dist[SEP] = 1.0
    template = [t for t in rules.templates if t.template_id == "wu_3"][0]
    p, relax = constraint_mask(3, 4, dist, tables(vocab, rules),
                               template, "ao", True, True, Genre.FIVE_CHAR)
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
    table = tables(vocab, rules)
    rng = np.random.default_rng(0)
    dist = rng.random(len(vocab))
    dist /= dist.sum()
    on_reserved = np.zeros(len(vocab))
    on_reserved[SEP] = 1.0
    groups = sorted(set(td.groups.values())) + [None]

    def check(line, pos, dist, template, group, tone_on, rhyme_on, genre):
        got = constraint_mask(line, pos, dist, table, template, group,
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
        assert all("\n" not in json.dumps(r, ensure_ascii=False) for r in records)
        assert records[-1]["template"] is not None


def test_beam_one_equals_greedy_argmax(world):
    """With constraints off, beam width 1 is the structurally-masked greedy
    decode; replay it by hand and compare token for token."""
    vocab, mparams, rules = world
    req = GenRequest(keywords="床前明月光", genre=Genre.FIVE_CHAR, beam_width=1,
                     tone=False, rhyme=False, seed=0)
    poem, _ = beam_search_generate(req, mparams, vocab, rules)

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
    hypothesis carrying its own state and previous id."""
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
                masked, relax = constraint_mask(line, pos, dist.value, table, hyp["template"],
                                                hyp["group"], req.tone, req.rhyme, req.genre)
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
                "alpha_h": np.round(info["alpha_h"], 6).tolist(),
                "alpha_x": np.round(info["alpha_x"], 6).tolist()})
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


def request_id(kw):
    return "-".join("%s=%s" % (k, getattr(v, "name", v)) for k, v in kw.items()
                    if k != "keywords")


@pytest.mark.parametrize("kw", BEAM_REQUESTS, ids=request_id)
def test_batched_beam_equals_per_hypothesis_loop(world, kw):
    """The beam decodes its hypotheses as rows of one batch; it must give
    the per-hypothesis loop's poem, step records and final score."""
    vocab, mparams, rules = world
    assert_beam_matches_oracle(GenRequest(**kw), mparams, vocab, rules)


def assert_beam_matches_oracle(req, mparams, vocab, rules):
    poem, records = beam_search_generate(req, mparams, vocab, rules)
    assert_same_search(poem.lines, records, *per_hypothesis_beam(req, mparams, vocab, rules))
    return records


def assert_same_search(lines, records, want_lines, expect):
    """Equal poems and step records, and final scores equal to 1e-12."""
    assert lines == want_lines
    assert ([json.dumps(r, ensure_ascii=False) for r in records[:-1]]
            == [json.dumps(r, ensure_ascii=False) for r in expect[:-1]])
    got_final, want_final = dict(records[-1]), dict(expect[-1])
    assert abs(got_final.pop("final_logp") - want_final.pop("final_logp")) <= 1e-12
    assert got_final == want_final


@pytest.fixture(scope="module")
def trained_and_reloaded(world, tmp_path_factory):
    """A toy model trained in memory, that model passed through the loader's
    cast and layout rule, and the model saved and reloaded, which holds it in
    float32 with its weight matrices column-major."""
    vocab, mparams, _ = world
    trained = ModelParams.initialize(mparams.cfg)
    examples = [build_training_sequence(p, vocab) for p in POEMS]
    train(examples, trained, TrainConfig(epochs=3, minibatch=2, seed=5))
    path = str(tmp_path_factory.mktemp("ckpt") / "toy.ckpt")
    save_checkpoint(path, trained, None, vocab, 3, 5)
    return trained, laid_out_for_generation(trained), load_checkpoint(path)[0]


@pytest.mark.parametrize("kw", BEAM_REQUESTS, ids=request_id)
def test_reloaded_checkpoint_generates_as_trained_model(world, trained_and_reloaded, kw):
    """The file holds exactly the in-memory model under the loader's cast and layout."""
    vocab, _, rules = world
    _, laid_out, reloaded = trained_and_reloaded
    req = GenRequest(**kw)
    poem, records = beam_search_generate(req, reloaded, vocab, rules)
    want, expect = beam_search_generate(req, laid_out, vocab, rules)
    assert_same_search(poem.lines, records, want.lines, expect)


@pytest.mark.parametrize("kw", BEAM_REQUESTS, ids=request_id)
def test_float32_checkpoint_generates_the_float64_poems(world, trained_and_reloaded, kw):
    """Decoding in float32 moves no poem and scores within 1e-5 of float64,
    and its step records keep 6-decimal attention weights."""
    vocab, _, rules = world
    trained, _, reloaded = trained_and_reloaded
    req = GenRequest(**kw)
    poem, records = beam_search_generate(req, reloaded, vocab, rules)
    want, expect = beam_search_generate(req, trained, vocab, rules)
    assert poem.lines == want.lines
    got_final, want_final = dict(records[-1]), dict(expect[-1])
    assert abs(got_final.pop("final_logp") - want_final.pop("final_logp")) <= 1e-5
    assert got_final == want_final
    weights = [w for rec in records[:-1] for cand in rec["candidates"]
               for w in cand["alpha_h"] + (cand["alpha_x"] or [])]
    assert weights and all(round(w, 6) == w for w in weights)


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


def test_sep_keywords_mode(world):
    vocab, mparams, rules = world
    req = GenRequest(keywords="月黑 雁飞", genre=Genre.FIVE_CHAR, beam_width=1,
                     seed=2, sep_keywords=True)
    poem, _ = beam_search_generate(req, mparams, vocab, rules)
    assert validate_structure(poem.lines) == Genre.FIVE_CHAR
    # without the flag the whitespace is simply squeezed out
    req2 = GenRequest(keywords="月黑 雁飞", genre=Genre.FIVE_CHAR, beam_width=1, seed=2)
    poem2, _ = beam_search_generate(req2, mparams, vocab, rules)
    assert validate_structure(poem2.lines) == Genre.FIVE_CHAR


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
