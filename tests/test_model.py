"""Model wiring: genre indicators, encoder symmetry, batch equivalence."""

import numpy as np
import pytest

from qgen import numerics as nm
from qgen.corpus import BOS, N_RESERVED, Genre, Poem, build_vocab
from qgen.embeddings import EmbeddingMatrix
from qgen.model import (INDICATOR_DIM, ModelConfig, ModelParams, decode_step,
                        encode, init_decoder_state, make_type_indicators,
                        param_shapes)


def small_model(seed=0, **kw):
    cfg = ModelConfig(vocab_size=20, d=6, H=5, H_dec=7, seed=seed, **kw)
    return cfg, ModelParams.initialize(cfg)


def test_config_rejects_non_positive_sizes():
    for bad in ({"vocab_size": 0}, {"d": 0}, {"H": 0}, {"H_dec": -1}):
        with pytest.raises(ValueError, match=">= 1"):
            ModelConfig(**{"vocab_size": 10, **bad})


def test_indicators_unit_norm_and_deterministic():
    a = make_type_indicators(42)
    b = make_type_indicators(42)
    c = make_type_indicators(43)
    for g in (Genre.FIVE_CHAR, Genre.SEVEN_CHAR):
        assert a[g].shape == (INDICATOR_DIM,)
        assert abs(np.linalg.norm(a[g]) - 1.0) < 1e-12
        np.testing.assert_array_equal(a[g], b[g])
        assert not np.array_equal(a[g], c[g])
    # eigenvectors of a symmetric matrix: orthogonal, and distinct per genre
    assert abs(a[Genre.FIVE_CHAR] @ a[Genre.SEVEN_CHAR]) < 1e-10


def test_indicators_known_matrix_oracle():
    # diagonal matrix: eigenvectors are the standard basis, largest first
    d = np.zeros(INDICATOR_DIM)
    d[3], d[11] = 5.0, 4.0
    ind = make_type_indicators(0, matrix=np.diag(d))
    e3 = np.zeros(INDICATOR_DIM)
    e3[3] = 1.0
    e11 = np.zeros(INDICATOR_DIM)
    e11[11] = 1.0
    np.testing.assert_allclose(ind[Genre.FIVE_CHAR], e3, atol=1e-12)
    np.testing.assert_allclose(ind[Genre.SEVEN_CHAR], e11, atol=1e-12)


def test_param_shapes_match_initialized_tensors():
    cfg, mp = small_model()
    shapes = param_shapes(cfg)
    assert set(mp.tensors) == set(shapes)
    for name, shape in shapes.items():
        assert mp.tensors[name].shape == shape, name
    # input attention off drops the second attention head and shrinks inputs
    cfg2, mp2 = small_model(use_input_attention=False)
    assert "attn_x.W" not in mp2.tensors
    assert mp2.tensors["dec.Wz"].shape[1] == mp.tensors["dec.Wz"].shape[1] - cfg.d


def _gru(prefix, n, H):
    return [(prefix + ".Wz", (H, n)), (prefix + ".Uz", (H, H)), (prefix + ".bz", (H,)),
            (prefix + ".Wr", (H, n)), (prefix + ".Ur", (H, H)), (prefix + ".br", (H,)),
            (prefix + ".Wh", (H, n)), (prefix + ".Uh", (H, H)), (prefix + ".bh", (H,))]


def test_param_shapes_order_is_pinned():
    """The ordered (name, shape) list is initialize's draw order and the
    checkpoint header's tensor map: d 2, H 3, H_dec 5, V 17, each input
    attention setting."""
    on = (_gru("enc_f", 2, 3) + _gru("enc_b", 2, 3) + _gru("dec", 10, 5)
          + [("attn_h.W", (5, 5)), ("attn_h.U", (5, 6)), ("attn_h.v", (5,)),
             ("attn_x.W", (5, 5)), ("attn_x.U", (5, 2)), ("attn_x.v", (5,)),
             ("out.W", (17, 13)), ("out.b", (17,)), ("init.W", (5, 203)), ("init.b", (5,))])
    off = (_gru("enc_f", 2, 3) + _gru("enc_b", 2, 3) + _gru("dec", 8, 5)
           + [("attn_h.W", (5, 5)), ("attn_h.U", (5, 6)), ("attn_h.v", (5,)),
              ("out.W", (17, 11)), ("out.b", (17,)), ("init.W", (5, 203)), ("init.b", (5,))])
    for flag, want in ((True, on), (False, off)):
        cfg = ModelConfig(vocab_size=17, d=2, H=3, H_dec=5, use_input_attention=flag)
        assert list(param_shapes(cfg).items()) == [("emb", (17, 2))] + want


def test_sequence_loss_gradients_without_input_attention():
    """Finite differences of a B=2 teacher-forced sequence loss through the
    model with the input attention head off, under acceptance 1's 1e-4."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(vocab_size=16, d=5, H=4, H_dec=6, use_input_attention=False,
                          seed=seed)
        mp = ModelParams.initialize(cfg)
        inputs, targets = rng.integers(5, 16, size=(2, 5)), rng.integers(5, 16, size=(2, 6))

        def build(nodes):
            enc = encode(inputs, nodes, cfg)
            s = init_decoder_state(enc, Genre.FIVE_CHAR, nodes, mp.indicators)
            prev, terms = np.full(2, BOS), []
            for t in range(targets.shape[1]):
                s, dist, info = decode_step(s, prev, enc, nodes, cfg)
                assert info["alpha_x"] is None
                terms.append(nm.mean_all(nm.cross_entropy_rows(dist, targets[:, t])))
                prev = targets[:, t]
            return nm.mean_of(terms)
        res = nm.grad_check(build, mp.tensors, sample=3, rng=np.random.default_rng(seed))
        assert res["max_rel_error"] < 1e-4, (seed, res["worst"])


def test_pretrained_vectors_are_used():
    vocab = build_vocab([Poem(Genre.FIVE_CHAR, ["白日依山尽", "黄河入海流",
                                                "欲穷千里目", "更上一层楼"])])
    cfg = ModelConfig(vocab_size=len(vocab), d=4, H=3, H_dec=5, seed=1)
    chars = [c for c, i in vocab.char_to_id.items() if i >= N_RESERVED]
    vectors = EmbeddingMatrix(chars, np.arange(4.0 * len(chars)).reshape(-1, 4))
    mp = ModelParams.initialize(cfg)
    vectors.copy_into(mp.tensors["emb"], vocab)
    np.testing.assert_array_equal(mp.tensors["emb"][N_RESERVED:], vectors.matrix)
    with pytest.raises(ValueError, match="pretrained dimension 4 != model dimension 5"):
        vectors.copy_into(np.zeros((len(vocab), 5)), vocab)


def test_encoder_reversal_symmetry():
    """Swapping the direction parameters and reversing the input mirrors the
    states with their forward/backward halves exchanged."""
    cfg, mp = small_model(seed=5)
    ids = [5, 9, 12, 7, 5, 15]
    enc = encode(ids, mp.wrap(), cfg)

    swapped = dict(mp.tensors)
    for k in list(swapped):
        if k.startswith("enc_f."):
            tail = k[len("enc_f."):]
            swapped[k] = mp.tensors["enc_b." + tail]
            swapped["enc_b." + tail] = mp.tensors["enc_f." + tail]
    mp2 = ModelParams(cfg, swapped, mp.indicators)
    enc2 = encode(ids[::-1], mp2.wrap(), cfg)

    H = cfg.H
    T = len(ids)
    for i in range(T):
        mirrored = enc2.memories["h"][0].value[T - 1 - i]
        np.testing.assert_allclose(enc.memories["h"][0].value[i, :H], mirrored[H:], atol=1e-12)
        np.testing.assert_allclose(enc.memories["h"][0].value[i, H:], mirrored[:H], atol=1e-12)
    # the reversed run's back_final is the original forward chain's final state
    np.testing.assert_allclose(enc2.back_final.value,
                               enc.memories["h"][0].value[-1, :H], atol=1e-12)


def test_encode_batch_matches_vector_path():
    cfg, mp = small_model(seed=3)
    seqs = [[5, 6, 7, 8, 9], [10, 11, 5, 6, 12], [7, 7, 7, 7, 7]]
    encb = encode(np.array(seqs), mp.wrap(), cfg)
    for b, ids in enumerate(seqs):
        encv = encode(ids, mp.wrap(), cfg)
        for t in range(len(ids)):
            np.testing.assert_allclose(encb.memories["h"][0].value[b, t],
                                       encv.memories["h"][0].value[t], atol=1e-12)
        np.testing.assert_allclose(encb.back_final.value[b],
                                   encv.back_final.value, atol=1e-12)


def test_decode_step_batch_matches_vector_path():
    cfg, mp = small_model(seed=8)
    seqs = [[5, 6, 7], [8, 9, 10]]
    nodes = mp.wrap()
    encb = encode(np.array(seqs), nodes, cfg)
    sb = init_decoder_state(encb, Genre.FIVE_CHAR, nodes, mp.indicators)
    sb, distb, infob = decode_step(sb, np.array([6, 9]), encb, nodes, cfg)
    for b, (ids, prev) in enumerate(zip(seqs, (6, 9))):
        nv = mp.wrap()
        encv = encode(ids, nv, cfg)
        sv = init_decoder_state(encv, Genre.FIVE_CHAR, nv, mp.indicators)
        sv, distv, infov = decode_step(sv, prev, encv, nv, cfg)
        np.testing.assert_allclose(distb.value[b], distv.value, atol=1e-12)
        np.testing.assert_allclose(sb.value[b], sv.value, atol=1e-12)
        np.testing.assert_allclose(infob["alpha_h"][b], infov["alpha_h"], atol=1e-12)

    # B state rows sharing one 1-D encoding, as beam search decodes its hypotheses
    nodes = mp.wrap()
    enc = encode(seqs[0], nodes, cfg)
    s0 = init_decoder_state(enc, Genre.FIVE_CHAR, nodes, mp.indicators).value
    rows = s0 + np.random.default_rng(3).normal(scale=0.1, size=(3,) + s0.shape)
    prevs = np.array([4, 6, 9])
    sb, distb, infob = decode_step(nm.constant(rows), prevs, enc, nodes, cfg)
    assert distb.value.shape == (3, cfg.vocab_size)
    for b in range(3):
        sv, distv, infov = decode_step(nm.constant(rows[b]), prevs[b], enc, nodes, cfg)
        np.testing.assert_allclose(distb.value[b], distv.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sb.value[b], sv.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(infob["alpha_h"][b], infov["alpha_h"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(infob["alpha_x"][b], infov["alpha_x"], rtol=0, atol=1e-12)


def test_decode_step_distribution_and_genre_state():
    cfg, mp = small_model(seed=2)
    nodes = mp.wrap()
    enc = encode([5, 6, 7, 8, 9], nodes, cfg)
    s5 = init_decoder_state(enc, Genre.FIVE_CHAR, nodes, mp.indicators)
    s7 = init_decoder_state(enc, Genre.SEVEN_CHAR, nodes, mp.indicators)
    assert s5.value.shape == (cfg.H_dec,)
    assert not np.allclose(s5.value, s7.value)   # genre changes the init state
    _, dist, info = decode_step(s5, 3, enc, nodes, cfg)
    assert dist.value.shape == (cfg.vocab_size,)
    assert abs(dist.value.sum() - 1.0) < 1e-12
    assert np.all(dist.value > 0)
    assert abs(info["alpha_h"].sum() - 1.0) < 1e-12
    assert abs(info["alpha_x"].sum() - 1.0) < 1e-12


def test_float32_parameters_encode_and_start_decoding_in_float32():
    """The encoder's zero state and the genre indicator take the parameters'
    dtype, so a float64 operand never upcasts a float32 model's products."""
    cfg, mp = small_model(seed=4)
    nodes = {k: nm.Node(v.astype(np.float32)) for k, v in mp.tensors.items()}
    enc = encode(np.array([[5, 6, 7], [8, 9, 10]]), nodes, cfg)
    s0 = init_decoder_state(enc, Genre.FIVE_CHAR, nodes, mp.indicators)    # float64 indicators
    s1, dist, info = decode_step(s0, np.array([6, 9]), enc, nodes, cfg)
    for value in (*(node.value for node in enc.memories["h"]), enc.back_final.value, s0.value,
                  s1.value, dist.value, info["alpha_h"], info["alpha_x"]):
        assert value.dtype == np.float32


def test_encode_rejects_empty_and_bad_rank():
    cfg, mp = small_model()
    with pytest.raises(ValueError):
        encode([], mp.wrap(), cfg)
    with pytest.raises(ValueError):
        encode(np.zeros((2, 3, 4), dtype=np.intp), mp.wrap(), cfg)
