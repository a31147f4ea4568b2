"""Model wiring: genre indicators, encoder symmetry, batch equivalence."""

import numpy as np
import pytest

from qgen import numerics as nm
from qgen.corpus import Genre
from qgen.model import (INDICATOR_DIM, ModelConfig, ModelParams, decode_step,
                        encode, init_decoder_state, make_type_indicators,
                        param_shapes)


def small_model(seed=0, **kw):
    cfg = ModelConfig(vocab_size=20, d=6, H=5, H_dec=7, seed=seed, **kw)
    return cfg, ModelParams.initialize(cfg)


def test_config_rejects_non_positive_sizes():
    for bad in ({"vocab_size": 0}, {"d": 0}, {"H": 0}, {"H_dec": -1}, {"A": -1}):
        with pytest.raises(ValueError, match=">= 1"):
            ModelConfig(**{"vocab_size": 10, **bad})
    assert ModelConfig(vocab_size=10, d=1, H=1, H_dec=1).A == 1


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
    assert cfg2.dec_input_dim == cfg.dec_input_dim - cfg.d


def test_pretrained_embedding_is_used():
    cfg = ModelConfig(vocab_size=9, d=4, H=3, H_dec=5, seed=1)
    emb = np.arange(36, dtype=np.float64).reshape(9, 4)
    mp = ModelParams.initialize(cfg, pretrained_embedding=emb)
    np.testing.assert_array_equal(mp.tensors["emb"], emb)
    with pytest.raises(nm.ShapeError):
        ModelParams.initialize(cfg, pretrained_embedding=np.zeros((9, 5)))


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
        mirrored = enc2.states.value[T - 1 - i]
        np.testing.assert_allclose(enc.states.value[i, :H], mirrored[H:], atol=1e-12)
        np.testing.assert_allclose(enc.states.value[i, H:], mirrored[:H], atol=1e-12)
    # the reversed run's back_final is the original forward chain's final state
    np.testing.assert_allclose(enc2.back_final.value,
                               enc.states.value[-1, :H], atol=1e-12)


def test_encode_batch_matches_vector_path():
    cfg, mp = small_model(seed=3)
    seqs = [[5, 6, 7, 8, 9], [10, 11, 5, 6, 12], [7, 7, 7, 7, 7]]
    encb = encode(np.array(seqs), mp.wrap(), cfg)
    for b, ids in enumerate(seqs):
        encv = encode(ids, mp.wrap(), cfg)
        for t in range(len(ids)):
            np.testing.assert_allclose(encb.states.value[b, t],
                                       encv.states.value[t], atol=1e-12)
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


def test_encode_rejects_empty_and_bad_rank():
    cfg, mp = small_model()
    with pytest.raises(ValueError):
        encode([], mp.wrap(), cfg)
    with pytest.raises(ValueError):
        encode(np.zeros((2, 3, 4), dtype=np.intp), mp.wrap(), cfg)
