"""Skip-gram pretraining: pair enumeration, gradients, reproducibility."""

import codecs

import numpy as np
import pytest

from conftest import BAD_EMBEDDINGS, data_path
from qgen import embeddings
from qgen.corpus import N_RESERVED, Genre, Poem, build_vocab, parse_corpus
from qgen.model import ModelConfig, ModelParams
from qgen.embeddings import (SGD_LR, EmbeddingMatrix, center_loss,
                             center_loss_grads, negative_sampling_table,
                             skipgram_pairs, train_skipgram)


def cosine(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def reference_skipgram(chars, window, d, negatives, epochs, seed):
    """The per-center loop: one draw of negatives per center, shared by its
    pairs; every pair's gradients from the rows as they were before the
    center; then the output-row updates in turn and the center's summed step."""
    order = list(dict.fromkeys(chars))
    ids = [order.index(c) for c in chars]
    neg_p = negative_sampling_table(np.bincount(ids, minlength=len(order)))
    rng = np.random.Generator(np.random.PCG64(seed))
    V = len(order)
    vec_in = rng.uniform(-0.5 / d, 0.5 / d, size=(V, d))
    vec_out = np.zeros((V, d))
    n = len(ids)
    for _ in range(epochs):
        for i in range(n):
            c = ids[i]
            contexts = [ids[j] for j in range(max(0, i - window), min(n, i + window + 1))
                        if j != i]
            negs = rng.choice(V, size=negatives, p=neg_p)
            u = vec_in[c].copy()
            du, updates = np.zeros(d), []
            for ctx in contexts:
                v = vec_out[ctx]
                gpos = 1.0 / (1.0 + np.exp(-np.dot(u, v))) - 1.0
                du = du + gpos * v
                updates.append((ctx, gpos * u))
                for k in negs:
                    gneg = 1.0 / (1.0 + np.exp(-np.dot(u, vec_out[k])))
                    du = du + gneg * vec_out[k]
                    updates.append((k, gneg * u))
            for row, dv in updates:
                vec_out[row] -= SGD_LR * dv
            vec_in[c] = u - SGD_LR * du
    return order, vec_in


def test_skipgram_pairs_matches_brute_force():
    for n, window in ((1, 1), (5, 2), (9, 3), (12, 5)):
        got = sorted(skipgram_pairs(list(range(n)), window))
        expect = sorted((i, j) for i in range(n) for j in range(n)
                        if i != j and abs(i - j) <= window)
        assert got == expect


def test_negative_sampling_table():
    freqs = np.array([1.0, 16.0, 81.0])
    p = negative_sampling_table(freqs)
    assert abs(p.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(p, np.array([1.0, 8.0, 27.0]) / 36.0, atol=1e-12)
    assert p[0] < p[1] < p[2]


@pytest.mark.parametrize("n_ctx", [1, 3, 10])
def test_center_loss_grads_match_finite_differences(n_ctx):
    rng = np.random.default_rng(0)
    h = 1e-6
    for trial in range(20):
        d = 5
        u = rng.normal(size=d)
        rows = [rng.normal(size=d) for _ in range(n_ctx + 3)]  # the contexts, then 3 negatives
        if trial % 2:                       # rows as a (n_ctx + k, d) array
            rows = np.array(rows)
        du, drows = center_loss_grads(u, rows, n_ctx)

        def fd(vec, grad):
            for i in range(d):
                orig = vec[i]
                vec[i] = orig + h
                fp = center_loss(u, rows, n_ctx)
                vec[i] = orig - h
                fm = center_loss(u, rows, n_ctx)
                vec[i] = orig
                assert abs(grad[i] - (fp - fm) / (2 * h)) < 1e-5
        fd(u, du)
        for row, drow in zip(rows, drows):
            fd(row, drow)


@pytest.mark.parametrize("stream, window, negatives", [
    ([c for p in parse_corpus(data_path("sample_corpus.txt")).poems for c in p.chars()],
     5, 5),
    # 5 draws from 3 characters: every draw repeats a negative
    (list("甲乙丙"), 2, 5),
    # every window holds a context twice, beside distinct negatives
    (list("甲乙" * 20), 3, 2),
    # a window as wide as the stream: every center sees every other character
    (list("白日依山尽黄河入海流"), 9, 3),
], ids=["sample corpus", "repeated negatives", "repeated contexts", "window spans the stream"])
def test_training_matches_per_center_reference(stream, window, negatives):
    order, expect = reference_skipgram(stream, window, 16, negatives, 2, seed=3)
    got = train_skipgram(stream, window=window, d=16, negatives=negatives,
                         epochs=2, seed=3)
    assert got.chars == order
    np.testing.assert_allclose(got.matrix, expect, rtol=1e-10, atol=1e-12)


def test_training_calls_the_center_kernel_once_per_center(monkeypatch):
    """One kernel call per character of the stream per epoch, through the
    module attribute, so that a tracer can wrap it."""
    calls = []
    kernel = embeddings.center_loss_grads

    def counted(u, rows, n_ctx):
        calls.append(n_ctx)
        return kernel(u, rows, n_ctx)
    monkeypatch.setattr(embeddings, "center_loss_grads", counted)
    stream = list("白日依山尽黄河入海流" * 3)
    train_skipgram(stream, window=3, d=4, negatives=2, epochs=2, seed=0)
    assert len(calls) == 2 * len(stream)
    assert sum(calls) == 2 * len(list(skipgram_pairs(stream, 3)))


def test_training_deterministic():
    stream = list("甲乙甲乙甲乙丙丁丙丁丙丁" * 12)
    a = train_skipgram(stream, window=1, d=8, negatives=2, epochs=3, seed=5)
    b = train_skipgram(stream, window=1, d=8, negatives=2, epochs=3, seed=5)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    c = train_skipgram(stream, window=1, d=8, negatives=2, epochs=3, seed=6)
    assert not np.array_equal(a.matrix, c.matrix)


def test_training_learns_distributional_similarity():
    # 甲 and 乙 only ever appear in the context of 中: their input vectors
    # should converge, while the directly co-occurring pair need not
    stream = list("甲中乙中" * 40)
    a = train_skipgram(stream, window=1, d=8, negatives=2, epochs=10, seed=5)
    same_context = cosine(a.vector("甲"), a.vector("乙"))
    cooccurring = cosine(a.vector("甲"), a.vector("中"))
    assert same_context > 0.9
    assert same_context > cooccurring + 0.5


def test_save_load_roundtrip(tmp_path):
    stream = list("白日依山尽黄河入海流" * 6)
    emb = train_skipgram(stream, window=2, d=6, negatives=2, seed=0)
    path = tmp_path / "emb.txt"
    emb.save_text(str(path))
    loaded = EmbeddingMatrix.load_text(str(path))
    assert loaded.chars == emb.chars
    np.testing.assert_array_equal(loaded.matrix, emb.matrix)


def test_load_text_ignores_byte_order_mark(tmp_path):
    emb = train_skipgram(list("白日依山尽黄河入海流" * 3), window=2, d=3, negatives=2, seed=0)
    plain, bom = tmp_path / "emb.txt", tmp_path / "bom.txt"
    emb.save_text(str(plain))
    bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    loaded = EmbeddingMatrix.load_text(str(bom))
    assert loaded.chars == emb.chars
    np.testing.assert_array_equal(loaded.matrix, emb.matrix)
    # a bad byte still names its own line
    bom.write_bytes(codecs.BOM_UTF8 + b"2 2\na 0.5 0.25\n\xff 0.25 0.5\n")
    with pytest.raises(ValueError, match="bom.txt line 3: 'utf-8' codec can't decode"):
        EmbeddingMatrix.load_text(str(bom))


def test_copy_into_copies_pretrained_rows():
    poems = [Poem(Genre.FIVE_CHAR, ["白日依山尽", "黄河入海流",
                                    "欲穷千里目", "更上一层楼"])]
    vocab = build_vocab(poems)
    stream = [c for p in poems for c in p.chars()]
    emb = train_skipgram(stream, window=2, d=6, negatives=2, seed=0)
    mat = ModelParams.initialize(ModelConfig(vocab_size=len(vocab), d=6, seed=1)).tensors["emb"]
    emb.copy_into(mat, vocab)
    np.testing.assert_array_equal(mat[vocab.id("白")], emb.vector("白"))
    # reserved rows come from the seeded init, inside the init range
    assert np.all(np.abs(mat[:N_RESERVED]) <= 0.08)
    with pytest.raises(ValueError, match="pretrained dimension 6 != model dimension 7"):
        emb.copy_into(np.zeros((len(vocab), 7)), vocab)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_copy_into_changes_only_rows_with_a_vector(seed):
    """Every other tensor, every reserved row and every row of a character
    without a vector keep the plain seeded draw."""
    vocab = build_vocab([Poem(Genre.FIVE_CHAR, ["白日依山尽", "黄河入海流",
                                                "欲穷千里目", "更上一层楼"])])
    cfg = ModelConfig(vocab_size=len(vocab), d=3, H=2, H_dec=2, seed=seed)
    rng = np.random.default_rng(seed)
    in_vocab = [c for c, i in vocab.char_to_id.items() if i >= N_RESERVED]
    # outside the init range, so a copied row cannot pass for a drawn one
    chars = ["<unk>", "<pad>", "雁", "鸿"] + list(rng.choice(in_vocab, 8, replace=False))
    vectors = EmbeddingMatrix(chars, 1.0 + rng.random((len(chars), 3)))
    plain = ModelParams.initialize(cfg)
    mp = ModelParams.initialize(cfg)
    vectors.copy_into(mp.tensors["emb"], vocab)
    for name, tensor in plain.tensors.items():
        if name != "emb":
            np.testing.assert_array_equal(mp.tensors[name], tensor, err_msg=name)
    emb, drawn = mp.tensors["emb"], plain.tensors["emb"]
    copied = {vocab.id(c) for c in chars[4:]}
    for idx in range(len(vocab)):
        if idx in copied:
            np.testing.assert_array_equal(emb[idx], vectors.vector(vocab.char(idx)))
        else:
            np.testing.assert_array_equal(emb[idx], drawn[idx])
    assert len(copied) == 8 and min(copied) >= N_RESERVED


def test_embedding_matrix_validation_and_args():
    with pytest.raises(ValueError):
        EmbeddingMatrix(["a", "b"], np.zeros((3, 4)))
    with pytest.raises(ValueError):
        train_skipgram(list("abcdef"), window=0)
    with pytest.raises(ValueError):
        train_skipgram(list("ab"), window=5)
    with pytest.raises(ValueError, match="epochs"):
        train_skipgram(list("abcdef"), window=2, epochs=0)


@pytest.mark.parametrize("case", sorted(BAD_EMBEDDINGS))
def test_load_text_names_path_and_line(tmp_path, case):
    text, line = BAD_EMBEDDINGS[case]
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="emb.txt %s:" % line):
        EmbeddingMatrix.load_text(str(path))


def test_load_text_names_the_line_of_a_bad_byte(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes("3 2\na 0.5 0.25\n雁 0.5 0.5\n".encode("utf-8") + b"\xff 0.25 0.5\n")
    with pytest.raises(ValueError, match="emb.txt line 4: 'utf-8' codec can't decode"):
        EmbeddingMatrix.load_text(str(path))
