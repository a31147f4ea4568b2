"""Autodiff ops against finite differences and hand-rolled oracles."""

import numpy as np
import pytest

from qgen import numerics as nm

TOL = 1e-4
N_SEEDS = 20


def weighted_scalar(out, w):
    """Reduce an op output to a scalar with fixed non-uniform weights."""
    return nm.mean_all(nm.mul(out, nm.constant(w)))


def run_fd(build, params, seed, sample=None):
    res = nm.grad_check(build, params, sample=sample,
                        rng=np.random.default_rng(seed))
    assert res["max_rel_error"] < TOL, res["worst"]


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_elementwise_ops_fd(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    params = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
    w = rng.normal(size=n)

    def build(nodes):
        x = nm.add(nodes["a"], nodes["b"])
        x = nm.mul(x, nodes["a"])
        x = nm.scale(x, 0.7)
        x = nm.sigmoid(x)
        x = nm.tanh(x)
        return weighted_scalar(x, w)
    run_fd(build, params, seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_affine_concat_fd(seed):
    rng = np.random.default_rng(seed)
    n, m, k = (int(x) for x in rng.integers(2, 6, size=3))
    params = {"W": rng.normal(size=(m, n + k)), "b": rng.normal(size=m),
              "x": rng.normal(size=n), "y": rng.normal(size=k)}
    w = rng.normal(size=m)

    def build(nodes):
        joined = nm.concat([nodes["x"], nodes["y"]])
        return weighted_scalar(nm.affine(nodes["W"], joined, nodes["b"]), w)
    run_fd(build, params, seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_affine_batched_fd(seed):
    rng = np.random.default_rng(seed)
    B, n, m = (int(x) for x in rng.integers(2, 5, size=3))
    params = {"W": rng.normal(size=(m, n)), "b": rng.normal(size=m),
              "x": rng.normal(size=(B, n))}
    w = rng.normal(size=(B, m))

    def build(nodes):
        return weighted_scalar(nm.affine(nodes["W"], nodes["x"], nodes["b"]), w)
    run_fd(build, params, seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_embedding_softmax_xent_fd(seed):
    rng = np.random.default_rng(seed)
    V, d = int(rng.integers(4, 9)), int(rng.integers(2, 5))
    ids = [int(rng.integers(0, V)) for _ in range(3)]
    target = int(rng.integers(0, d))
    params = {"E": rng.normal(size=(V, d))}

    def build(nodes):
        terms = []
        for i in ids:
            row = nm.embedding_rows(nodes["E"], i)
            loss, _ = nm.cross_entropy(nm.softmax(row), target)
            terms.append(loss)
        return nm.mean_of(terms)
    run_fd(build, params, seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_embedding_batched_xent_rows_fd(seed):
    rng = np.random.default_rng(seed)
    V, d, B = int(rng.integers(4, 9)), int(rng.integers(3, 6)), 3
    ids = rng.integers(0, V, size=B)
    targets = rng.integers(0, d, size=B)
    params = {"E": rng.normal(size=(V, d))}

    def build(nodes):
        rows = nm.embedding_rows(nodes["E"], ids)
        ce = nm.cross_entropy_rows(nm.softmax(rows), targets)
        return nm.mean_all(ce)
    run_fd(build, params, seed)


def gru_params(rng, n, H):
    p = {}
    for k in ("Wz", "Wr", "Wh"):
        p[k] = rng.normal(size=(H, n)) * 0.5
    for k in ("Uz", "Ur", "Uh"):
        p[k] = rng.normal(size=(H, H)) * 0.5
    for k in ("bz", "br", "bh"):
        p[k] = rng.normal(size=H) * 0.5
    return p


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_gru_cell_fd(seed):
    rng = np.random.default_rng(seed)
    n, H = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    params = gru_params(rng, n, H)
    params["x"] = rng.normal(size=n)
    params["h"] = rng.normal(size=H)
    w = rng.normal(size=H)

    def build(nodes):
        p = {k: nodes[k] for k in params if k not in ("x", "h")}
        # two chained steps so dh flows through the recurrence too
        h1 = nm.gru_cell(nodes["x"], nodes["h"], p)
        h2 = nm.gru_cell(nodes["x"], h1, p)
        return weighted_scalar(h2, w)
    run_fd(build, params, seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_gru_cell_batched_fd(seed):
    rng = np.random.default_rng(seed)
    B, n, H = 3, int(rng.integers(2, 5)), int(rng.integers(2, 5))
    params = gru_params(rng, n, H)
    params["x"] = rng.normal(size=(B, n))
    params["h"] = rng.normal(size=(B, H))
    w = rng.normal(size=(B, H))

    def build(nodes):
        p = {k: nodes[k] for k in params if k not in ("x", "h")}
        return weighted_scalar(nm.gru_cell(nodes["x"], nodes["h"], p), w)
    run_fd(build, params, seed)


def tape_nodes(root):
    seen, todo = {}, [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node.parents)
    return seen.values()


def run_fd_flushed(build, params, seed):
    """run_fd, then check that backward left no deferred pairs on the tape."""
    roots = []

    def recording(nodes):
        root = build(nodes)
        if not roots:                   # the one tape grad_check backpropagates
            roots.append(root)
        return root
    run_fd(recording, params, seed)
    assert all(node.factors is None and node.lookups is None
               for node in tape_nodes(roots[0]))


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_gru_chain_shared_weights_fd(seed):
    """Every step of a (3, n)-row chain defers a factor pair on the shared
    weights; the flush sums them in one GEMM per weight."""
    rng = np.random.default_rng(seed)
    B, n, H, T = 3, int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(4, 7))
    params = gru_params(rng, n, H)
    for t in range(T):
        params["x%d" % t] = rng.normal(size=(B, n))
    params["h"] = rng.normal(size=(B, H))
    w = rng.normal(size=(B, H))

    def build(nodes):
        p = {k: nodes[k] for k in nodes if k[0] in "WUb"}
        h = nodes["h"]
        for t in range(T):
            h = nm.gru_cell(nodes["x%d" % t], h, p)
        return weighted_scalar(h, w)
    run_fd_flushed(build, params, seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_deferred_gradient_of_non_leaf_weight_fd(seed):
    """W = scale(W0) is Wz of two GRU steps and W of an attend step: its
    factors are flushed before its own backward passes them on to W0."""
    rng = np.random.default_rng(seed)
    B, T, n, H, D = 3, int(rng.integers(2, 5)), int(rng.integers(2, 5)), 3, 2
    params = gru_params(rng, n, H)
    params.update(W0=params.pop("Wz"), x=rng.normal(size=(B, n)), h=rng.normal(size=(B, H)),
                  M=rng.normal(size=(B, T, D)), K=rng.normal(size=(B, T, H)),
                  v=rng.normal(size=H))
    wh, wc = rng.normal(size=(B, H)), rng.normal(size=(B, D))

    def build(nodes):
        W = nm.scale(nodes["W0"], 1.0)
        p = {k: nodes[k] for k in nodes if k[0] in "WUb" and k != "W0"}
        p["Wz"] = W
        h = nm.gru_cell(nodes["x"], nm.gru_cell(nodes["x"], nodes["h"], p), p)
        ctx, _ = nm.attend(nodes["x"], nodes["M"], nodes["K"], W, nodes["v"])
        return nm.add(weighted_scalar(h, wh), weighted_scalar(ctx, wc))
    run_fd_flushed(build, params, seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_deferred_and_plain_gradient_on_one_node_fd(seed):
    """Wz takes deferred factors from two GRU steps and a plain gradient
    from mul; the flush adds to the plain one."""
    rng = np.random.default_rng(seed)
    B, n, H = 3, int(rng.integers(2, 5)), int(rng.integers(2, 5))
    params = gru_params(rng, n, H)
    params["x"] = rng.normal(size=(B, n))
    params["h"] = rng.normal(size=(B, H))
    wh, c, wm = rng.normal(size=(B, H)), rng.normal(size=(H, n)), rng.normal(size=(H, n))

    def build(nodes):
        p = {k: nodes[k] for k in nodes if k[0] in "WUb"}
        h = nm.gru_cell(nodes["x"], nm.gru_cell(nodes["x"], nodes["h"], p), p)
        plain = nm.mul(p["Wz"], nm.constant(c))
        return nm.add(weighted_scalar(h, wh), weighted_scalar(plain, wm))
    run_fd_flushed(build, params, seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_lookup_and_shared_plain_gradient_on_one_node_fd(seed):
    """E feeds add and a lookup. add hands one gradient array to E and X, so
    the lookup's rows must reach E's gradient without landing in X's."""
    rng = np.random.default_rng(seed)
    V, d = int(rng.integers(3, 6)), int(rng.integers(2, 5))
    params = {"E": rng.normal(size=(V, d)), "X": rng.normal(size=(V, d))}
    ws, wr = rng.normal(size=(V, d)), rng.normal(size=(3, d))

    def build(nodes):
        rows = nm.embedding_rows(nodes["E"], [1, 1, 2])
        both = nm.add(nodes["E"], nodes["X"])
        return nm.add(weighted_scalar(both, ws), weighted_scalar(rows, wr))
    run_fd_flushed(build, params, seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_attention_fd(seed):
    rng = np.random.default_rng(seed)
    T, D, Hq, A = int(rng.integers(2, 5)), 3, 4, 3
    params = {"q": rng.normal(size=Hq), "W": rng.normal(size=(A, Hq)),
              "U": rng.normal(size=(A, D)), "v": rng.normal(size=A)}
    for i in range(T):
        params["m%d" % i] = rng.normal(size=D)
    w = rng.normal(size=D)

    def build(nodes):
        items = [nodes["m%d" % i] for i in range(T)]
        ctx, _ = nm.additive_attention(nodes["q"], items, nodes["W"],
                                       nodes["U"], nodes["v"])
        return weighted_scalar(ctx, w)
    run_fd(build, params, seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_attention_batched_fd(seed):
    rng = np.random.default_rng(seed)
    B, T, D, Hq, A = 2, 3, 3, 4, 3
    params = {"q": rng.normal(size=(B, Hq)), "W": rng.normal(size=(A, Hq)),
              "U": rng.normal(size=(A, D)), "v": rng.normal(size=A)}
    for i in range(T):
        params["m%d" % i] = rng.normal(size=(B, D))
    w = rng.normal(size=(B, D))

    def build(nodes):
        items = [nodes["m%d" % i] for i in range(T)]
        ctx, _ = nm.additive_attention(nodes["q"], items, nodes["W"],
                                       nodes["U"], nodes["v"])
        return weighted_scalar(ctx, w)
    run_fd(build, params, seed)


LEADS = [(), (2,)]     # a vector, and (B, dim) rows with B = 2


@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_stack_fd(seed, lead):
    rng = np.random.default_rng(seed)
    T, D = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    params = {"m%d" % i: rng.normal(size=lead + (D,)) for i in range(T)}
    w = rng.normal(size=lead + (T, D))

    def build(nodes):
        stacked = nm.stack([nodes["m%d" % i] for i in range(T)])
        return weighted_scalar(nm.tanh(stacked), w)
    run_fd(build, params, seed)


@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_attention_keys_fd(seed, lead):
    rng = np.random.default_rng(seed)
    T, D, A = int(rng.integers(2, 5)), 3, 4
    params = {"M": rng.normal(size=lead + (T, D)), "U": rng.normal(size=(A, D))}
    w = rng.normal(size=lead + (T, A))

    def build(nodes):
        return weighted_scalar(nm.tanh(nm.attention_keys(nodes["M"], nodes["U"])), w)
    run_fd(build, params, seed)


@pytest.mark.parametrize("lead", LEADS + ["shared"], ids=str)
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_attend_fd(seed, lead):
    """A query over (T, D), rows over their own (B, T, D) memory, and
    "shared": B = 3 rows over one (T, D) memory and its keys."""
    rng = np.random.default_rng(seed)
    T, D, Hq, A = int(rng.integers(2, 5)), 3, 4, 3
    qlead, mlead = ((3,), ()) if lead == "shared" else (lead, lead)
    params = {"q": rng.normal(size=qlead + (Hq,)), "M": rng.normal(size=mlead + (T, D)),
              "K": rng.normal(size=mlead + (T, A)), "W": rng.normal(size=(A, Hq)),
              "v": rng.normal(size=A)}
    w = rng.normal(size=qlead + (D,))

    def build(nodes):
        ctx, _ = nm.attend(nodes["q"], nodes["M"], nodes["K"], nodes["W"], nodes["v"])
        return weighted_scalar(ctx, w)
    run_fd(build, params, seed)


@pytest.mark.parametrize("lead", LEADS, ids=str)
def test_additive_attention_is_attend_over_keys(lead):
    rng = np.random.default_rng(5)
    T, D, Hq, A = 4, 3, 5, 3
    q = rng.normal(size=lead + (Hq,))
    items = [rng.normal(size=lead + (D,)) for _ in range(T)]
    W, U, v = rng.normal(size=(A, Hq)), rng.normal(size=(A, D)), rng.normal(size=A)
    w = rng.normal(size=lead + (D,))

    def run(compose):
        nodes = [nm.Node(x) for x in [q, W, U, v] + items]
        qn, Wn, Un, vn, *its = nodes
        ctx, alpha = compose(qn, its, Wn, Un, vn)
        nm.backward(weighted_scalar(ctx, w))
        return [ctx.value, alpha] + [n.grad for n in nodes]

    def by_hand(qn, its, Wn, Un, vn):
        M = nm.stack(its)
        return nm.attend(qn, M, nm.attention_keys(M, Un), Wn, vn)

    for got, want in zip(run(nm.additive_attention), run(by_hand)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# forward oracles
# --------------------------------------------------------------------------

def test_gru_forward_matches_scalar_loop():
    rng = np.random.default_rng(7)
    n, H = 3, 4
    p = gru_params(rng, n, H)
    x, h = rng.normal(size=n), rng.normal(size=H)
    out = nm.gru_cell(nm.Node(x), nm.Node(h), {k: nm.Node(v) for k, v in p.items()})

    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))
    expect = np.empty(H)
    for i in range(H):
        z = sig(sum(p["Wz"][i, j] * x[j] for j in range(n))
                + sum(p["Uz"][i, j] * h[j] for j in range(H)) + p["bz"][i])
        r_row = [sig(sum(p["Wr"][k, j] * x[j] for j in range(n))
                     + sum(p["Ur"][k, j] * h[j] for j in range(H)) + p["br"][k])
                 for k in range(H)]
        hbar = np.tanh(sum(p["Wh"][i, j] * x[j] for j in range(n))
                       + sum(p["Uh"][i, k] * r_row[k] * h[k] for k in range(H))
                       + p["bh"][i])
        expect[i] = z * h[i] + (1.0 - z) * hbar
    np.testing.assert_allclose(out.value, expect, atol=1e-12)


def test_attention_forward_matches_naive_loop():
    rng = np.random.default_rng(11)
    T, D, Hq, A = 4, 3, 5, 3
    q = rng.normal(size=Hq)
    items = [rng.normal(size=D) for _ in range(T)]
    W, U, v = rng.normal(size=(A, Hq)), rng.normal(size=(A, D)), rng.normal(size=A)
    ctx, alpha = nm.additive_attention(nm.Node(q), [nm.Node(m) for m in items],
                                       nm.Node(W), nm.Node(U), nm.Node(v))
    e = np.array([v @ np.tanh(W @ q + U @ m) for m in items])
    ex = np.exp(e - e.max())
    a_expect = ex / ex.sum()
    c_expect = sum(a_expect[i] * items[i] for i in range(T))
    np.testing.assert_allclose(alpha, a_expect, atol=1e-12)
    np.testing.assert_allclose(ctx.value, c_expect, atol=1e-12)


def test_softmax_properties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.normal(size=(3, 6)) * 10
        p = nm.softmax(nm.Node(z)).value
        assert np.all(p > 0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        # invariance under a per-row shift
        np.testing.assert_allclose(nm.softmax(nm.Node(z + 100.0)).value, p, atol=1e-12)
    for bad in (3.0, np.zeros(0), np.zeros((2, 0))):
        with pytest.raises(nm.ShapeError):
            nm.softmax(nm.Node(bad))


def test_cross_entropy_clamps_zero_mass():
    p = nm.Node(np.array([1.0, 0.0, 0.0]))
    loss, clamped = nm.cross_entropy(p, 1)
    assert clamped
    assert np.isfinite(loss.value)
    loss2, clamped2 = nm.cross_entropy(p, 0)
    assert not clamped2
    assert float(loss2.value) == 0.0


def test_backward_requires_scalar_root():
    with pytest.raises(nm.ShapeError):
        nm.backward(nm.Node(np.zeros(3)))


def _gru_params(n, H):
    return {k: nm.Node(np.zeros(shape)) for g in "zrh"
            for k, shape in (("W" + g, (H, n)), ("U" + g, (H, H)), ("b" + g, (H,)))}


@pytest.mark.parametrize("op, match", [
    (lambda: nm.add(nm.Node(np.zeros(2)), nm.Node(np.zeros(3))), "add"),
    (lambda: nm.mul(nm.Node(np.zeros(2)), nm.Node(np.zeros((2, 2)))), "mul"),
    (lambda: nm.affine(nm.Node(np.zeros(3)), nm.Node(np.zeros(3)), nm.Node(np.zeros(1))),
     "bad ranks"),
    (lambda: nm.affine(nm.Node(np.zeros((2, 3))), nm.Node(np.zeros(4)), nm.Node(np.zeros(2))),
     "incompatible"),
    (lambda: nm.affine(nm.Node(np.zeros((2, 3))), nm.Node(np.zeros(3)), nm.Node(np.zeros(5))),
     "incompatible"),
    (lambda: nm.cross_entropy(nm.Node(np.full(3, 1 / 3)), 3), "target in range"),
    (lambda: nm.cross_entropy(nm.Node(np.full((2, 3), 1 / 3)), 0), "target in range"),
    (lambda: nm.cross_entropy_rows(nm.Node(np.full((2, 3), 1 / 3)), [0, 1, 2]),
     "do not match"),
    (lambda: nm.cross_entropy_rows(nm.Node(np.float64(1.0)), 0), "do not match"),
    (lambda: nm.gru_cell(nm.Node(np.zeros(4)), nm.Node(np.zeros(3)), _gru_params(2, 3)),
     "gru_cell"),
    (lambda: nm.gru_cell(nm.Node(np.zeros(2)), nm.Node(np.zeros(4)), _gru_params(2, 3)),
     "gru_cell"),
    (lambda: nm.additive_attention(nm.Node(np.zeros(2)), [], nm.Node(np.zeros((2, 2))),
                                   nm.Node(np.zeros((2, 2))), nm.Node(np.zeros(2))),
     "empty sequence"),
], ids=["add", "mul", "affine ranks", "affine x", "affine b", "cross_entropy target",
        "cross_entropy rows", "cross_entropy_rows targets", "cross_entropy_rows scalar",
        "gru_cell x", "gru_cell h", "additive_attention empty"])
def test_ops_refuse_mismatched_shapes(op, match):
    with pytest.raises(nm.ShapeError, match=match):
        op()


def test_shared_node_gradient_accumulates():
    a = nm.Node(np.array([1.0, 2.0]))
    out = nm.mean_all(nm.add(a, a))
    nm.backward(out)
    np.testing.assert_allclose(a.grad, np.full(2, 1.0), atol=1e-15)


# --------------------------------------------------------------------------
# AdaDelta
# --------------------------------------------------------------------------

def test_adadelta_single_step_hand_value():
    params = {"x": np.array([0.0])}
    state = nm.AdaDeltaState(params, rho=0.95, epsilon=1e-6)
    nm.adadelta_step(params, {"x": np.array([1.0])}, state)
    # E[g2]=0.05, dx = -sqrt(0+eps)/sqrt(0.05+eps)
    expect = -np.sqrt(1e-6) / np.sqrt(0.05 + 1e-6)
    assert abs(expect - (-4.4721e-3)) < 1e-6
    assert abs(params["x"][0] - expect) < 1e-9


def test_adadelta_matches_independent_reimplementation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))
    params = {"x": x.copy()}
    state = nm.AdaDeltaState(params, rho=0.9, epsilon=1e-5)
    # straight transcription of the published update rule
    eg2 = np.zeros_like(x)
    edx2 = np.zeros_like(x)
    ref = x.copy()
    for _ in range(20):
        g = rng.normal(size=x.shape)
        nm.adadelta_step(params, {"x": g.copy()}, state)
        eg2 = 0.9 * eg2 + 0.1 * g * g
        dx = -np.sqrt(edx2 + 1e-5) / np.sqrt(eg2 + 1e-5) * g
        edx2 = 0.9 * edx2 + 0.1 * dx * dx
        ref += dx
    np.testing.assert_allclose(params["x"], ref, atol=1e-12)
    np.testing.assert_allclose(state.eg2["x"], eg2, atol=1e-12)


def test_adadelta_rejects_nonfinite_grads_before_mutation():
    params = {"x": np.array([1.0, 2.0])}
    state = nm.AdaDeltaState(params)
    with pytest.raises(FloatingPointError):
        nm.adadelta_step(params, {"x": np.array([np.nan, 0.0])}, state)
    np.testing.assert_array_equal(params["x"], [1.0, 2.0])
    assert np.all(state.eg2["x"] == 0.0)


def test_adadelta_step_returns_the_global_gradient_norm():
    """The L2 norm of all gradients as one vector, also where a float32 sum
    of squares overflows, and in either memory order. A gradient whose own
    float32 square overflows (3e20) still leaves E[g^2] finite and moves its
    weights."""
    rng = np.random.default_rng(0)
    params = {"x": np.zeros((3, 2)), "y": np.zeros(8), "z": np.zeros((2, 3))}
    for big in (0.0, 1e19, 3e20):       # 8 squares of 1e38 sum beyond float32's range
        grads = {"x": rng.standard_normal((3, 2)).astype(np.float32),
                 "y": np.full(8, big, dtype=np.float32),
                 "z": np.asfortranarray(rng.standard_normal((2, 3)))}
        want = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads.values()))
        state, before = nm.AdaDeltaState(params), params["y"].copy()
        got = nm.adadelta_step(params, grads, state)
        assert type(got) is float and np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-6)
        assert np.all(np.isfinite(state.eg2["y"]))
        assert big == 0.0 or np.all(params["y"] != before)


def test_adadelta_decays_unvisited_accumulators():
    params = {"x": np.array([0.0]), "y": np.array([0.0])}
    state = nm.AdaDeltaState(params, rho=0.5)
    nm.adadelta_step(params, {"x": np.array([1.0])}, state)
    state.eg2["y"][:] = 1.0
    state.edx2["y"][:] = 1.0
    nm.adadelta_step(params, {"x": np.array([1.0])}, state)
    assert state.eg2["y"][0] == 0.5
    assert state.edx2["y"][0] == 0.5
    assert params["y"][0] == 0.0
    # as the published update with g = 0 does
    zero = {"y": np.array([0.0])}
    want = nm.AdaDeltaState(zero, rho=0.5)
    want.eg2["y"][:] = want.edx2["y"][:] = 1.0
    nm.adadelta_step(zero, {"y": np.array([0.0])}, want)
    assert (want.eg2["y"][0], want.edx2["y"][0], zero["y"][0]) == (0.5, 0.5, 0.0)


def whole_tensor_adadelta(params, grads, state):
    """The update over whole tensors, one temporary per operation: the oracle
    of the blocked adadelta_step."""
    rho, eps = state.rho, state.epsilon
    for name, g in grads.items():
        eg2 = state.eg2[name]
        edx2 = state.edx2[name]
        eg2 *= rho
        eg2 += (1.0 - rho) * g * g
        dx = -np.sqrt(edx2 + eps) / np.sqrt(eg2 + eps) * g
        edx2 *= rho
        edx2 += (1.0 - rho) * dx * dx
        params[name] += dx
    for name in params:
        if name not in grads:
            state.eg2[name] *= rho
            state.edx2[name] *= rho


@pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
def test_blocked_adadelta_equals_whole_tensor_update(grad_dtype):
    """Five steps leave parameters and both accumulators bit for bit as the
    whole-tensor update does: tensors smaller than a block, exactly one block,
    not a multiple of a block, rows longer than a block, a column-major
    matrix, a scalar, a parameter with no gradient, and a gradient whose
    float32 sum of squares overflows, which updates as its float64 copy."""
    B = nm.ADADELTA_BLOCK
    shapes = {"small": (7, 3), "one_block": (B,), "one_block_rows": (B // 64, 64),
              "ragged": (2 * B // 64 + 5, 64), "ragged_vector": (B + 11,),
              "long_rows": (3, B + 7), "column_major": (300, 70), "scalar": (),
              "wide": (2, 4), "no_grad": (4, 4)}
    rng = np.random.default_rng(7)
    params = {k: np.asarray(rng.uniform(-0.1, 0.1, s)) for k, s in shapes.items()}
    params["column_major"] = np.asfortranarray(params["column_major"])
    start = {k: v.copy(order="K") for k, v in params.items()}
    want = {k: v.copy(order="K") for k, v in params.items()}
    state = nm.AdaDeltaState(params, rho=0.9, epsilon=1e-6)
    want_state = nm.AdaDeltaState(want, rho=0.9, epsilon=1e-6)
    for state_ in (state, want_state):
        state_.eg2["no_grad"][:] = state_.edx2["no_grad"][:] = 1.0
    for _ in range(5):
        grads = {k: np.asarray(rng.standard_normal(s)).astype(grad_dtype)
                 for k, s in shapes.items() if k != "no_grad"}
        grads["wide"] = (rng.choice([-1.0, 1.0], shapes["wide"])
                         * rng.uniform(1e19, 3e20, shapes["wide"])).astype(grad_dtype)
        wide64 = grads["wide"].astype(np.float64)
        assert np.sum(wide64 * wide64) > np.finfo(np.float32).max
        nm.adadelta_step(params, grads, state)
        whole_tensor_adadelta(want, {**grads, "wide": wide64}, want_state)
    for k in shapes:
        for got, ref in ((params, want), (state.eg2, want_state.eg2),
                         (state.edx2, want_state.edx2)):
            assert got[k].dtype == ref[k].dtype and got[k].tobytes() == ref[k].tobytes(), k
    assert all(not np.array_equal(params[k], start[k]) for k in shapes if k != "no_grad")
    assert np.array_equal(params["no_grad"], start["no_grad"])
    assert state.eg2["no_grad"].max() < 1.0 and state.edx2["no_grad"].max() < 1.0


def test_adadelta_state_validation():
    with pytest.raises(ValueError):
        nm.AdaDeltaState({"x": np.zeros(1)}, rho=1.0)
    with pytest.raises(ValueError):
        nm.AdaDeltaState({"x": np.zeros(1)}, epsilon=0.0)
    params = {"x": np.zeros(2)}
    state = nm.AdaDeltaState(params)
    with pytest.raises(KeyError):
        nm.adadelta_step(params, {"z": np.zeros(2)}, state)
    with pytest.raises(nm.ShapeError):
        nm.adadelta_step(params, {"x": np.zeros(3)}, state)


def test_ops_keep_float32_inputs_float32():
    """A float32 model decodes in float32: every forward op keeps the dtype of
    its operands, while int or list input still becomes float64."""
    rng = np.random.default_rng(0)

    def f32(*shape):
        return nm.Node(rng.normal(size=shape).astype(np.float32))
    x, h, q = f32(2, 3), f32(2, 4), f32(2, 4)
    gru = {k + g: f32(*shape) for g in "zrh"
           for k, shape in (("W", (4, 3)), ("U", (4, 4)), ("b", (4,)))}
    M, U, W, v = f32(5, 3), f32(6, 3), f32(6, 4), f32(6)
    ctx, alpha = nm.attend(q, M, nm.attention_keys(M, U), W, v)
    values = {"affine": nm.affine(gru["Wz"], x, gru["bz"]).value,
              "gru_cell": nm.gru_cell(x, h, gru).value,
              "attend": ctx.value, "attend alpha": alpha,
              "softmax": nm.softmax(x).value, "concat": nm.concat([x, h]).value,
              "stack": nm.stack([x, x]).value,
              "embedding_rows": nm.embedding_rows(M, [0, 4]).value}
    assert {op: a.dtype for op, a in values.items()} == dict.fromkeys(values, np.float32)
    kept = np.zeros(3, dtype=np.float32)
    assert nm.Node(kept).value is kept
    assert nm.Node([1, 2]).value.dtype == nm.Node(3).value.dtype == np.float64
