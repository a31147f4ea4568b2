"""Reverse-mode autodiff over numpy arrays, plus AdaDelta and gradient checking.

Every op computes in the dtype of its inputs. Training runs each minibatch
in float32 on a copy of float64 master weights, which adadelta_step updates
in float64; gradient checking runs in float64; and every search decodes in
float32, which halves the bytes a product streams. The tape
is a plain DAG of Node objects. Ops on the recurrent hot path (GRU cell,
additive attention) are fused into single nodes with hand-derived backward
passes. Every op has one formula for a single vector and a (batch, dim)
matrix alike: a vector is a one-row batch. Outputs keep the rank of the
inputs, and where a formula needs the rows explicitly (weight gradients,
attention) it works on the `_rows` view of the array, so a vector costs no
extra tape node. Attention is split in two ops: the keys of
a memory, computed once per memory, and the attend step that every decoder
step runs over them, also for B query rows sharing one memory (a beam).
`stack` turns T per-step nodes into one (..., T, dim) node, so work that
does not depend on the step (keys, output projection) runs once over all
steps. Weight gradients are deferred: a weight's gradient is a sum of
products a^T b, one per use, and an op records the pair (a, b) with
_acc_outer() instead of forming the product. backward() flushes a node's
pairs as one GEMM over their concatenated rows when its walk reaches the
node, so a weight shared by T decoder steps costs one GEMM, not T full-size
products and adds. Embedding lookups are deferred the same way: each records
its (ids, rows) with _acc_rows(), and backward() scatters them into one fresh
buffer. The correctness contract for every differentiable op is the
finite-difference check in grad_check().
"""

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class Node:
    """One value in the computation graph.

    value   -- numpy floating array, kept in its dtype; int or list input
               becomes float64 (scalar values are 0-d arrays)
    grad    -- accumulated dL/dvalue, filled in by backward()
    parents -- upstream nodes
    bwd     -- closure(out_grad) that pushes gradient to parents; None for leaves
    factors -- pending (a, b) pairs of grad += a^T b, or None; see _acc_outer()
    lookups -- pending (ids, rows) pairs of grad[ids] += rows, or None; see _acc_rows()
    """

    __slots__ = ("value", "grad", "parents", "bwd", "factors", "lookups")

    def __init__(self, value, parents=(), bwd=None):
        value = np.asarray(value)
        self.value = value if value.dtype.kind == "f" else value.astype(np.float64)
        self.grad = None
        self.parents = parents
        self.bwd = bwd
        self.factors = None
        self.lookups = None


def _rows(a):
    """View an array as (rows, last dim); a vector becomes a single row."""
    return a.reshape(-1, a.shape[-1])


def _acc(node, g):
    # Never accumulate in place: backward closures may hand the same array to
    # several parents, and `+` allocates a fresh array on the second hit.
    # Weight gradients of the form a^T b do not come here per use: they are
    # deferred factor pairs (_acc_outer), flushed here once per node.
    if node.grad is None:
        node.grad = g
    else:
        node.grad = node.grad + g


def _acc_outer(node, a, b):
    """Defer grad += a^T b, for (rows, m) a and (rows, n) b, to backward()."""
    if node.factors is None:
        node.factors = []
    node.factors.append((a, b))


def _acc_rows(node, ids, rows):
    """Defer grad[ids] += rows, for an embedding lookup, to backward()."""
    if node.lookups is None:
        node.lookups = []
    node.lookups.append((ids, rows))


def backward(root):
    """Backpropagate from a scalar root through the tape."""
    if root.value.ndim != 0:
        raise ShapeError("backward() root must be scalar, got shape %s" % (root.value.shape,))
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.asarray(1.0)
    # Every consumer of a node comes before it in this order, so its deferred
    # pairs are complete here: one scatter into a fresh buffer adds the
    # lookups, one GEMM over all their rows adds the factor pairs, and doing
    # so before the node's own bwd lets a non-leaf node take them too.
    for node in reversed(topo):
        if node.lookups is not None:
            lookups, node.lookups = node.lookups, None
            g = np.zeros_like(node.value)
            for idx, rows in lookups:           # in recorded order, as add.at sums
                np.add.at(g, idx, rows)
            _acc(node, g)
        if node.factors is not None:
            pairs, node.factors = node.factors, None
            a, b = pairs[0] if len(pairs) == 1 else map(np.concatenate, zip(*pairs))
            _acc(node, a.T @ b)
        if node.bwd is not None:
            node.bwd(node.grad)


# ---------------------------------------------------------------------------
# elementary ops
# ---------------------------------------------------------------------------

def constant(value):
    return Node(value)


def add(a, b):
    if a.value.shape != b.value.shape:
        raise ShapeError("add: %s vs %s" % (a.value.shape, b.value.shape))
    out = Node(a.value + b.value, (a, b))

    def bwd(g):
        _acc(a, g)
        _acc(b, g)
    out.bwd = bwd
    return out


def mul(a, b):
    if a.value.shape != b.value.shape:
        raise ShapeError("mul: %s vs %s" % (a.value.shape, b.value.shape))
    out = Node(a.value * b.value, (a, b))

    def bwd(g):
        _acc(a, g * b.value)
        _acc(b, g * a.value)
    out.bwd = bwd
    return out


def scale(a, c):
    c = float(c)
    out = Node(a.value * c, (a,))

    def bwd(g):
        _acc(a, g * c)
    out.bwd = bwd
    return out


def sigmoid(a):
    s = 1.0 / (1.0 + np.exp(-a.value))
    out = Node(s, (a,))

    def bwd(g):
        _acc(a, g * s * (1.0 - s))
    out.bwd = bwd
    return out


def tanh(a):
    t = np.tanh(a.value)
    out = Node(t, (a,))

    def bwd(g):
        _acc(a, g * (1.0 - t * t))
    out.bwd = bwd
    return out


def concat(parts):
    """Concatenate along the last axis; vectors and (B, dim) rows both work."""
    vals = [p.value for p in parts]
    out = Node(np.concatenate(vals, axis=-1), tuple(parts))
    sizes = [v.shape[-1] for v in vals]

    def bwd(g):
        off = 0
        for p, sz in zip(parts, sizes):
            _acc(p, g[..., off:off + sz])
            off += sz
    out.bwd = bwd
    return out


def stack(parts):
    """Stack T equally-shaped nodes along a new second-to-last axis: T vectors
    become (T, dim), T (B, dim) rows become (B, T, dim)."""
    out = Node(np.stack([p.value for p in parts], axis=-2), tuple(parts))

    def bwd(g):
        for i, p in enumerate(parts):
            _acc(p, g[..., i, :])
    out.bwd = bwd
    return out


def affine(W, x, b):
    """x W^T + b over the last axis of x: a vector or (B, n) rows."""
    if W.value.ndim != 2 or b.value.ndim != 1:
        raise ShapeError("affine: bad ranks W%s b%s" % (W.value.shape, b.value.shape))
    m, n = W.value.shape
    if x.value.shape[-1] != n or b.value.shape[0] != m:
        raise ShapeError("affine: W %s incompatible with x %s / b %s"
                         % (W.value.shape, x.value.shape, b.value.shape))
    out = Node(x.value @ W.value.T + b.value, (W, x, b))

    def bwd(g):
        g2 = _rows(g)
        _acc_outer(W, g2, _rows(x.value))
        _acc(x, g @ W.value)
        _acc(b, g2.sum(axis=0))
    out.bwd = bwd
    return out


def embedding_rows(E, ids):
    """Row lookup into an embedding matrix node; int id or (B,) id array.

    The gradient rows are deferred (_acc_rows) and scattered into one zero
    buffer per backward(), which keeps the cost per lookup at O(d) instead
    of O(V d).
    """
    idx = np.asarray(ids, dtype=np.intp)
    out = Node(E.value[idx], (E,))

    def bwd(g):
        _acc_rows(E, idx, g)
    out.bwd = bwd
    return out


def softmax(z):
    """Stable softmax along the last axis. Rows positive, each summing to 1."""
    v = z.value
    if v.ndim < 1 or v.shape[-1] < 1:
        raise ShapeError("softmax expects a non-empty vector, got shape %s" % (v.shape,))
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = Node(p, (z,))

    def bwd(g):
        _acc(z, p * (g - (g * p).sum(axis=-1, keepdims=True)))
    out.bwd = bwd
    return out


PROB_FLOOR = 1e-12


def cross_entropy(pred, target):
    """-ln(pred[target]) for a probability-vector node.

    Returns (loss_node, clamped_flag). The floor keeps the loss finite when
    the model assigns (numerically) zero mass to the target; composed with
    softmax() the gradient w.r.t. the logits is pred - onehot(target).
    """
    p, target = pred.value, int(target)
    if p.ndim != 1 or not 0 <= target < p.shape[0]:
        raise ShapeError("cross_entropy needs a probability vector and a target in "
                         "range; got target %d for shape %s" % (target, p.shape))
    return cross_entropy_rows(pred, target), bool(p[target] < PROB_FLOOR)


def cross_entropy_rows(pred, targets):
    """Per-row -ln(pred[..., target]), floored at PROB_FLOOR.

    `pred` is a probability vector with one target id, or (B, V) rows with a
    (B,) target array; the loss has the shape of `targets`.
    """
    p = pred.value
    idx = np.asarray(targets, dtype=np.intp)
    if p.ndim < 1 or idx.shape != p.shape[:-1]:
        raise ShapeError("cross_entropy_rows: targets %s do not match probabilities %s"
                         % (idx.shape, p.shape))
    flat = idx.reshape(-1)
    rows = np.arange(flat.shape[0])
    pt = np.maximum(_rows(p)[rows, flat], PROB_FLOOR)
    out = Node(-np.log(pt).reshape(idx.shape), (pred,))

    def bwd(g):
        d = np.zeros_like(p)
        _rows(d)[rows, flat] = -g.reshape(-1) / pt
        _acc(pred, d)
    out.bwd = bwd
    return out


def mean_of(terms):
    """Elementwise mean of a list of equally-shaped nodes."""
    n = len(terms)
    out = Node(sum(t.value for t in terms) / n, tuple(terms))

    def bwd(g):
        gn = g / n
        for t in terms:
            _acc(t, gn)
    out.bwd = bwd
    return out


def mean_all(a):
    """Scalar mean over every element of a node."""
    size = a.value.size
    out = Node(a.value.mean(), (a,))

    def bwd(g):
        _acc(a, np.full_like(a.value, float(g) / size))
    out.bwd = bwd
    return out


# ---------------------------------------------------------------------------
# fused recurrent ops
# ---------------------------------------------------------------------------

def gru_cell(x, h_prev, p):
    """One GRU step as a single tape node; x may be a vector or a (B, n) batch.

    Gates: z = sigm(Wz x + Uz h + bz), r = sigm(Wr x + Ur h + br),
    hbar = tanh(Wh x + Uh (r*h) + bh), h_new = z*h_prev + (1-z)*hbar.

    `p` maps the keys Wz,Uz,bz,Wr,Ur,br,Wh,Uh,bh to parameter nodes.
    """
    xv, hv = x.value, h_prev.value
    Wz, Uz, bz = p["Wz"], p["Uz"], p["bz"]
    Wr, Ur, br = p["Wr"], p["Ur"], p["br"]
    Wh, Uh, bh = p["Wh"], p["Uh"], p["bh"]
    if Wz.value.shape[1] != xv.shape[-1] or Uz.value.shape[1] != hv.shape[-1]:
        raise ShapeError("gru_cell: x %s / h %s incompatible with Wz %s / Uz %s"
                         % (xv.shape, hv.shape, Wz.value.shape, Uz.value.shape))
    z = 1.0 / (1.0 + np.exp(-(xv @ Wz.value.T + hv @ Uz.value.T + bz.value)))
    r = 1.0 / (1.0 + np.exp(-(xv @ Wr.value.T + hv @ Ur.value.T + br.value)))
    rh = r * hv
    hbar = np.tanh(xv @ Wh.value.T + rh @ Uh.value.T + bh.value)
    h_new = z * hv + (1.0 - z) * hbar

    parents = (x, h_prev, Wz, Uz, bz, Wr, Ur, br, Wh, Uh, bh)
    out = Node(h_new, parents)

    def bwd(g):
        dz = g * (hv - hbar)
        dhbar = g * (1.0 - z)
        dh = g * z

        da_h = dhbar * (1.0 - hbar * hbar)
        drh = da_h @ Uh.value
        dr = drh * hv
        dh = dh + drh * r

        da_z = dz * z * (1.0 - z)
        da_r = dr * r * (1.0 - r)

        dx = da_h @ Wh.value + da_z @ Wz.value + da_r @ Wr.value
        dh = dh + da_z @ Uz.value + da_r @ Ur.value
        x2, h2, rh2 = _rows(xv), _rows(hv), _rows(rh)
        dz2, dr2, dh2 = _rows(da_z), _rows(da_r), _rows(da_h)
        _acc_outer(Wz, dz2, x2)
        _acc_outer(Uz, dz2, h2)
        _acc(bz, dz2.sum(axis=0))
        _acc_outer(Wr, dr2, x2)
        _acc_outer(Ur, dr2, h2)
        _acc(br, dr2.sum(axis=0))
        _acc_outer(Wh, dh2, x2)
        _acc_outer(Uh, dh2, rh2)
        _acc(bh, dh2.sum(axis=0))
        _acc(x, dx)
        _acc(h_prev, dh)
    out.bwd = bwd
    return out


def attention_keys(M, U):
    """Keys K = M U^T of an attention memory M (..., T, D), shape (..., T, A).

    They depend on the memory alone, so a decoder computes them once per
    encoded batch and every step's attend() reads them; the steps' dK add up
    on this node and dU is formed once.
    """
    out = Node(M.value @ U.value.T, (M, U))

    def bwd(g):
        _acc_outer(U, _rows(g), _rows(M.value))
        _acc(M, g @ U.value)
    out.bwd = bwd
    return out


def attend(query, M, K, W, v):
    """Additive attention of query rows over a memory with precomputed keys.

    Three shapes: a (Hq,) query over a (T, D) memory; (B, Hq) queries over a
    (B, T, D) memory, each row over its own memory; and (B, Hq) queries over
    one shared (T, D) memory, as a beam's hypotheses read their one encoded
    request. K = attention_keys(M, U). Scores e_i = v . tanh(W query + K_i),
    alpha = softmax(e), context = sum_i alpha_i M_i.

    Returns (context_node, alpha_array); the weights are plain arrays for
    logging only.
    """
    T = M.value.shape[-2]
    lead = query.value.shape[:-1]                               # () or (B,)
    q = _rows(query.value)                                      # (B, Hq)
    Mv = M.value.reshape(-1, T, M.value.shape[-1])              # (B or 1, T, D)
    t = np.tanh((q @ W.value.T)[:, None, :]
                + K.value.reshape(-1, T, K.value.shape[-1]))    # (B, T, A)
    e = t @ v.value                                             # (B, T)
    ex = np.exp(e - e.max(axis=-1, keepdims=True))
    alpha = ex / ex.sum(axis=-1, keepdims=True)
    ctx = (alpha[:, :, None] * Mv).sum(axis=1)                  # (B, D)
    out = Node(ctx.reshape(lead + ctx.shape[-1:]), (query, M, K, W, v))

    def bwd(g):
        gb = _rows(g)                                           # (B, D)
        dalpha = (Mv @ gb[:, :, None])[:, :, 0]                 # (B, T)
        de = alpha * (dalpha - (dalpha * alpha).sum(axis=-1, keepdims=True))
        dt = (1.0 - t * t) * de[:, :, None] * v.value           # (B, T, A)
        dts = dt.sum(axis=1)                                    # (B, A)
        _acc(v, np.einsum("bta,bt->a", t, de))
        _acc_outer(W, dts, q)
        _acc(query, (dts @ W.value).reshape(query.value.shape))
        dM = alpha[:, :, None] * gb[:, None, :]                 # (B, T, D)
        if M.value.ndim == 2:                   # one (T, D) memory: sum the rows
            dt, dM = dt.sum(axis=0), dM.sum(axis=0)
        _acc(K, dt.reshape(K.value.shape))
        _acc(M, dM.reshape(M.value.shape))
    out.bwd = bwd
    return out, alpha.reshape(lead + (T,))


def additive_attention(query, items, W, U, v):
    """Additive attention over a list of T item nodes (vectors or (B, D) rows).

    The composition attend(query, M, attention_keys(M, U), W, v) with
    M = stack(items); returns (context_node, alpha_array).
    """
    if len(items) < 1:
        raise ShapeError("attention over an empty sequence")
    M = stack(items)
    return attend(query, M, attention_keys(M, U), W, v)


# ---------------------------------------------------------------------------
# AdaDelta
# ---------------------------------------------------------------------------

class AdaDeltaState:
    """Per-parameter accumulators for AdaDelta. No learning rate exists."""

    def __init__(self, params, rho=0.95, epsilon=1e-6):
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must be in (0,1)")
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        self.rho = rho
        self.epsilon = epsilon
        self.eg2 = {k: np.zeros_like(v) for k, v in params.items()}
        self.edx2 = {k: np.zeros_like(v) for k, v in params.items()}


ADADELTA_BLOCK = 1 << 14      # elements per block: a block's operands stay in cache


def adadelta_step(params, grads, state):
    """One AdaDelta update, in place on `params` (dict name -> ndarray);
    returns the global L2 norm of `grads`.

    E[g^2] <- rho E[g^2] + (1-rho) g^2
    dx      = -sqrt(E[dx^2]+eps)/sqrt(E[g^2]+eps) * g
    E[dx^2] <- rho E[dx^2] + (1-rho) dx^2

    Blocks of leading-axis slices, about ADADELTA_BLOCK elements each, run
    the whole-tensor operations in the same order: whole-tensor bits. A
    gradient whose sum of squares overflows its dtype updates from its
    float64 copy, so E[g^2] stays finite.
    """
    sumsq, wide = 0.0, {}
    for name, g in grads.items():
        if name not in params:
            raise KeyError("gradient for unknown parameter %r" % name)
        if g.shape != params[name].shape:
            raise ShapeError("grad shape %s != param shape %s for %r"
                             % (g.shape, params[name].shape, name))
        sq = float(np.vdot(g, g))      # inf or NaN if g holds one, or if the sum overflows
        if not np.isfinite(sq):
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient for %r; step aborted" % name)
            wide[name] = g.astype(np.float64)
            sq = float(np.vdot(wide[name], wide[name]))
        sumsq += sq
    rho, eps = state.rho, state.epsilon
    for name, g in grads.items():
        p, g, eg2, edx2 = np.atleast_1d(params[name], wide.get(name, g),
                                        state.eg2[name], state.edx2[name])
        n = max(1, ADADELTA_BLOCK * len(g) // max(1, g.size))     # leading-axis slices
        for i in range(0, len(g), n):
            gb, e2, d2 = g[i:i + n], eg2[i:i + n], edx2[i:i + n]
            e2 *= rho
            e2 += (1.0 - rho) * gb * gb
            dx = -np.sqrt(d2 + eps)
            dx /= np.sqrt(e2 + eps)
            dx *= gb
            d2 *= rho
            d2 += (1.0 - rho) * dx * dx
            p[i:i + n] += dx
    # no gradient this step: g = 0, so dx = 0 and both accumulators decay by rho
    for name in params:
        if name not in grads:
            state.eg2[name] *= rho
            state.edx2[name] *= rho
    return float(np.sqrt(sumsq))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(build, params, h=1e-5, sample=None, rng=None):
    """Finite-difference check for a scalar loss built from named parameters.

    build(nodes) -- callable taking {name: Node} and returning a scalar Node.
    params       -- {name: ndarray}; perturbed in place and restored.
    sample       -- if set, check at most this many coordinates per parameter
                    (chosen with rng) instead of all of them.

    Returns {"max_rel_error", "worst", "checked"} where worst is
    (name, flat_index, analytic, numeric). The relative error uses an absolute
    floor of 1e-6 in the denominator so that coordinates whose true gradient
    is far below the finite-difference noise floor do not dominate.
    """
    nodes = {k: Node(v) for k, v in params.items()}
    loss = build(nodes)
    backward(loss)
    analytic = {k: (np.zeros_like(params[k]) if nodes[k].grad is None
                    else np.array(nodes[k].grad, dtype=np.float64).reshape(params[k].shape))
                for k in params}

    worst = ("", -1, 0.0, 0.0)
    max_rel = 0.0
    checked = 0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        idxs = range(flat.shape[0])
        if sample is not None and flat.shape[0] > sample:
            if rng is None:
                rng = np.random.default_rng(0)
            idxs = rng.choice(flat.shape[0], size=sample, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            fp = float(build({k: Node(v) for k, v in params.items()}).value)
            flat[i] = orig - h
            fm = float(build({k: Node(v) for k, v in params.items()}).value)
            flat[i] = orig
            num = (fp - fm) / (2.0 * h)
            ana = analytic[name].reshape(-1)[i]
            rel = abs(ana - num) / max(abs(ana) + abs(num), 1e-6)
            checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = (name, int(i), float(ana), float(num))
    return {"max_rel_error": max_rel, "worst": worst, "checked": checked}
