"""Dense tensors with reverse-mode automatic differentiation.

Every operation that touches a gradient-requiring tensor records itself on an
implicit tape (the `_parents` / `_backward` links of its output). `backward()`
walks that graph once, in reverse topological order, and accumulates gradients
into the `.grad` of the leaves: the tensors no op produced, such as parameters.
An op's output keeps no `.grad`; the walk frees its gradient once the op has
passed it on to its operands.

Ops that a training step runs many times record one node each and keep only
what their backward reads: `linear` (x·w + b), `add_layer_norm` (the residual
add and the norm), `gelu` and `attention`. Their backward rules write into
buffers they own and hand them to the walk uncopied. `linear`, `attention`
and `add_layer_norm` take [B, S, d] items as well as [N, d] rows and keep
their input's shape; under `no_grad`, `linear` multiplies item by item, so a
batched inference forward gives each item the bits of its forward alone.

The dtype follows the data: a tensor built from float32 data stays float32,
and anything else becomes float64. An op computes in its operands' dtype and
stages every gradient in the dtype of the tensor it belongs to; a constant
operand (a Python scalar or a bare array) takes the dtype of the tensor it
meets. Model parameters are float32, so training computes in float32; tests
cast parameters to float64 to check gradients at float64 precision. The one
exception is `cross_entropy_rows`, whose log-sum-exp and loss are float64.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

_GRAD_ENABLED = [True]

# guard used wherever a backward rule would divide by a vanishing quantity
_EPS_DIV = 1e-12
LAYER_NORM_EPS = 1e-5


class no_grad:
    """Context manager that suspends taping (frozen paths, optimizer math)."""

    def __enter__(self):
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED[0] = self._prev
        return False


def _as_array(value) -> np.ndarray:
    """float32 data stays float32; anything else becomes float64."""
    arr = np.asarray(value)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    # keep row-major storage without promoting 0-d scalars to 1-d
    if arr.ndim >= 1 and not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """A dense row-major array plus its place on the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors. A constant takes the dtype of the tensor it
    meets, so `x * 0.5` stays in x's precision (NumPy would promote a 0-d
    float64 array)."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return as_tensor(a), as_tensor(b)


def _make(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _GRAD_ENABLED[0] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


# gradient map of the walk currently in progress; closures stage grads here so
# a repeated backward() contributes exactly one unit per call
_WALK: list[dict[int, np.ndarray] | None] = [None]


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Stage `g` into t's gradient, in t's dtype. An `owned` g (a fresh array
    no one else holds) already in t's dtype is adopted uncopied."""
    walk = _WALK[0]
    if walk is None or not t.requires_grad:
        return
    key = id(t)
    if key in walk:
        walk[key] += g
    elif owned and g.dtype == t.data.dtype:
        walk[key] = g
    else:
        walk[key] = np.array(g, dtype=t.data.dtype, copy=True)


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data + b.data

    def bw(g):
        _accum(a, _sum_to(g, a.shape))
        _accum(b, _sum_to(g, b.shape))

    return _make(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data - b.data

    def bw(g):
        _accum(a, _sum_to(g, a.shape))
        _accum(b, _sum_to(-g, b.shape))

    return _make(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data * b.data

    def bw(g):
        _accum(a, _sum_to(g * b.data, a.shape))
        _accum(b, _sum_to(g * a.data, b.shape))

    return _make(out, (a, b), bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def bw(g):
        _accum(a, _sum_to(g * (a.data > 0.0), a.shape))

    return _make(out, (a,), bw)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(a) -> Tensor:
    """tanh-approximation GELU."""
    a = as_tensor(a)
    x = a.data
    # products, not `**`: NumPy's float power is about 100x slower; each
    # in-place step rounds exactly as _GELU_C * (x + 0.044715 * x2 * x) and
    # 0.5 * x * (1 + t) would
    x2 = x * x
    t = x2 * 0.044715
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = x * 0.5
    out *= 1.0 + t

    def bw(g):
        # d/dx = 0.5 (1 + t) + 0.5 x (1 - t²) · c (1 + 3·0.044715 x²), each
        # step in place, in the order and with the rounding of that formula
        d_inner = x2 * (3.0 * 0.044715)
        d_inner += 1.0
        d_inner *= _GELU_C
        local = x * 0.5
        tail = t * t
        np.subtract(1.0, tail, out=tail)
        local *= tail
        local *= d_inner
        np.add(t, 1.0, out=tail)
        tail *= 0.5
        tail += local
        tail *= g
        _accum(a, tail, owned=True)

    return _make(out, (a,), bw)


# -- shape manipulation ---------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.shape))

    return _make(out, (a,), bw)


# -- reductions -----------------------------------------------------------


def tmean(a) -> Tensor:
    """Mean over every element."""
    a = as_tensor(a)
    out = a.data.mean()

    def bw(g):
        _accum(a, np.broadcast_to(g, a.shape) / a.data.size)

    return _make(out, (a,), bw)


# -- linear algebra --------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product; both 2-D, or identical leading batch dimensions."""
    a, b = _pair(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if a.ndim != 2 or b.ndim != 2:
        if a.data.shape[:-2] != b.data.shape[:-2]:
            raise ShapeError(f"matmul batch dimensions differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bw(g):
        _accum(a, g @ b.data.swapaxes(-1, -2))
        _accum(b, a.data.swapaxes(-1, -2) @ g)

    return _make(out, (a, b), bw)


def linear(x, w, b=None) -> Tensor:
    """Affine map x·w + b of [N, k] rows or [B, S, k] items, with a [k, n] w
    and an [n] b (None: no bias), as one node.

    Under `no_grad` each item is its own product, so an item's output is the
    same bits whatever its batch-mates: BLAS may round a row differently as
    the row count of one product changes. With grad enabled the B·S rows
    form one product, forward and backward; per-item products were 1.4-2.4x
    slower at training shapes.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim not in (2, 3) or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs [N, k] or [B, S, k] @ [k, n], "
                         f"got {x.shape} @ {w.shape}")
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        if b.shape != (w.shape[1],):
            raise ShapeError(f"linear bias shape {b.shape}, "
                             f"expected {(w.shape[1],)}")
        parents = (x, w, b)
    rows = x.data.reshape(-1, x.shape[-1]) if _GRAD_ENABLED[0] else x.data
    out = rows @ w.data
    if b is not None:
        out += b.data

    def bw(g):
        g = g.reshape(-1, g.shape[-1])
        _accum(x, (g @ w.data.swapaxes(-1, -2)).reshape(x.shape), owned=True)
        _accum(w, rows.swapaxes(-1, -2) @ g, owned=True)
        if b is not None:
            _accum(b, g.sum(axis=0), owned=True)

    return _make(out.reshape(*x.shape[:-1], w.shape[1]), parents, bw)


def embedding(table, ids) -> Tensor:
    """Row gather from a [V, d] table; backward scatter-adds into the table."""
    table = as_tensor(table)
    idx = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.shape[0]}): "
            f"min={idx.min()} max={idx.max()}"
        )
    out = table.data[idx]

    def bw(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, idx, g)
        _accum(table, buf, owned=True)

    return _make(out, (table,), bw)


# -- neural-net primitives --------------------------------------------------


def attention(q, k, v, b: int, s: int, heads: int, key_bias=None) -> Tensor:
    """Multi-head scaled dot-product attention over b sequences of s rows:
    [b·s, d] or [b, s, d] query, key and value rows -> context rows of the
    query's shape; `key_bias` adds a [b, s] score per key (0 valid, -inf
    padding). It keeps only the [b, h, s, s] probabilities P for its
    backward, FlashAttention's without tiling (Dao et al., 2022): dV = Pᵀ·dO,
    dQ = dS·K, dK = Qᵀ·dS, and dS = P ∘ (dP − rowsum(dP ∘ P))·scale.

    Layout rule: BLAS gets Q, V and dO as contiguous [b, h, s, dh] copies, K
    as a contiguous [b, h, dh, s] copy, and dK as Qᵀ·dS. A float32 product's
    bits depend on operand layout; these reproduce the transpose and matmul
    nodes this op replaced bit for bit, which a strided Kᵀ or dSᵀ·Q does not.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    dh = q.shape[-1] // heads
    split = lambda x, axes: np.ascontiguousarray(
        x.reshape(b, s, heads, dh).transpose(axes))
    merge = lambda x, axes: x.transpose(axes).reshape(q.shape)
    qh, kt, vh = (split(q.data, (0, 2, 1, 3)), split(k.data, (0, 2, 3, 1)),
                  split(v.data, (0, 2, 1, 3)))
    p = qh @ kt
    scale = np.asarray(dh**-0.5, dtype=p.dtype)
    p *= scale
    if key_bias is not None:
        bias = np.asarray(key_bias, dtype=p.dtype)
        if bias.shape != (b, s):
            raise ShapeError(f"key_bias shape {bias.shape}, expected {(b, s)}")
        p += bias.reshape(b, 1, 1, s)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def bw(g):
        do = split(g, (0, 2, 1, 3))
        dp = do @ vh.swapaxes(-1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        ds *= scale
        _accum(q, merge(ds @ kt.swapaxes(-1, -2), (0, 2, 1, 3)), owned=True)
        _accum(k, merge(qh.swapaxes(-1, -2) @ ds, (0, 3, 1, 2)), owned=True)
        _accum(v, merge(p.swapaxes(-1, -2) @ do, (0, 2, 1, 3)), owned=True)

    return _make(merge(p @ vh, (0, 2, 1, 3)), (q, k, v), bw)


def add_layer_norm(x, y, gain, bias) -> Tensor:
    """Layer norm of the residual sum x + y over the last axis (zero mean,
    unit variance), then affine; one node for the add and the norm."""
    x, y, gain, bias = as_tensor(x), as_tensor(y), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if y.shape != x.shape:
        raise ShapeError(f"add_layer_norm operands differ: {x.shape} vs {y.shape}")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"add_layer_norm affine shapes {gain.shape}/{bias.shape} do not match width {d}"
        )
    xhat = x.data + y.data
    mu = xhat.mean(axis=-1, keepdims=True)
    xhat -= mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)  # as np.var computes it
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bw(g):
        # dx = (d_xhat - mean(d_xhat) - xhat·mean(d_xhat·xhat))·inv, in place
        dx = g * gain.data
        work = dx * xhat
        m1 = dx.mean(axis=-1, keepdims=True)
        m2 = work.mean(axis=-1, keepdims=True)
        dx -= m1
        np.multiply(xhat, m2, out=work)
        dx -= work
        dx *= inv
        np.multiply(g, xhat, out=work)
        # y gets a copy: the walk may add into the array x adopts
        _accum(x, dx, owned=True)
        _accum(y, dx)
        # one row axis, whatever the batch shape, so the sums round alike
        _accum(gain, work.reshape(-1, d).sum(axis=0), owned=True)
        _accum(bias, g.reshape(-1, d).sum(axis=0), owned=True)

    return _make(out, (x, y, gain, bias), bw)


def cross_entropy_rows(logits, targets, reduction: str = "mean",
                       weights=None) -> Tensor:
    """Row-wise cross entropy for [N, C] logits and N integer targets.

    Optional per-row `weights` scale each row's loss before the reduction.
    The loss and its gradient are computed in float64 whatever the logits'
    dtype, so uniform logits give exactly ln(C); the gradient is staged in
    the logits' dtype.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_rows expects 2-D logits, got {logits.shape}")
    idx = np.asarray(targets, dtype=np.int64)
    n, c = logits.shape
    if n == 0:
        raise ShapeError("cross_entropy_rows needs at least one row")
    if idx.shape != (n,):
        raise ShapeError(f"targets shape {idx.shape} does not match {n} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= c):
        raise IndexError(f"cross_entropy_rows target out of range [0, {c})")
    if reduction not in ("mean", "sum"):
        raise ContractError(f"unknown reduction {reduction!r}")
    scale = np.full(n, 1.0 / n if reduction == "mean" else 1.0)
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ShapeError(f"weights shape {w.shape} does not match {n} rows")
        scale = scale * w
    x = np.asarray(logits.data, dtype=np.float64)
    m = x.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))
    rows = lse[:, 0] - x[np.arange(n), idx]
    if weights is None:
        out = rows.mean() if reduction == "mean" else rows.sum()
    else:
        out = (rows * scale).sum()

    def bw(g):
        p = np.exp(x - lse)
        p[np.arange(n), idx] -= 1.0
        _accum(logits, g * scale[:, None] * p)

    return _make(np.asarray(out), (logits,), bw)


def euclidean_distance(a, b) -> Tensor:
    """L2 distance along the last axis; backward guarded where the distance
    is 0."""
    a, b = _pair(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"distance operands differ in shape: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    dist = np.sqrt((diff * diff).sum(axis=-1))

    def bw(g):
        g = np.asarray(g)
        denom = np.maximum(dist[..., None], _EPS_DIV)
        local = diff / denom * g[..., None]
        _accum(a, local)
        _accum(b, -local)

    return _make(dist, (a, b), bw)


# -- the tape walk ----------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into the `.grad` of every leaf that requires
    grad; a leaf is a tensor no op produced. An op's output gets no `.grad`:
    its gradient lives only while the walk needs it.

    Each call contributes exactly one unit of seed gradient, so repeated calls
    without clearing `.grad` add up. Raises on non-scalar or untaped inputs.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward() expects a Tensor")
    if loss.data.size != 1:
        raise ContractError(f"backward() needs a scalar loss, shape is {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward() on a tensor that requires no grad")

    # iterative post-order DFS: parents land in `order` before their consumers
    order: list[Tensor] = []
    seen: set[int] = set()
    pending = [(loss, False)]
    while pending:
        node, expanded = pending.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        pending.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                pending.append((parent, False))

    walk: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: list[Tensor] = []
    _WALK[0] = walk
    try:
        for node in reversed(order):
            if node._backward is None:
                leaves.append(node)
                continue
            # every consumer has run, so this gradient is complete; drop it
            # from the walk once the node has passed it on
            g = walk.pop(id(node), None)
            if g is not None:
                node._backward(g)
    finally:
        _WALK[0] = None

    for leaf in leaves:
        g = walk.get(id(leaf))
        if g is not None and leaf.requires_grad:
            if leaf.grad is None:
                # the walk's arrays are private copies (see _accum): adopt
                # them rather than allocate and add into zeros
                leaf.grad = g.reshape(leaf.data.shape)
            else:
                leaf.grad += g
