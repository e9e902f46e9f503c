"""Dense tensors with reverse-mode automatic differentiation.

Every operation that touches a gradient-requiring tensor records itself on an
implicit tape (the `_parents` / `_backward` links of its output). `backward()`
walks that graph once, in reverse topological order, and accumulates gradients
into `.grad`. Arithmetic runs in float64; parameter storage is snapped to
float32-representable values by the optimizer so checkpoints serialize to raw
float32 losslessly.
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


def _as_f64(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    # keep row-major storage without promoting 0-d scalars to 1-d
    if arr.ndim >= 1 and not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """A dense row-major array plus its place on the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f64(data)
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


def _accum(t: Tensor, g: np.ndarray) -> None:
    walk = _WALK[0]
    if walk is None or not t.requires_grad:
        return
    key = id(t)
    if key in walk:
        walk[key] += g
    else:
        walk[key] = np.array(g, dtype=np.float64, copy=True)


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
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bw(g):
        _accum(a, _sum_to(g, a.shape))
        _accum(b, _sum_to(g, b.shape))

    return _make(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def bw(g):
        _accum(a, _sum_to(g, a.shape))
        _accum(b, _sum_to(-g, b.shape))

    return _make(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
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
    # products, not `**`: NumPy's float power is about 100x slower
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * x2 * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def bw(g):
        d_inner = _GELU_C * (1.0 + 3.0 * 0.044715 * x2)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        _accum(a, _sum_to(g * local, a.shape))

    return _make(out, (a,), bw)


# -- shape manipulation ---------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.shape))

    return _make(out, (a,), bw)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = np.ascontiguousarray(a.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def bw(g):
        _accum(a, g.transpose(inverse))

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
    a, b = as_tensor(a), as_tensor(b)
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
        if not table.requires_grad:
            return
        buf = np.zeros_like(table.data)
        np.add.at(buf, idx, g)
        _accum(table, buf)

    return _make(out, (table,), bw)


# -- neural-net primitives --------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max subtraction) along `axis`."""
    a = as_tensor(a)
    if a.data.shape == () or a.data.shape[axis] == 0:
        raise ShapeError(f"softmax needs a non-empty axis, shape is {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accum(a, out * (g - inner))

    return _make(out, (a,), bw)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match width {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data

    def bw(g):
        d_xhat = g * gain.data
        m1 = d_xhat.mean(axis=-1, keepdims=True)
        m2 = (d_xhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, (d_xhat - m1 - xhat * m2) * inv)
        reduce_axes = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=reduce_axes))
        _accum(bias, g.sum(axis=reduce_axes))

    return _make(out, (x, gain, bias), bw)


def cross_entropy_rows(logits, targets, reduction: str = "mean",
                       weights=None) -> Tensor:
    """Row-wise cross entropy for [N, C] logits and N integer targets.

    Optional per-row `weights` scale each row's loss before the reduction.
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
    m = logits.data.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits.data - m).sum(axis=1, keepdims=True))
    rows = lse[:, 0] - logits.data[np.arange(n), idx]
    if weights is None:
        out = rows.mean() if reduction == "mean" else rows.sum()
    else:
        out = (rows * scale).sum()

    def bw(g):
        p = np.exp(logits.data - lse)
        p[np.arange(n), idx] -= 1.0
        _accum(logits, g * scale[:, None] * p)

    return _make(np.asarray(out), (logits,), bw)


def euclidean_distance(a, b, axis: int = -1) -> Tensor:
    """L2 distance along `axis`; backward guarded where the distance is 0."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"distance operands differ in shape: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    dist = np.sqrt((diff * diff).sum(axis=axis))

    def bw(g):
        g = np.asarray(g)
        denom = np.maximum(np.expand_dims(dist, axis), _EPS_DIV)
        local = diff / denom * np.expand_dims(g, axis)
        _accum(a, local)
        _accum(b, -local)

    return _make(dist, (a, b), bw)


# -- the tape walk ----------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into `.grad` over the recorded graph.

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
    _WALK[0] = walk
    try:
        for node in reversed(order):
            if node._backward is None:
                continue
            g = walk.get(id(node))
            if g is None:
                continue
            node._backward(g)
    finally:
        _WALK[0] = None

    for node in order:
        g = walk.get(id(node))
        if g is not None and node.requires_grad:
            if node.grad is None:
                # the walk's arrays are private copies (see _accum): adopt
                # them rather than allocate and add into zeros
                node.grad = g.reshape(node.data.shape)
            else:
                node.grad += g
