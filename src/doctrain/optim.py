"""Parameter groups, AdamW, the linear LR schedule and the training loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericError
from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.01


@dataclass
class ParamGroup:
    """A named set of parameters; `requires_grad` on each says what trains."""

    name: str
    tensors: list[Tensor]

    @property
    def frozen(self) -> bool:
        return not any(t.requires_grad for t in self.tensors)


def linear_lr(initial_lr: float, step: int, total_steps: int) -> float:
    """Linear decay from `initial_lr` at step 0 to exactly 0 at the last step.

    Degenerate single-step runs keep the initial rate.
    """
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step < total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps})")
    if total_steps == 1:
        return initial_lr
    return initial_lr * (total_steps - 1 - step) / (total_steps - 1)


@dataclass
class _Slot:
    touched: np.ndarray  # per row: has its gradient ever been non-zero
    # float64 moments of the touched rows only, in row order, whatever the
    # parameter's dtype
    m: np.ndarray
    v: np.ndarray

    def add_rows(self, hot: np.ndarray) -> None:
        """Mark the rows of the bool mask `hot` touched, inserting zero
        moments for each row not touched before."""
        added = hot & ~self.touched
        if not added.any():
            return
        if len(self.m):
            at = np.searchsorted(np.flatnonzero(self.touched),
                                 np.flatnonzero(added))
            self.m = np.insert(self.m, at, 0.0, axis=0)
            self.v = np.insert(self.v, at, 0.0, axis=0)
        else:  # fresh zeros, as dense moments were: less resident memory
            shape = (np.count_nonzero(added), *self.m.shape[1:])
            self.m, self.v = np.zeros(shape), np.zeros(shape)
        self.touched |= added


def _adam(theta, g, m, v, lr: float, bias1: float, bias2: float) -> np.ndarray:
    """Advance the moments `m` and `v` in place by gradient `g` and return
    the decayed and updated `theta`, all in float64 whatever the dtypes of
    `theta` and `g`. Two float64 buffers serve every operation."""
    buf = np.multiply(g, 1.0 - BETA1, dtype=np.float64)
    m *= BETA1
    m += buf
    np.multiply(g, g, out=buf, dtype=np.float64)
    buf *= 1.0 - BETA2
    v *= BETA2
    v += buf
    np.divide(v, bias2, out=buf)
    np.sqrt(buf, out=buf)
    buf += EPS
    step = np.divide(m, bias1)
    step *= lr
    step /= buf
    np.multiply(theta, 1.0 - lr * WEIGHT_DECAY, out=buf, dtype=np.float64)
    buf -= step
    return buf


class AdamW:
    """Adam with decoupled weight decay over a list of ParamGroups.

    A tensor that does not require grad is never touched. One that does must
    carry a gradient when `step` is called; a missing one is a contract
    violation.

    The moments and the update are float64; the result is stored in the
    parameter's own dtype, so a float32 parameter gets the float32 rounding
    of the float64 update (mixed precision as in Micikevicius et al., arXiv
    1710.03740, with float32 in place of float16).

    The moments are kept, and the Adam term computed, only for rows (first
    axis; a 0-d tensor is one row) whose gradient has ever been non-zero.
    Any other row has m = v = g = 0, so its term is exactly
    lr*0/(0+eps) = 0 and the decay, applied to the whole tensor in place,
    is its whole update: every parameter is bit-identical to a dense step.
    Unlike SparseAdam or LazyAdam, idle rows still decay.
    """

    def __init__(self, groups: list[ParamGroup], lr: float = 5e-5):
        if not 0 <= lr < np.inf:
            raise ConfigError(f"lr must be finite and non-negative, got {lr}")
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate group names: {names}")
        self.groups = groups
        self.lr = lr
        self.step_count = 0
        self._slots: dict[int, _Slot] = {}

    def zero_grad(self) -> None:
        for group in self.groups:
            for t in group.tensors:
                t.grad = None

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - BETA1**t
        bias2 = 1.0 - BETA2**t
        for group in self.groups:
            for p in group.tensors:
                if not p.requires_grad:
                    continue
                if p.grad is None:
                    raise ContractError(
                        f"missing gradient on trainable tensor in group {group.name!r}"
                    )
                # views, so a 0-d tensor is one row and updates land in p.data
                data, g = np.atleast_1d(p.data, p.grad)
                slot = self._slots.get(id(p))
                if slot is None:
                    empty = np.zeros((0, *data.shape[1:]))
                    slot = _Slot(np.zeros(len(data), dtype=bool), empty,
                                 empty.copy())
                    self._slots[id(p)] = slot
                if len(slot.m) < len(data):
                    slot.add_rows(g.any(axis=tuple(range(1, g.ndim))))
                if len(slot.m) == len(data):
                    data[...] = _adam(data, g, slot.m, slot.v, lr, bias1, bias2)
                    continue
                rows = np.flatnonzero(slot.touched)
                new = _adam(data[rows], g[rows], slot.m, slot.v, lr, bias1,
                            bias2)
                # the idle rows' whole update, computed in float64 through
                # the ufunc's small buffers: no table-sized temporary
                np.multiply(data, 1.0 - lr * WEIGHT_DECAY, out=data,
                            dtype=np.float64)
                data[rows] = new


def train_steps(optimizer: AdamW, n_items: int, batch_size: int, epochs: int,
                rng: np.random.Generator, step_loss, lr_at, backward):
    """Train in batches of `batch_size` cut from one `rng.permutation` of the
    `n_items` items per epoch; yield each step's {"step", "lr", "loss"} row
    once its update is done. A step's loss is `step_loss(indices)` and must
    be finite before `backward(loss)`, which the caller passes from its own
    module so that a replaced binding sees every step."""
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n_items)
        for lo in range(0, n_items, batch_size):
            loss = step_loss(order[lo:lo + batch_size])
            if not np.isfinite(loss.data).all():
                raise NumericError(f"non-finite loss at step {step}")
            backward(loss)
            lr = lr_at(step)
            optimizer.step(lr)
            optimizer.zero_grad()
            yield {"step": step, "lr": lr, "loss": float(loss.item())}
            step += 1
