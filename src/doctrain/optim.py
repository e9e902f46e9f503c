"""Parameter grouping, decoupled-weight-decay Adam, and the linear LR schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.01


@dataclass
class ParamGroup:
    """A named set of parameters updated (or skipped) together."""

    name: str
    tensors: list[Tensor]
    frozen: bool = False


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
    m: np.ndarray  # float64, like v, whatever the parameter's dtype
    v: np.ndarray
    touched: np.ndarray  # per row: has its gradient ever been non-zero


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

    Frozen groups are never touched. Trainable tensors must carry gradients
    when `step` is called; a missing gradient is a contract violation.

    The moments and the update are float64; the result is stored in the
    parameter's own dtype, so a float32 parameter gets the float32 rounding
    of the float64 update (mixed precision as in Micikevicius et al., arXiv
    1710.03740, with float32 in place of float16).

    The Adam term is computed only on rows (first axis; a 0-d tensor is one
    row) whose gradient has ever been non-zero. Any other row has
    m = v = g = 0, so its term is exactly lr*0/(0+eps) = 0 and the decay,
    applied to the whole tensor in place, is its whole update: every
    parameter is bit-identical to a dense step.
    """

    def __init__(self, groups: list[ParamGroup], lr: float = 5e-5):
        if lr < 0:
            raise ConfigError(f"lr must be non-negative, got {lr}")
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
            if group.frozen:
                continue
            for p in group.tensors:
                if p.grad is None:
                    raise ContractError(
                        f"missing gradient on trainable tensor in group {group.name!r}"
                    )
                # views, so a 0-d tensor is one row and updates land in p.data
                data, g = np.atleast_1d(p.data, p.grad)
                slot = self._slots.get(id(p))
                if slot is None:
                    slot = _Slot(np.zeros(data.shape), np.zeros(data.shape),
                                 np.zeros(len(data), dtype=bool))
                    self._slots[id(p)] = slot
                slot.touched |= g.any(axis=tuple(range(1, g.ndim)))
                if slot.touched.all():
                    data[...] = _adam(data, g, slot.m, slot.v, lr, bias1, bias2)
                    continue
                rows = np.flatnonzero(slot.touched)
                m, v = slot.m[rows], slot.v[rows]
                new = _adam(data[rows], g[rows], m, v, lr, bias1, bias2)
                slot.m[rows], slot.v[rows] = m, v
                # the idle rows' whole update, computed in float64 through
                # the ufunc's small buffers: no table-sized temporary
                np.multiply(data, 1.0 - lr * WEIGHT_DECAY, out=data,
                            dtype=np.float64)
                data[rows] = new
