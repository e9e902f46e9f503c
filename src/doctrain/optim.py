"""Parameter grouping, decoupled-weight-decay Adam, and the linear LR schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.01


def snap32(arr: np.ndarray) -> np.ndarray:
    """Round float64 values onto the float32-representable grid.

    Parameters live on this grid so the float32 checkpoint payload is a
    lossless encoding of the in-memory model.
    """
    return arr.astype(np.float32).astype(np.float64)


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
    m: np.ndarray
    v: np.ndarray
    touched: np.ndarray  # per row: has its gradient ever been non-zero


class AdamW:
    """Adam with decoupled weight decay over a list of ParamGroups.

    Frozen groups are never touched. Trainable tensors must carry gradients
    when `step` is called; a missing gradient is a contract violation.

    The Adam term is computed only on rows (first axis; a 0-d tensor is one
    row) whose gradient has ever been non-zero. Any other row has
    m = v = g = 0, so its term is exactly lr*0/(0+eps) = 0 and the decay and
    float32 snap, applied to the whole tensor in place, are its whole update:
    every parameter is bit-identical to a dense step.
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
                    slot = _Slot(np.zeros_like(data), np.zeros_like(data),
                                 np.zeros(len(data), dtype=bool))
                    self._slots[id(p)] = slot
                slot.touched |= g.any(axis=tuple(range(1, g.ndim)))
                rows = (... if slot.touched.all()
                        else np.flatnonzero(slot.touched))
                g = g[rows]
                slot.m[rows] = BETA1 * slot.m[rows] + (1.0 - BETA1) * g
                slot.v[rows] = BETA2 * slot.v[rows] + (1.0 - BETA2) * (g * g)
                m_hat = slot.m[rows] / bias1
                v_hat = slot.v[rows] / bias2
                data *= 1.0 - lr * WEIGHT_DECAY
                data[rows] -= lr * m_hat / (np.sqrt(v_hat) + EPS)
                data[...] = data.astype(np.float32)
