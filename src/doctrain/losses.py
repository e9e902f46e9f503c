"""Pre-training objectives: document triplet margin loss and per-level
hierarchy classification loss. The combined objective is their plain sum."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import NumericError, ShapeError
from .tensor import Tensor

# the margin is part of the objective's definition, not a knob
TRIPLET_MARGIN = 1.0


def _check_finite(*tensors: Tensor) -> None:
    for t in tensors:
        if not np.isfinite(t.data).all():
            raise NumericError("non-finite input to loss")


def triplet_loss(anchor: Tensor, positive: Tensor, negative: Tensor) -> Tensor:
    """max(d(a, p) - d(a, n) + 1, 0) with d the L2 distance.

    Accepts single [d] vectors or stacked [B, d] batches; a batch reduces to
    the mean over its triplets.
    """
    if anchor.shape != positive.shape or anchor.shape != negative.shape:
        raise ShapeError(
            f"triplet operands differ in shape: {anchor.shape}, "
            f"{positive.shape}, {negative.shape}"
        )
    if anchor.ndim not in (1, 2):
        raise ShapeError(f"expected [d] or [B, d] inputs, got {anchor.shape}")
    _check_finite(anchor, positive, negative)
    d_pos = T.euclidean_distance(anchor, positive)
    d_neg = T.euclidean_distance(anchor, negative)
    hinge = T.relu(d_pos - d_neg + TRIPLET_MARGIN)
    return T.tmean(hinge) if anchor.ndim == 2 else hinge


def hierarchical_loss_rows(logits_per_level: list[Tensor],
                           targets_per_level: list[np.ndarray],
                           num_sets: int) -> Tensor:
    """Hierarchy loss: cross entropy summed over every (document, level)
    pair, divided by the number of document sets (triplets), i.e. a per-set
    sum followed by a mean over sets; one document is the num_sets=1 case.

    `logits_per_level[j]` stacks all documents' level-j logits as [N, C_j+1];
    `targets_per_level[j]` carries the matching N integer labels.
    """
    if len(logits_per_level) != len(targets_per_level):
        raise ShapeError("logits/targets level counts differ")
    if not logits_per_level:
        raise ShapeError("hierarchical loss needs at least one level")
    if num_sets < 1:
        raise ShapeError(f"num_sets must be >= 1, got {num_sets}")
    total = None
    for logits, targets in zip(logits_per_level, targets_per_level):
        _check_finite(logits)
        level_sum = T.cross_entropy_rows(logits, targets, reduction="sum")
        total = level_sum if total is None else total + level_sum
    return total * (1.0 / num_sets)
