"""Loss definitions checked against brute-force numpy oracles.

Pinned derived values used below (worked out by hand first):
  - anchor == positive, negative at L2 distance 2  ->  hinge 0 under margin 1
    only when d_neg - d_pos >= 1; with d_pos=0, d_neg=2 the loss is 0.
  - identical anchor/positive/negative  ->  loss == margin == 1.
  - d_pos=2, d_neg=0 (swapped roles)  ->  loss == 3.
  - zero logits over C+1 classes  ->  per-level CE == ln(C+1).
  - two-level zero-logit doc with widths (2, 4)  ->  ln(3) + ln(5).
  - logits (10, 0), target 0  ->  CE == ln(1 + e^-10).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrain import tensor as T
from doctrain.errors import NumericError, ShapeError
from doctrain.losses import TRIPLET_MARGIN, hierarchical_loss_rows, triplet_loss
from doctrain.tensor import Tensor, backward


def vec(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def one_doc(levels, targets):
    """Hierarchy loss of one document from its [1, C_j] level logits."""
    return hierarchical_loss_rows(levels, [np.array([t]) for t in targets],
                                  num_sets=1)


def oracle_triplet(a, p, n):
    d_pos = np.linalg.norm(a - p)
    d_neg = np.linalg.norm(a - n)
    return max(d_pos - d_neg + 1.0, 0.0)


def oracle_ce(logits, target):
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[target])


class TestTripletLoss:
    def test_margin_is_fixed_at_one(self):
        assert TRIPLET_MARGIN == 1.0

    def test_identical_triplet_costs_the_margin(self):
        a = vec([0.3, -0.7, 2.0])
        loss = triplet_loss(a, vec(a.data.copy()), vec(a.data.copy()))
        assert abs(loss.item() - 1.0) < 1e-12

    def test_well_separated_triplet_costs_nothing(self):
        a = vec([0.0, 0.0])
        p = vec([0.0, 0.0])
        n = vec([0.0, 2.0])
        assert triplet_loss(a, p, n).item() == 0.0

    def test_swapped_pair_costs_three(self):
        # positive at distance 2, negative at distance 0
        a = vec([0.0, 0.0])
        p = vec([0.0, 2.0])
        n = vec([0.0, 0.0])
        assert abs(triplet_loss(a, p, n).item() - 3.0) < 1e-12

    def test_batch_is_mean_of_singles(self, rng):
        a, p, n = (rng.normal(size=(6, 5)) for _ in range(3))
        singles = [triplet_loss(vec(a[i]), vec(p[i]), vec(n[i])).item()
                   for i in range(6)]
        batched = triplet_loss(vec(a), vec(p), vec(n)).item()
        assert abs(batched - np.mean(singles)) < 1e-12

    def test_hundred_random_cases_match_oracle(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 9))
            a, p, n = (rng.normal(size=d) * rng.uniform(0.1, 4)
                       for _ in range(3))
            got = triplet_loss(vec(a), vec(p), vec(n)).item()
            assert abs(got - oracle_triplet(a, p, n)) < 1e-6

    def test_gradients_match_finite_differences(self, rng):
        a = rng.normal(size=4) + 2.0  # keep away from the hinge kink
        p = rng.normal(size=4)
        n = rng.normal(size=4) * 0.1
        if oracle_triplet(a, p, n) < 0.1:  # ensure the hinge is active
            p = p + 3.0
        ta, tp, tn = vec(a.copy()), vec(p.copy()), vec(n.copy())
        backward(triplet_loss(ta, tp, tn))
        eps = 1e-6
        for arr, tensor in ((a, ta), (p, tp), (n, tn)):
            for i in range(4):
                orig = arr[i]
                arr[i] = orig + eps
                hi = oracle_triplet(a, p, n)
                arr[i] = orig - eps
                lo = oracle_triplet(a, p, n)
                arr[i] = orig
                assert abs(tensor.grad[i] - (hi - lo) / (2 * eps)) < 1e-5

    def test_inactive_hinge_has_zero_gradient(self):
        a = vec([0.0, 0.0])
        p = vec([0.1, 0.0])
        n = vec([5.0, 0.0])
        loss = triplet_loss(a, p, n)
        assert loss.item() == 0.0
        backward(loss)
        assert np.array_equal(a.grad, np.zeros(2))

    def test_rotation_invariance(self, rng):
        """L2 distances are rotation invariant, so the loss must be too."""
        a, p, n = (rng.normal(size=3) for _ in range(3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        base = triplet_loss(vec(a), vec(p), vec(n)).item()
        rotated = triplet_loss(vec(a @ q), vec(p @ q), vec(n @ q)).item()
        assert abs(base - rotated) < 1e-9

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            triplet_loss(vec([1.0, 2.0]), vec([1.0]), vec([1.0, 2.0]))
        with pytest.raises(ShapeError):
            triplet_loss(vec(np.zeros((2, 2, 2))), vec(np.zeros((2, 2, 2))),
                         vec(np.zeros((2, 2, 2))))

    def test_non_finite_input_raises(self):
        bad = vec([np.nan, 0.0])
        with pytest.raises(NumericError):
            triplet_loss(bad, vec([0.0, 0.0]), vec([0.0, 0.0]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_loss_is_nonnegative_and_capped(self, seed):
        rng = np.random.default_rng(seed)
        a, p, n = (rng.normal(size=4) for _ in range(3))
        loss = triplet_loss(vec(a), vec(p), vec(n)).item()
        assert loss >= 0.0
        # hinge can never exceed d_pos + d_neg + margin
        bound = (np.linalg.norm(a - p) + np.linalg.norm(a - n) + 1.0)
        assert loss <= bound + 1e-9


class TestHierarchicalLoss:
    def test_zero_logits_sum_ln_of_widths(self):
        logits = [vec(np.zeros((1, 3))), vec(np.zeros((1, 5)))]
        got = one_doc(logits, [0, 4]).item()
        assert abs(got - (math.log(3) + math.log(5))) < 1e-12

    def test_two_logit_example(self):
        got = one_doc([vec([[10.0, 0.0]])], [0]).item()
        assert abs(got - math.log(1 + math.exp(-10))) < 1e-12

    def test_matches_ce_oracle_per_level(self, rng):
        for _ in range(50):
            widths = rng.integers(2, 7, size=rng.integers(1, 4))
            logits = [rng.normal(size=w) * 3 for w in widths]
            targets = [int(rng.integers(0, w)) for w in widths]
            want = sum(oracle_ce(lv, t) for lv, t in zip(logits, targets))
            got = one_doc([vec(lv[None]) for lv in logits], targets).item()
            assert abs(got - want) < 1e-6

    def test_level_count_mismatch(self):
        with pytest.raises(ShapeError):
            one_doc([vec(np.zeros((1, 3)))], [0, 1])
        with pytest.raises(ShapeError):
            one_doc([], [])

    def test_null_class_is_a_valid_target(self):
        # last index stands for "no label at this level"
        lv = vec([[0.0, 0.0, 0.0]])
        assert one_doc([lv], [2]).item() == pytest.approx(math.log(3))

    def test_gradient_flows_to_logits(self):
        lv = vec([[1.0, -1.0, 0.5]])
        backward(one_doc([lv], [1]))
        assert lv.grad is not None and not np.allclose(lv.grad, 0.0)


class TestHierarchicalLossRows:
    def test_equals_sum_of_per_doc_losses_over_sets(self, rng):
        """Batched value == sum of single-doc losses / num_sets."""
        num_docs, num_sets = 6, 2
        widths = (4, 3)
        logit_mats = [rng.normal(size=(num_docs, w)) for w in widths]
        targets = [rng.integers(0, w, size=num_docs) for w in widths]
        want = sum(
            one_doc([vec(mat[i:i + 1]) for mat in logit_mats],
                    [int(t[i]) for t in targets]).item()
            for i in range(num_docs)
        ) / num_sets
        got = hierarchical_loss_rows(
            [vec(mat) for mat in logit_mats], targets, num_sets).item()
        assert abs(got - want) < 1e-9

    def test_zero_logit_batch_value(self):
        # N docs of zero logits at width C+1 each contribute ln(C+1)
        logits = [vec(np.zeros((4, 5)))]
        targets = [np.array([0, 1, 2, 4])]
        got = hierarchical_loss_rows(logits, targets, num_sets=2).item()
        assert abs(got - 4 * math.log(5) / 2) < 1e-12

    def test_validation(self):
        with pytest.raises(ShapeError):
            hierarchical_loss_rows([vec(np.zeros((2, 3)))], [], 1)
        with pytest.raises(ShapeError):
            hierarchical_loss_rows([], [], 1)
        with pytest.raises(ShapeError):
            hierarchical_loss_rows([vec(np.zeros((2, 3)))],
                                   [np.array([0, 1])], 0)


class TestTotalLoss:
    """The combined objective is the plain sum of the two losses."""

    def test_combined_gradient_is_sum_of_parts(self, rng):
        a, p, n = (vec(rng.normal(size=3)) for _ in range(3))
        lv = vec(rng.normal(size=(1, 4)))
        backward(triplet_loss(a, p, n) + one_doc([lv], [2]))
        a2, p2, n2 = (vec(x.data.copy()) for x in (a, p, n))
        backward(triplet_loss(a2, p2, n2))
        assert np.allclose(a.grad, a2.grad)
        lv2 = vec(lv.data.copy())
        backward(one_doc([lv2], [2]))
        assert np.allclose(lv.grad, lv2.grad)
