"""Optimizer and schedule tests with hand-computed update oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrain.errors import ConfigError, ContractError
from doctrain.optim import AdamW, ParamGroup, linear_lr, snap32
from doctrain.tensor import Tensor


def param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestLinearSchedule:
    def test_endpoints(self):
        assert linear_lr(5e-5, 0, 100) == 5e-5
        assert linear_lr(5e-5, 99, 100) == 0.0

    def test_halfway(self):
        # 101 steps puts step 50 exactly at the midpoint
        assert abs(linear_lr(2.0, 50, 101) - 1.0) < 1e-15

    def test_single_step_keeps_initial_rate(self):
        assert linear_lr(3e-4, 0, 1) == 3e-4

    def test_monotone_decreasing(self):
        rates = [linear_lr(1.0, s, 17) for s in range(17)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_step_count_for_desk_scale_run(self):
        # 2000 triplets at batch 32: the loop trains the short last batch too
        assert math.ceil(2000 / 32) == 63
        linear_lr(5e-5, 62, 63)  # last step is in range
        with pytest.raises(ConfigError):
            linear_lr(5e-5, 63, 63)

    def test_bad_totals(self):
        with pytest.raises(ConfigError):
            linear_lr(1.0, 0, 0)
        with pytest.raises(ConfigError):
            linear_lr(1.0, -1, 10)


class TestSnap32:
    def test_idempotent(self):
        x = np.array([1 / 3, math.pi, 1e-20, -7.25])
        once = snap32(x)
        assert np.array_equal(snap32(once), once)

    def test_exact_for_float32_values(self):
        x = np.array([0.5, -2.0, 1.25], dtype=np.float64)
        assert np.array_equal(snap32(x), x)

    def test_returns_float64(self):
        assert snap32(np.array([1.1])).dtype == np.float64


class TestAdamW:
    def test_single_step_matches_hand_formula(self):
        """One step from fresh state, compared against the written-out update."""
        theta0 = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -0.1, 0.0])
        p = param(theta0.copy())
        p.grad = g.copy()
        opt = AdamW([ParamGroup("w", [p])], lr=1e-3)
        opt.step()

        m_hat = (0.1 * g) / (1 - 0.9)          # == g after bias correction
        v_hat = (0.001 * g * g) / (1 - 0.999)  # == g*g
        want = theta0 * (1 - 1e-3 * 0.01)
        want -= 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p.data, snap32(want), atol=0, rtol=0)

    def test_two_steps_match_hand_recursion(self):
        theta = np.array([0.7])
        grads = [np.array([0.2]), np.array([-0.4])]
        p = param(theta.copy())
        opt = AdamW([ParamGroup("w", [p])], lr=0.01)

        m = np.zeros(1)
        v = np.zeros(1)
        ref = theta.copy()
        for i, g in enumerate(grads, start=1):
            p.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref * (1 - 0.01 * 0.01) - 0.01 * (m / (1 - 0.9**i)) / (
                np.sqrt(v / (1 - 0.999**i)) + 1e-8)
            ref = snap32(ref)
            assert np.allclose(p.data, ref, atol=0, rtol=0)

    def test_zero_grad_clears_all_groups(self):
        a, b = param([1.0]), param([2.0])
        a.grad = np.ones(1)
        b.grad = np.ones(1)
        AdamW([ParamGroup("a", [a]), ParamGroup("b", [b])]).zero_grad()
        assert a.grad is None and b.grad is None

    def test_frozen_group_is_bit_identical(self):
        frozen = param([1.0, 2.0, 3.0])
        live = param([1.0, 2.0, 3.0])
        before = frozen.data.tobytes()
        opt = AdamW([ParamGroup("frozen", [frozen], frozen=True),
                     ParamGroup("live", [live])], lr=0.1)
        for _ in range(5):
            frozen.grad = np.ones(3)  # even with a grad present it is skipped
            live.grad = np.ones(3)
            opt.step()
        assert frozen.data.tobytes() == before
        assert not np.array_equal(live.data, [1.0, 2.0, 3.0])

    def test_missing_grad_names_group(self):
        p = param([1.0])
        opt = AdamW([ParamGroup("upper", [p])])
        with pytest.raises(ContractError, match="upper"):
            opt.step()

    def test_duplicate_group_names_rejected(self):
        with pytest.raises(ConfigError):
            AdamW([ParamGroup("w", [param([1.0])]),
                   ParamGroup("w", [param([2.0])])])

    def test_config_validation(self):
        group = [ParamGroup("w", [param([1.0])])]
        with pytest.raises(ConfigError):
            AdamW(group, lr=-1.0)

    def test_per_step_lr_override(self):
        """step(lr=...) drives the decayed schedule without mutating opt.lr."""
        p = param([1.0])
        opt = AdamW([ParamGroup("w", [p])], lr=123.0)
        p.grad = np.array([0.5])
        opt.step(lr=0.0)
        assert p.data[0] == 1.0  # zero rate moves nothing
        assert opt.lr == 123.0

    def test_parameters_stay_on_float32_grid(self):
        p = param([1 / 3])
        opt = AdamW([ParamGroup("w", [p])], lr=0.01)
        for _ in range(3):
            p.grad = np.array([0.1])
            opt.step()
        assert np.array_equal(snap32(p.data), p.data)

    def test_group_helpers(self):
        g = ParamGroup("w", [param(np.ones((2, 3))), param([-2.0])])
        assert sum(t.size for t in g.tensors) == 7


def dense_adamw(theta, grads, lrs):
    """The dense update every row took before AdamW skipped idle rows."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        theta = theta * (1.0 - lr * 0.01)
        theta = theta - lr * (m / (1.0 - 0.9**t)) / (
            np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        theta = snap32(theta)
    return theta


class TestTouchedRows:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), rows=st.integers(3, 10),
           cols=st.integers(1, 4), steps=st.integers(5, 8),
           lr0=st.sampled_from([1e-3, 0.05, 0.5]),
           idle_zero=st.sampled_from([0.0, -0.0]))
    def test_bit_identical_to_the_dense_step(self, seed, rows, cols, steps,
                                             lr0, idle_zero):
        """A table with never-touched rows, rows touched once and then idle,
        and busy rows, plus 1-D and 0-d parameters, ends where the dense
        update puts it, byte for byte; no gradient is written."""
        rng = np.random.default_rng(seed)
        # row kinds: 0 never touched, 1 touched at one step only, 2 random
        kinds = np.concatenate([[0, 1, 2], rng.integers(0, 3, rows - 3)])
        once = rng.integers(0, steps, rows)
        shapes = [(rows, cols), (cols,), ()]
        thetas = [snap32(rng.normal(size=s)) for s in shapes]
        grads = []
        for step in range(steps):
            table = rng.normal(size=(rows, cols))
            idle = (kinds == 0) | ((kinds == 1) & (once != step)) | (
                (kinds == 2) & (rng.random(rows) < 0.3))
            table[idle] = idle_zero
            vector = rng.normal(size=cols) * (rng.random(cols) < 0.5)
            scalar = np.asarray(rng.normal() if rng.random() < 0.5 else 0.0)
            grads.append([table, vector, scalar])
        lrs = [linear_lr(lr0, step, steps) for step in range(steps)]

        params = [param(theta.copy()) for theta in thetas]
        opt = AdamW([ParamGroup("w", params)], lr=lr0)
        for step_grads, lr in zip(grads, lrs):
            for p, g in zip(params, step_grads):
                p.grad = g
            before = [g.tobytes() for g in step_grads]
            opt.step(lr=lr)
            assert [p.grad.tobytes() for p in params] == before
            assert all(p.grad is g for p, g in zip(params, step_grads))
        for i, (p, theta) in enumerate(zip(params, thetas)):
            want = dense_adamw(theta, [g[i] for g in grads], lrs)
            assert p.shape == theta.shape
            assert p.data.tobytes() == want.tobytes()  # atol=0, sign of zero

    def test_idle_rows_cost_no_table_sized_allocation(self):
        """With 8 of 8192 rows touched, a step allocates less than one
        float64 copy of the table (a dense step allocates several)."""
        rng = np.random.default_rng(0)
        table = param(snap32(rng.normal(size=(8192, 128))))
        grad = np.zeros_like(table.data)
        grad[rng.choice(8192, 8, replace=False)] = rng.normal(size=(8, 128))
        table.grad = grad
        opt = AdamW([ParamGroup("tokens", [table])], lr=1e-3)
        opt.step()  # creates the slots
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.data.nbytes
