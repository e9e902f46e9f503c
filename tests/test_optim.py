"""Optimizer and schedule tests with hand-computed update oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrain.errors import ConfigError, ContractError
from doctrain.optim import AdamW, ParamGroup, linear_lr
from doctrain.tensor import Tensor


def param(values):
    return Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)


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


class TestAdamW:
    def test_single_step_matches_hand_formula(self):
        """One step from fresh state, compared against the written-out
        update: float64 arithmetic on the float32 gradient, stored as the
        float32 rounding."""
        theta0 = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -0.1, 0.0], dtype=np.float32)
        p = param(theta0)
        p.grad = g.copy()
        opt = AdamW([ParamGroup("w", [p])], lr=1e-3)
        opt.step()

        g = g.astype(np.float64)
        m_hat = (0.1 * g) / (1 - 0.9)          # == g after bias correction
        v_hat = (0.001 * g * g) / (1 - 0.999)  # == g*g
        want = theta0 * (1 - 1e-3 * 0.01)
        want -= 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert p.data.dtype == np.float32
        assert np.array_equal(p.data, want.astype(np.float32))

    def test_two_steps_match_hand_recursion(self):
        grads = [np.array([0.2], np.float32), np.array([-0.4], np.float32)]
        p = param([0.7])
        opt = AdamW([ParamGroup("w", [p])], lr=0.01)

        m = np.zeros(1)
        v = np.zeros(1)
        ref = p.data.copy()  # float32: each step starts from what was stored
        for i, g in enumerate(grads, start=1):
            p.grad = g.copy()
            opt.step()
            g = g.astype(np.float64)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = (ref.astype(np.float64) * (1 - 0.01 * 0.01)
                   - 0.01 * (m / (1 - 0.9**i)) / (
                       np.sqrt(v / (1 - 0.999**i)) + 1e-8)).astype(np.float32)
            assert np.array_equal(p.data, ref)

    def test_zero_grad_clears_all_groups(self):
        a, b = param([1.0]), param([2.0])
        a.grad = np.ones(1)
        b.grad = np.ones(1)
        AdamW([ParamGroup("a", [a]), ParamGroup("b", [b])]).zero_grad()
        assert a.grad is None and b.grad is None

    def test_frozen_group_is_bit_identical(self):
        frozen = param([1.0, 2.0, 3.0])
        frozen.requires_grad = False
        live = param([1.0, 2.0, 3.0])
        before = frozen.data.tobytes()
        group = ParamGroup("frozen", [frozen])
        assert group.frozen
        opt = AdamW([group, ParamGroup("live", [live])], lr=0.1)
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

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="finite"):
            AdamW([ParamGroup("w", [param([1.0])])], lr=lr)

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
            p.grad = np.array([0.1], np.float32)
            opt.step()
        assert p.data.dtype == np.float32
        slot = opt._slots[id(p)]
        assert slot.m.dtype == slot.v.dtype == np.float64

    def test_float64_parameter_is_updated_in_float64(self):
        """The update is stored in the parameter's own dtype: a float64
        parameter (a test's cast model) keeps every float64 digit."""
        p = Tensor(np.array([1 / 3]), requires_grad=True)
        p.grad = np.array([0.1])
        AdamW([ParamGroup("w", [p])], lr=0.01).step()
        want = 1 / 3 * (1 - 0.01 * 0.01) - 0.01 * 0.1 / (0.1 + 1e-8)
        assert p.data.dtype == np.float64
        assert p.data[0] == pytest.approx(want, rel=1e-15)
        assert p.data[0] != np.float32(p.data[0])

    def test_group_helpers(self):
        g = ParamGroup("w", [param(np.ones((2, 3))), param([-2.0])])
        assert sum(t.size for t in g.tensors) == 7


def dense_adamw(theta, grads, lrs):
    """The dense update every row took before AdamW skipped idle rows:
    float64 arithmetic from the float32 parameter and gradient, stored as
    float32 after each step."""
    m = np.zeros(theta.shape)
    v = np.zeros(theta.shape)
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        g = g.astype(np.float64)
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        new = theta.astype(np.float64) * (1.0 - lr * 0.01)
        new = new - lr * (m / (1.0 - 0.9**t)) / (
            np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        theta = new.astype(np.float32)
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
        thetas = [rng.normal(size=s).astype(np.float32) for s in shapes]
        grads = []
        for step in range(steps):
            table = rng.normal(size=(rows, cols))
            idle = (kinds == 0) | ((kinds == 1) & (once != step)) | (
                (kinds == 2) & (rng.random(rows) < 0.3))
            table[idle] = idle_zero
            vector = rng.normal(size=cols) * (rng.random(cols) < 0.5)
            scalar = np.asarray(rng.normal() if rng.random() < 0.5 else 0.0)
            grads.append([g.astype(np.float32)
                          for g in (table, vector, scalar)])
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

    def test_bit_identical_when_lower_rows_are_touched_later(self):
        """Rows first touched after rows of higher index get zero moments
        inserted mid-array, and the table still ends where the dense update
        puts it."""
        rng = np.random.default_rng(3)
        theta = rng.normal(size=(6, 3)).astype(np.float32)
        touched_at = [(4, 5), (1,), (), (0, 3, 4), (2,)]
        grads = []
        for rows in touched_at:
            g = np.zeros((6, 3), np.float32)
            g[list(rows)] = rng.normal(size=(len(rows), 3))
            grads.append(g)
        lrs = [linear_lr(0.05, step, len(grads)) for step in range(len(grads))]
        table = param(theta.copy())
        opt = AdamW([ParamGroup("w", [table])], lr=0.05)
        kept = []
        for g, lr in zip(grads, lrs):
            table.grad = g
            opt.step(lr=lr)
            kept.append(len(opt._slots[id(table)].m))
        assert kept == [2, 3, 3, 5, 6]
        want = dense_adamw(theta, grads, lrs)
        assert table.data.tobytes() == want.tobytes()

    def test_idle_rows_cost_no_table_sized_allocation(self):
        """With 8 of 8192 rows touched, the moments hold those 8 rows, and
        the first two steps together allocate less than one copy of the
        float32 table (dense moments are two float64 copies)."""
        rng = np.random.default_rng(0)
        table = param(rng.normal(size=(8192, 128)).astype(np.float32))
        grad = np.zeros_like(table.data)
        grad[rng.choice(8192, 8, replace=False)] = rng.normal(size=(8, 128))
        table.grad = grad
        opt = AdamW([ParamGroup("tokens", [table])], lr=1e-3)
        tracemalloc.start()
        try:
            opt.step()  # creates the slots
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.data.nbytes
        slot = opt._slots[id(table)]
        assert slot.m.nbytes == slot.v.nbytes == 8 * 128 * 8

    def test_all_rows_step_works_in_two_float64_buffers(self):
        """With every row touched, the moments and the update are written
        in place: a step allocates two float64 buffers of the table's size
        and not one temporary per operation."""
        rng = np.random.default_rng(0)
        table = param(rng.normal(size=(1024, 128)))
        table.grad = rng.normal(size=table.shape).astype(np.float32)
        opt = AdamW([ParamGroup("dense", [table])], lr=1e-3)
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * table.size * 8
