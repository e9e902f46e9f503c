"""Reverse-mode autodiff checked against hand oracles and finite differences.

Oracle policy: every derived value is computed by an independent
reimplementation inside the test (triple loops, classic formulas) before
being compared with the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrain import tensor as T
from doctrain.errors import ContractError, ShapeError
from doctrain.tensor import Tensor, backward, no_grad


def t(value, grad=True):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=grad)


def fd_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


class TestElementwise:
    def test_add_broadcast_grads(self):
        a = t(np.arange(6.0).reshape(2, 3))
        b = t(np.array([10.0, 20.0, 30.0]))
        loss = T.tmean(a + b)
        backward(loss)
        assert np.array_equal(a.grad, np.ones((2, 3)) / 6)
        assert np.array_equal(b.grad, np.full(3, 2.0) / 6)  # summed over rows

    def test_mul_grads(self):
        a = t([2.0, 3.0])
        b = t([5.0, 7.0])
        backward(T.tmean(a * b))
        assert np.array_equal(a.grad, np.array([5.0, 7.0]) / 2)
        assert np.array_equal(b.grad, np.array([2.0, 3.0]) / 2)

    def test_relu_gate(self):
        a = t([-1.0, 0.0, 2.0])
        backward(T.tmean(T.relu(a)))
        assert np.array_equal(a.grad, np.array([0.0, 0.0, 1.0]) / 3)

    def test_gelu_matches_finite_differences(self):
        x = np.linspace(-3, 3, 13)
        a = t(x)
        backward(T.tmean(T.gelu(a)))
        want = fd_grad(lambda v: float(np.mean(
            0.5 * v * (1 + np.tanh(np.sqrt(2 / np.pi)
                                   * (v + 0.044715 * v ** 3))))), x.copy())
        assert rel_err(a.grad, want) < 1e-7


class TestShapes:
    def test_reshape_transpose_roundtrip_grad(self):
        a = t(np.arange(24.0).reshape(2, 3, 4))
        out = T.transpose(T.reshape(a, (6, 4)), (1, 0))
        backward(T.tmean(out * out))
        assert np.allclose(a.grad, 2 * a.data / a.size)

    def test_sum_mean_axes(self):
        a = t(np.arange(6.0).reshape(2, 3))
        backward(T.tmean(T.tmean(a, axis=1)))
        assert np.allclose(a.grad, np.full((2, 3), 1 / 3) / 2)


class TestMatmul:
    def test_forward_against_triple_loop(self, rng):
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        want = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        got = T.matmul(t(a), t(b)).data
        assert np.allclose(got, want, atol=1e-12)

    def test_grads_match_finite_differences(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))
        ta, tb = t(a.copy()), t(b.copy())
        backward(T.tmean(T.matmul(ta, tb) * Tensor(w)))
        ga = fd_grad(lambda v: float(np.mean((v @ b) * w)), a.copy())
        gb = fd_grad(lambda v: float(np.mean((a @ v) * w)), b.copy())
        assert rel_err(ta.grad, ga) < 1e-6
        assert rel_err(tb.grad, gb) < 1e-6

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(5, 7)) * 10
        y = T.softmax(t(x)).data
        assert np.allclose(y.sum(axis=1), 1.0)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(4, 6))
        assert np.allclose(T.softmax(t(x)).data,
                           T.softmax(t(x + 123.0)).data)

    def test_cross_entropy_uniform_is_log_c(self):
        for c in (2, 5, 9):
            loss = T.cross_entropy_rows(t(np.zeros((1, c))), [0])
            assert abs(loss.item() - np.log(c)) < 1e-12

    def test_cross_entropy_grad_is_softmax_minus_onehot(self, rng):
        x = rng.normal(size=6)
        a = t(x.copy()[None, :])
        backward(T.cross_entropy_rows(a, [4]))
        p = np.exp(x - x.max())
        p /= p.sum()
        p[4] -= 1.0
        assert np.allclose(a.grad, p[None, :], atol=1e-12)

    def test_cross_entropy_rows_reductions(self, rng):
        x = rng.normal(size=(3, 5))
        targets = np.array([0, 2, 4])
        # oracle: log-sum-exp of each row minus its target logit
        per = [np.log(np.exp(x[i]).sum()) - x[i, targets[i]] for i in range(3)]
        got_mean = T.cross_entropy_rows(t(x), targets).item()
        got_sum = T.cross_entropy_rows(t(x), targets, reduction="sum").item()
        assert abs(got_mean - np.mean(per)) < 1e-12
        assert abs(got_sum - np.sum(per)) < 1e-12

    def test_cross_entropy_bad_target(self):
        with pytest.raises(IndexError):
            T.cross_entropy_rows(t(np.zeros((1, 3))), [3])

    def test_layer_norm_forward_oracle(self, rng):
        x = rng.normal(size=(4, 8)) * 3 + 1
        gain = rng.normal(size=8)
        bias = rng.normal(size=8)
        got = T.layer_norm(t(x), t(gain), t(bias)).data
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        want = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
        assert np.allclose(got, want, atol=1e-12)

    def test_layer_norm_grads_match_finite_differences(self, rng):
        x = rng.normal(size=(3, 6))
        gain = rng.normal(size=6)
        bias = rng.normal(size=6)
        w = rng.normal(size=(3, 6))

        def fwd(xv, gv, bv):
            mu = xv.mean(axis=-1, keepdims=True)
            var = xv.var(axis=-1, keepdims=True)
            return float(np.mean(((xv - mu) / np.sqrt(var + 1e-5) * gv + bv) * w))

        tx, tg, tb = t(x.copy()), t(gain.copy()), t(bias.copy())
        backward(T.tmean(T.layer_norm(tx, tg, tb) * Tensor(w)))
        assert rel_err(tx.grad, fd_grad(lambda v: fwd(v, gain, bias), x.copy())) < 1e-6
        assert rel_err(tg.grad, fd_grad(lambda v: fwd(x, v, bias), gain.copy())) < 1e-6
        assert rel_err(tb.grad, fd_grad(lambda v: fwd(x, gain, v), bias.copy())) < 1e-6

    def test_euclidean_distance_value_and_grad(self):
        a = t([1.0, 2.0, 2.0])
        b = t([0.0, 0.0, 0.0])
        d = T.euclidean_distance(a, b)
        assert abs(d.item() - 3.0) < 1e-12
        backward(d)
        assert np.allclose(a.grad, np.array([1, 2, 2]) / 3.0)

    def test_euclidean_distance_guard_at_coincident_points(self):
        a = t([1.0, 1.0])
        b = t([1.0, 1.0])
        d = T.euclidean_distance(a, b)
        backward(d)
        assert np.isfinite(a.grad).all() and np.isfinite(b.grad).all()

    def test_embedding_gather_and_scatter_grad(self):
        table = t(np.arange(12.0).reshape(4, 3))
        out = T.embedding(table, [1, 1, 3])
        backward(T.tmean(out))
        want = np.zeros((4, 3))
        want[1] = 2.0  # repeated id accumulates
        want[3] = 1.0
        assert np.array_equal(table.grad, want / out.size)
        with pytest.raises(IndexError):
            T.embedding(table, [4])


class TestBackwardContract:
    def test_scalar_only(self):
        a = t(np.ones(3))
        with pytest.raises(ContractError):
            backward(a + a)

    def test_repeated_backward_adds_one_unit_per_call(self):
        a = t([3.0])
        loss = T.tmean(a * a)
        backward(loss)
        first = a.grad.copy()
        backward(loss)
        assert np.allclose(a.grad, 2 * first)

    def test_shared_subgraph_counted_once_per_path(self):
        a = t([2.0])
        shared = a * a          # da = 2a = 4
        loss = T.tmean(shared + shared)  # d/da = 8
        backward(loss)
        assert np.allclose(a.grad, [8.0])

    def test_no_grad_disables_taping(self):
        a = t([1.0, 2.0])
        with no_grad():
            out = a * a
        assert out._parents == ()
        with pytest.raises(ContractError):
            backward(T.tmean(out))

    def test_grad_none_until_backward(self):
        a = t([1.0])
        assert a.grad is None

    def test_zero_dim_chain_stays_scalar(self):
        a = t(2.0)
        b = t(3.0)
        d = a * b
        assert d.data.shape == ()
        backward(d)
        assert a.grad.shape == ()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
       st.lists(st.floats(-10, 10), min_size=1, max_size=8))
def test_add_grad_is_ones_regardless_of_values(xs, ys):
    n = min(len(xs), len(ys))
    a = t(np.array(xs[:n]))
    b = t(np.array(ys[:n]))
    backward(T.tmean(a + b))
    assert np.array_equal(a.grad, np.ones(n) / n)
    assert np.array_equal(b.grad, np.ones(n) / n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_softmax_cross_entropy_consistency(seed):
    """CE computed directly equals -log softmax[target] on random logits."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=rng.integers(2, 9)) * rng.uniform(0.1, 5)
    target = int(rng.integers(0, x.size))
    ce = T.cross_entropy_rows(t(x.copy()[None, :]), [target]).item()
    p = T.softmax(t(x.copy()), axis=-1).data
    assert abs(ce + np.log(p[target])) < 1e-9


def test_full_graph_finite_difference_sweep(rng):
    """One composite graph touching most ops, FD-checked end to end."""
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(6, 6))
    gain = np.ones(6)
    bias = np.zeros(6)

    def build(xv):
        h = T.matmul(Tensor(xv), tw)
        h = T.layer_norm(h, tg, tb)
        h = T.gelu(h)
        return T.tmean(h * h)

    tw, tg, tb = t(w.copy()), t(gain.copy()), t(bias.copy())
    loss = build(x)
    backward(loss)

    def scalar(wv):
        h = x @ wv
        mu = h.mean(axis=-1, keepdims=True)
        var = h.var(axis=-1, keepdims=True)
        h = (h - mu) / np.sqrt(var + 1e-5) * gain + bias
        c = np.sqrt(2 / np.pi)
        h = 0.5 * h * (1 + np.tanh(c * (h + 0.044715 * h ** 3)))
        return float(np.mean(h * h))

    assert rel_err(tw.grad, fd_grad(scalar, w.copy())) < 1e-5
