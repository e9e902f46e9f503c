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
from doctrain.encoder import key_padding_bias
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


def norm_oracle(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * gain + bias


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
    def test_reshape_roundtrip_grad(self):
        a = t(np.arange(24.0).reshape(2, 3, 4))
        out = T.reshape(T.reshape(a, (6, 4)), (4, 6))
        backward(T.tmean(out * out))
        assert np.allclose(a.grad, 2 * a.data / a.size)

    def test_sum_mean_axes(self):
        a = t(np.arange(6.0).reshape(2, 3))
        out = T.tmean(a)
        assert out.data == 2.5
        backward(out)
        assert np.array_equal(a.grad, np.full((2, 3), 1 / 6))


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


class TestLinear:
    def test_forward_is_product_plus_bias(self, rng):
        x, w = rng.normal(size=(4, 5)), rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        want = np.array([[sum(x[i, k] * w[k, j] for k in range(5)) + b[j]
                          for j in range(3)] for i in range(4)])
        assert np.allclose(T.linear(t(x), t(w), t(b)).data, want, atol=1e-12)

    def test_grads_match_finite_differences(self, rng):
        x, w, r = rng.normal(size=(3, 4, 4))
        b = rng.normal(size=4)

        def fwd(xv, wv, bv):
            return float(np.mean((xv @ wv + bv) * r))

        tx, tw, tb = t(x.copy()), t(w.copy()), t(b.copy())
        backward(T.tmean(T.linear(tx, tw, tb) * Tensor(r)))
        assert rel_err(tx.grad, fd_grad(lambda v: fwd(v, w, b), x.copy())) < 1e-6
        assert rel_err(tw.grad, fd_grad(lambda v: fwd(x, v, b), w.copy())) < 1e-6
        assert rel_err(tb.grad, fd_grad(lambda v: fwd(x, w, v), b.copy())) < 1e-6

    def test_input_that_is_also_the_weight(self, rng):
        """x·x + b: the input and weight gradients land on one tensor."""
        x, r = rng.normal(size=(2, 4, 4))
        b = rng.normal(size=4)
        tx = t(x.copy())
        backward(T.tmean(T.linear(tx, tx, t(b)) * Tensor(r)))
        want = fd_grad(lambda v: float(np.mean((v @ v + b) * r)), x.copy())
        assert rel_err(tx.grad, want) < 1e-6

    def test_no_grad_items_are_their_own_products(self, rng):
        """Under no_grad each [S, k] item of a batch is one product: it has
        the bits of the item multiplied alone, whatever its batch-mates."""
        x = rng.normal(size=(8, 12, 512)).astype(np.float32)
        w = rng.normal(size=(512, 128)).astype(np.float32)
        b = rng.normal(size=128).astype(np.float32)
        with no_grad():
            out = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.shape == (8, 12, 128) and out.dtype == np.float32
        for i in range(8):
            assert np.array_equal(out[i], x[i] @ w + b)

    def test_grad_mode_multiplies_the_flat_rows(self, rng):
        """With grad enabled the B·S rows are one product, even when no
        operand requires grad (a LoRA run's frozen base projections)."""
        x = rng.normal(size=(8, 12, 512)).astype(np.float32)
        w = rng.normal(size=(512, 128)).astype(np.float32)
        b = rng.normal(size=128).astype(np.float32)
        out = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        flat = x.reshape(96, 512) @ w + b
        assert np.array_equal(out, flat.reshape(8, 12, 128))

    def test_batched_grads_match_finite_differences(self, rng):
        x, r = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 5))
        w, b = rng.normal(size=(4, 5)), rng.normal(size=5)

        def fwd(xv, wv, bv):
            return float(np.mean((xv @ wv + bv) * r))

        tx, tw, tb = t(x.copy()), t(w.copy()), t(b.copy())
        out = T.linear(tx, tw, tb)
        assert out.shape == (2, 3, 5)
        backward(T.tmean(out * Tensor(r)))
        assert tx.grad.shape == x.shape
        assert rel_err(tx.grad, fd_grad(lambda v: fwd(v, w, b), x.copy())) < 1e-6
        assert rel_err(tw.grad, fd_grad(lambda v: fwd(x, v, b), w.copy())) < 1e-6
        assert rel_err(tb.grad, fd_grad(lambda v: fwd(x, w, v), b.copy())) < 1e-6

    def test_no_bias_is_the_bare_product(self):
        """Without a bias a product's -0.0 stays -0.0 (these products
        underflow); adding a zero bias would turn it into +0.0."""
        x = np.full((4, 8), -1e-30, np.float32)
        w = np.full((8, 3), 1e-30, np.float32)
        bare = x @ w
        assert np.signbit(bare).all() and not np.signbit(bare + 0.0).any()
        out = T.linear(Tensor(x), Tensor(w)).data
        assert np.array_equal(np.signbit(out), np.signbit(bare))
        tx, tw = t(x), t(w)
        backward(T.tmean(T.linear(tx, tw)))
        assert np.allclose(tw.grad, -4e-30 / 12, rtol=1e-6, atol=0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) @ \(4, 2\)"):
            T.linear(t(np.ones((2, 3))), t(np.ones((4, 2))), t(np.zeros(2)))
        with pytest.raises(ShapeError, match="bias shape"):
            T.linear(t(np.ones((2, 3))), t(np.ones((3, 2))), t(np.zeros(3)))


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        """Attention weights sum to one per query, so keys that all carry
        the same value row return exactly that row."""
        q, k = rng.normal(size=(2, 10, 6)) * 10
        v = np.tile(rng.normal(size=6), (10, 1))
        out = T.attention(t(q), t(k), t(v), 2, 5, 3).data
        assert np.allclose(out, v, rtol=0, atol=1e-12)

    def test_softmax_shift_invariance(self, rng):
        """Adding one constant to every key's score bias moves nothing."""
        q, k, v = rng.normal(size=(3, 8, 6))
        bias = key_padding_bias([4, 3])
        out = T.attention(t(q), t(k), t(v), 2, 4, 2, bias).data
        shifted = T.attention(t(q), t(k), t(v), 2, 4, 2, bias + 123.0).data
        assert np.allclose(out, shifted, rtol=0, atol=1e-12)

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
        y = rng.normal(size=(4, 8))
        gain = rng.normal(size=8)
        bias = rng.normal(size=8)
        got = T.add_layer_norm(t(x), t(y), t(gain), t(bias)).data
        assert np.allclose(got, norm_oracle(x + y, gain, bias), atol=1e-12)

    def test_layer_norm_grads_match_finite_differences(self, rng):
        x, y, w = rng.normal(size=(3, 3, 6))
        gain = rng.normal(size=6)
        bias = rng.normal(size=6)

        def fwd(xv, yv, gv, bv):
            return float(np.mean(norm_oracle(xv + yv, gv, bv) * w))

        tx, ty, tg, tb = t(x.copy()), t(y.copy()), t(gain.copy()), t(bias.copy())
        backward(T.tmean(T.add_layer_norm(tx, ty, tg, tb) * Tensor(w)))
        assert rel_err(tx.grad, fd_grad(lambda v: fwd(v, y, gain, bias), x.copy())) < 1e-6
        assert rel_err(ty.grad, fd_grad(lambda v: fwd(x, v, gain, bias), y.copy())) < 1e-6
        assert rel_err(tg.grad, fd_grad(lambda v: fwd(x, y, v, bias), gain.copy())) < 1e-6
        assert rel_err(tb.grad, fd_grad(lambda v: fwd(x, y, gain, v), bias.copy())) < 1e-6

    def test_layer_norm_of_a_tensor_plus_itself(self, rng):
        """x + x: both summands stage into one gradient, which must double
        rather than alias."""
        x, w = rng.normal(size=(2, 3, 5))
        gain, bias = rng.normal(size=(2, 5))
        tx = t(x.copy())
        backward(T.tmean(T.add_layer_norm(tx, tx, t(gain), t(bias)) * Tensor(w)))
        want = fd_grad(lambda v: float(np.mean(norm_oracle(v + v, gain, bias) * w)),
                       x.copy())
        assert rel_err(tx.grad, want) < 1e-6

    def test_layer_norm_summand_that_feeds_another_op(self, rng):
        """x reaches the loss through the norm and through a product: the
        gradient x adopts from the norm takes the second path's share without
        changing what the norm staged for y."""
        x, y, w = rng.normal(size=(3, 3, 5))
        gain, bias = rng.normal(size=(2, 5))
        m = rng.normal(size=(5, 5))

        def fwd(xv, yv):
            return float(np.mean(norm_oracle(xv + yv, gain, bias) * w)
                         + np.mean((xv @ m) * w))

        tx, ty = t(x.copy()), t(y.copy())
        loss = (T.tmean(T.add_layer_norm(tx, ty, t(gain), t(bias)) * Tensor(w))
                + T.tmean(T.matmul(tx, t(m, grad=False)) * Tensor(w)))
        backward(loss)
        assert rel_err(tx.grad, fd_grad(lambda v: fwd(v, y), x.copy())) < 1e-6
        assert rel_err(ty.grad, fd_grad(lambda v: fwd(x, v), y.copy())) < 1e-6

    def test_layer_norm_shape_errors(self):
        x = t(np.zeros((2, 4)))
        with pytest.raises(ShapeError, match="operands differ"):
            T.add_layer_norm(x, t(np.zeros((2, 3))), t(np.ones(4)), t(np.zeros(4)))
        with pytest.raises(ShapeError, match="affine shapes"):
            T.add_layer_norm(x, x, t(np.ones(3)), t(np.zeros(4)))

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

    def test_embedding_grads_add_to_a_staged_grad(self):
        """The first gather's scatter buffer is staged as is; a second
        gather and a matmul read of the same table add into it."""
        table = t(np.arange(12.0).reshape(4, 3))
        loss = (T.tmean(T.embedding(table, [0, 2]))
                + T.tmean(T.embedding(table, [2, 3]))
                + T.tmean(T.matmul(table, t(np.ones((3, 1)), grad=False))))
        backward(loss)
        want = np.full((4, 3), 1 / 4)
        want[[0, 3]] += 1 / 6
        want[2] += 2 / 6
        assert np.allclose(table.grad, want, rtol=0, atol=1e-15)


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


def attention_oracle(q, k, v, b, s, heads, bias):
    """Per-sequence, per-head scaled dot-product attention in plain loops."""
    out = np.zeros_like(q)
    d = q.shape[1]
    dh = d // heads
    for i in range(b):
        rows = slice(i * s, (i + 1) * s)
        for j in range(heads):
            cols = slice(j * dh, (j + 1) * dh)
            scores = q[rows, cols] @ k[rows, cols].T / np.sqrt(dh) + bias[i]
            w = np.exp(scores - scores.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            out[rows, cols] = w @ v[rows, cols]
    return out


class TestAttention:
    @pytest.mark.parametrize("lengths", [None, [3, 1]],
                             ids=["no key_bias", "key_bias"])
    def test_grads_match_finite_differences(self, rng, lengths):
        b, s, heads, d = 2, 3, 2, 4
        bias = None if lengths is None else key_padding_bias(lengths)
        ref_bias = np.zeros((b, s)) if bias is None else bias
        q, k, v = rng.normal(size=(3, b * s, d))
        w = rng.normal(size=(b * s, d))
        tq, tk, tv = t(q.copy()), t(k.copy()), t(v.copy())
        out = T.attention(tq, tk, tv, b, s, heads, bias)
        assert np.allclose(out.data, attention_oracle(q, k, v, b, s, heads,
                                                      ref_bias), atol=1e-12)
        backward(T.tmean(out * Tensor(w)))

        def loss(qv, kv, vv):
            return float(np.mean(attention_oracle(qv, kv, vv, b, s, heads,
                                                  ref_bias) * w))

        assert rel_err(tq.grad, fd_grad(lambda x: loss(x, k, v), q.copy())) < 1e-6
        assert rel_err(tk.grad, fd_grad(lambda x: loss(q, x, v), k.copy())) < 1e-6
        assert rel_err(tv.grad, fd_grad(lambda x: loss(q, k, x), v.copy())) < 1e-6

    def test_zero_queries_average_the_valid_values(self, rng):
        lengths = [4, 2, 1]
        v = rng.normal(size=(12, 6))
        k = rng.normal(size=(12, 6))
        out = T.attention(t(np.zeros((12, 6))), t(k), t(v), 3, 4, 3,
                          key_padding_bias(lengths)).data
        for i, n in enumerate(lengths):
            mean = v[4 * i:4 * i + n].mean(axis=0)
            assert np.allclose(out[4 * i:4 * i + 4], mean, rtol=0, atol=1e-12)

    def test_padded_value_rows_change_nothing(self, rng):
        lengths = [3, 1]
        q, k, v = rng.normal(size=(3, 6, 4))
        bias = key_padding_bias(lengths)
        out = T.attention(t(q), t(k), t(v), 2, 3, 2, bias).data
        edited = v.copy()
        edited[4:] = rng.normal(size=(2, 4)) * 100  # sequence 1's padding
        again = T.attention(t(q), t(k), t(edited), 2, 3, 2, bias).data
        assert np.array_equal(out, again)

    def test_batched_items_keep_their_shape(self, rng):
        """[b, s, d] operands give the bits of the same [b·s, d] rows, in
        the query's shape, and so do their gradients."""
        q, k, v = rng.normal(size=(3, 2, 3, 4)).astype(np.float32)
        w = rng.normal(size=(2, 3, 4)).astype(np.float32)
        bias = key_padding_bias([3, 2])
        grads = []
        for shape in ((2, 3, 4), (6, 4)):
            ops = [Tensor(a.reshape(shape), requires_grad=True)
                   for a in (q, k, v)]
            out = T.attention(*ops, 2, 3, 2, bias)
            assert out.shape == shape
            backward(T.tmean(out * Tensor(w.reshape(shape))))
            grads.append([out.data.reshape(2, 3, 4),
                          *(o.grad.reshape(2, 3, 4) for o in ops)])
        for a, b in zip(*grads):
            assert np.array_equal(a, b)

    def test_key_bias_shape_error(self):
        x = t(np.zeros((6, 4)))
        with pytest.raises(ShapeError, match=r"key_bias shape \(3, 2\), "
                                             r"expected \(2, 3\)"):
            T.attention(x, x, x, 2, 3, 2, np.zeros((3, 2)))


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
    p = np.exp(x - x.max())
    p /= p.sum()
    assert abs(ce + np.log(p[target])) < 1e-9


def test_full_graph_finite_difference_sweep(rng):
    """One composite graph touching most ops, FD-checked end to end."""
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(6, 6))
    gain = np.ones(6)
    bias = np.zeros(6)

    def build(xv):
        h = T.matmul(Tensor(xv), tw)
        h = T.add_layer_norm(h, Tensor(xv), tg, tb)
        h = T.gelu(h)
        return T.tmean(h * h)

    tw, tg, tb = t(w.copy()), t(gain.copy()), t(bias.copy())
    loss = build(x)
    backward(loss)

    def scalar(wv):
        h = norm_oracle(x @ wv + x, gain, bias)
        c = np.sqrt(2 / np.pi)
        h = 0.5 * h * (1 + np.tanh(c * (h + 0.044715 * h ** 3)))
        return float(np.mean(h * h))

    assert rel_err(tw.grad, fd_grad(scalar, w.copy())) < 1e-5
