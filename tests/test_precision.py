"""The dtype follows the data: every op keeps float32 inputs in float32 and
float64 inputs in float64, forward and backward, and training a model as
built computes in float32 throughout."""

import numpy as np
import pytest

from doctrain import tensor as T
from doctrain.encoder import TransformerLayer, key_padding_bias
from doctrain.finetune import (FinetuneConfig, TokenClassExample,
                               finetune_token_classification)
from doctrain.model import DocumentModel
from doctrain.taxonomy import Taxonomy, pad_hierarchy
from doctrain.tensor import Tensor, backward
from doctrain.trainer import TrainConfig, pretrain

from conftest import separable_corpus, small_config, triplets_for

DTYPES = [np.float32, np.float64]

# op name -> (operand shapes, the op applied to operands of those shapes)
OPS = {
    "add": ([(3, 4), (4,)], T.add),
    "attention": ([(6, 4)] * 3, lambda q, k, v: T.attention(
        q, k, v, 2, 3, 2, key_padding_bias([3, 2]))),
    "sub": ([(3, 4), (3, 4)], T.sub),
    "mul": ([(3, 4), (3, 1)], T.mul),
    "relu": ([(3, 4)], T.relu),
    "gelu": ([(3, 4)], T.gelu),
    "reshape": ([(3, 4)], lambda a: T.reshape(a, (4, 3))),
    "tmean": ([(3, 4)], T.tmean),
    "matmul": ([(3, 4), (4, 2)], T.matmul),
    "batched matmul": ([(2, 3, 4), (2, 4, 2)], T.matmul),
    "embedding": ([(5, 4)], lambda a: T.embedding(a, [1, 1, 4])),
    "add_layer_norm": ([(3, 4), (3, 4), (4,), (4,)], T.add_layer_norm),
    "linear": ([(3, 4), (4, 2), (2,)], T.linear),
    "euclidean_distance": ([(3, 4), (3, 4)], T.euclidean_distance),
    "tensor + float": ([(3, 4)], lambda a: a + 1.5),
    "float + tensor": ([(3, 4)], lambda a: 1.5 + a),
    "tensor - float": ([(3, 4)], lambda a: a - 1.5),
    "tensor * float": ([(3, 4)], lambda a: a * 0.5),
    "float * tensor": ([(3, 4)], lambda a: 0.5 * a),
    "tensor + float64 array": ([(3, 4)], lambda a: a + np.full(4, 0.25)),
    "tensor * int": ([(3, 4)], lambda a: T.mul(a, 3)),
}


def operands(dtype, shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
            for s in shapes]


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("name", sorted(OPS))
def test_op_keeps_its_operands_dtype(name, dtype):
    shapes, op = OPS[name]
    args = operands(dtype, shapes)
    out = op(*args)
    loss = T.tmean(out * out)
    backward(loss)
    assert out.data.dtype == dtype
    assert loss.data.dtype == dtype
    for a in args:
        assert a.grad.dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_cross_entropy_loss_is_float64_and_its_gradient_follows(dtype,
                                                                weighted):
    """The log-sum-exp runs in float64 so uniform logits give exactly
    ln(C); the gradient lands in the logits' dtype."""
    (logits,) = operands(dtype, [(3, 5)])
    weights = [0.5, 0.25, 0.25] if weighted else None
    loss = T.cross_entropy_rows(logits, [0, 4, 2], "sum", weights)
    backward(loss)
    assert loss.data.dtype == np.float64
    assert logits.grad.dtype == dtype
    uniform = T.cross_entropy_rows(Tensor(np.zeros((2, 7), dtype)), [0, 6])
    assert uniform.item() == np.log(7.0)


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_transformer_layer_with_key_bias_keeps_the_dtype(dtype):
    layer = TransformerLayer(8, 2, 12, np.random.default_rng(0), True)
    params = list(layer.named_params().values())
    for t in params:
        t.data = t.data.astype(dtype)
    (x,) = operands(dtype, [(2, 3, 8)])
    out = layer.forward(x, key_padding_bias([3, 1]))
    backward(T.tmean(out * out))
    assert out.data.dtype == dtype
    for t in [x] + params:
        assert t.grad.dtype == dtype


@pytest.fixture
def recorded(monkeypatch):
    """Every array an op makes and every gradient it stages, as
    (dtype, ndim, owner dtype) with owner None for op outputs."""
    seen = []
    make, accum = T._make, T._accum

    def spy_make(out_data, parents, backward_fn):
        out = make(out_data, parents, backward_fn)
        seen.append((out.data.dtype, out.data.ndim, None))
        return out

    def spy_accum(t, g, **kw):
        accum(t, g, **kw)
        staged = T._WALK[0].get(id(t))
        if staged is not None:
            seen.append((staged.dtype, staged.ndim, t.data.dtype))

    monkeypatch.setattr(T, "_make", spy_make)
    monkeypatch.setattr(T, "_accum", spy_accum)
    return seen


def assert_float32_training(seen, model):
    """Only float32 arrays, except 0-d float64 loss values downstream of
    cross_entropy_rows; each gradient in its tensor's dtype."""
    assert any(owner is not None for _, _, owner in seen)  # backward ran
    wide = [(dtype, ndim) for dtype, ndim, _ in seen if dtype != np.float32]
    assert all(dtype == np.float64 and ndim == 0 for dtype, ndim in wide)
    assert all(dtype == owner for dtype, _, owner in seen if owner is not None)
    params = {**model.lower.named_params(), **model.named_params()}
    assert {t.data.dtype for t in params.values()} == {np.dtype(np.float32)}


def test_one_pretrain_step_computes_in_float32(recorded):
    corpus = separable_corpus(per_category=3)
    tax = Taxonomy.from_paths([("astro",), ("law",)])
    labels = {d.id: pad_hierarchy(d.hierarchy_path, tax) for d in corpus}
    model = DocumentModel(small_config(level_sizes=tax.level_sizes))
    triplets = triplets_for(corpus, 4)
    result = pretrain(model, corpus, triplets, labels,
                      TrainConfig(batch_size=4, initial_lr=1e-3, seed=0))
    assert result.total_steps == 1
    assert_float32_training(recorded, model)


def test_one_finetune_step_computes_in_float32(recorded):
    model = DocumentModel(small_config())
    examples = [TokenClassExample(("one", "alpha", "two"), (1, 0, 1)),
                TokenClassExample(("beta",), (0,))]
    task, result = finetune_token_classification(
        model, examples, examples, 2,
        FinetuneConfig(lr=1e-3, epochs=1, batch_size=2))
    assert result.epochs_run == 1
    assert_float32_training(recorded, model)
    assert {t.data.dtype for t in task.head_tensors()} == {
        np.dtype(np.float32)}
