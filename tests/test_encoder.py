"""Encoder stack tests.

The transformer layer is checked against an independent numpy forward pass
written from the architecture description (post-norm, tanh GELU, scaled dot
product attention), not by calling back into the library.
"""

import os
import subprocess
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from doctrain import encoder
from doctrain import tensor as T
from doctrain.encoder import (
    BATCH_ROWS,
    LORA_TARGETS,
    POOL_MIN_WIDTH,
    ClassificationHeads,
    EmbeddingTable,
    LoraAdapter,
    LowerEncoder,
    ModelConfig,
    TransformerLayer,
    UpperEncoder,
    equal_length_chunks,
    key_padding_bias,
    map_equal_length,
    token_table,
)
from doctrain.analysis import representation_correlation
from doctrain.errors import ConfigError, LengthError, ShapeError, VocabularyError
from doctrain.finetune import (FinetuneConfig, TokenClassExample,
                               TokenTaggerModel, finetune_token_classification)
from doctrain.model import DocumentModel
from doctrain.seeding import make_rng
from doctrain.tensor import Tensor
from doctrain.text import subword_ids

from conftest import small_config


def reference_layer_forward(x, p, num_heads):
    """Forward pass reimplemented with plain numpy from scratch."""
    s, d = x.shape
    dh = d // num_heads

    def proj(v, w, b):
        return v @ p[w] + p[b]

    def split(v):
        return v.reshape(s, num_heads, dh).transpose(1, 0, 2)

    def softmax_rows(v):
        e = np.exp(v - v.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def norm(v, gain, bias):
        mu = v.mean(axis=-1, keepdims=True)
        var = v.var(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-5) * p[gain] + p[bias]

    def gelu(v):
        c = np.sqrt(2 / np.pi)
        return 0.5 * v * (1 + np.tanh(c * (v + 0.044715 * v**3)))

    q, k, v = (split(proj(x, f"w{n}", f"b{n}")) for n in "qkv")
    attn = softmax_rows(q @ k.transpose(0, 2, 1) * dh**-0.5)
    ctx = (attn @ v).transpose(1, 0, 2).reshape(s, d)
    x = norm(x + ctx @ p["wo"] + p["bo"], "g1", "nb1")
    hidden = gelu(x @ p["w1"] + p["fb1"])
    return norm(x + hidden @ p["w2"] + p["fb2"], "g2", "nb2")


def randomize_layer(layer: TransformerLayer, rng) -> dict:
    """Overwrite every parameter (norms included) and return a numpy copy."""
    names = {
        "wq": layer.wq, "bq": layer.bq, "wk": layer.wk, "bk": layer.bk,
        "wv": layer.wv, "bv": layer.bv, "wo": layer.wo, "bo": layer.bo,
        "g1": layer.norm1_g, "nb1": layer.norm1_b,
        "w1": layer.w1, "fb1": layer.b1, "w2": layer.w2, "fb2": layer.b2,
        "g2": layer.norm2_g, "nb2": layer.norm2_b,
    }
    out = {}
    for key, tensor in names.items():
        tensor.data = rng.normal(0.0, 0.5, tensor.shape)
        out[key] = tensor.data.copy()
    return out


def taped_nodes(out: Tensor) -> list[Tensor]:
    """Every recorded operation reachable from `out`."""
    seen, stack, nodes = {id(out)}, [out], []
    while stack:
        node = stack.pop()
        if node._backward is not None:
            nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def taped_ops(out: Tensor) -> list[str]:
    return [n._backward.__qualname__.split(".")[0] for n in taped_nodes(out)]


class TestTransformerLayer:
    def test_forward_matches_numpy_reference(self, rng):
        layer = TransformerLayer(16, 4, 24, np.random.default_rng(0), True)
        params = randomize_layer(layer, rng)
        x = rng.normal(size=(5, 16))
        got = layer.forward(Tensor(x)).data
        want = reference_layer_forward(x, params, num_heads=4)
        assert np.allclose(got, want, atol=1e-10)

    def test_single_head_matches_reference_too(self, rng):
        layer = TransformerLayer(8, 1, 12, np.random.default_rng(1), True)
        params = randomize_layer(layer, rng)
        x = rng.normal(size=(3, 8))
        want = reference_layer_forward(x, params, num_heads=1)
        assert np.allclose(layer.forward(Tensor(x)).data, want, atol=1e-10)

    def test_identical_rows_stay_identical(self, rng):
        """Attention over equal rows is uniform, so outputs stay equal."""
        layer = TransformerLayer(16, 2, 24, np.random.default_rng(3), True)
        row = rng.normal(size=16)
        out = layer.forward(Tensor(np.tile(row, (4, 1)))).data
        assert np.allclose(out, out[0])

    def test_width_mismatch_raises(self):
        layer = TransformerLayer(16, 4, 24, np.random.default_rng(4), True)
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.zeros((3, 8))))

    def test_batch_rows_match_each_sequence_alone(self, rng):
        layer = TransformerLayer(16, 4, 24, np.random.default_rng(6), True)
        randomize_layer(layer, rng)
        lengths = [4, 1, 3]
        x = rng.normal(size=(3, 4, 16))
        out = layer.forward(Tensor(x), key_padding_bias(lengths)).data
        for i, n in enumerate(lengths):
            alone = layer.forward(Tensor(x[i, :n])).data
            assert np.allclose(out[i, :n], alone, rtol=0, atol=1e-12)

    def test_padded_batch_gradients_match_finite_differences(self, rng):
        """Central differences through a masked ragged batch; padded input
        rows feed no valid output, so their gradient is exactly zero."""
        layer = TransformerLayer(8, 2, 12, np.random.default_rng(7), True)
        randomize_layer(layer, rng)
        lengths = [3, 1, 2]
        bias = key_padding_bias(lengths)
        valid = (np.arange(3) < np.array(lengths)[:, None])[..., None]
        probe = rng.normal(size=(3, 3, 8)) * valid
        x = Tensor(rng.normal(size=(3, 3, 8)), requires_grad=True)

        def loss():
            return T.tmean(layer.forward(x, bias) * probe)

        T.backward(loss())
        assert np.all(x.grad[~valid[..., 0]] == 0.0)
        h = 1e-6
        for tensor in (x, layer.wq, layer.wk, layer.w1, layer.norm1_g):
            flat, grad = tensor.data.reshape(-1), tensor.grad.reshape(-1)
            for k in rng.choice(flat.size, size=min(12, flat.size),
                                replace=False):
                orig = flat[k]
                flat[k] = orig + h
                up = loss().item()
                flat[k] = orig - h
                down = loss().item()
                flat[k] = orig
                fd = (up - down) / (2 * h)
                assert abs(grad[k] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_training_forward_records_one_attention_node(self, rng):
        """Attention is one tape node, and no node keeps a 4-D array. A
        layer tapes 10 nodes: six linear maps, attention, two residual norms
        and the GELU, for rows and batched items alike."""
        layer = TransformerLayer(8, 2, 12, np.random.default_rng(8), True)
        per_layer = {"linear": 6, "attention": 1, "add_layer_norm": 2,
                     "gelu": 1}
        out = layer.forward(Tensor(rng.normal(size=(4, 8))))
        assert Counter(taped_ops(out)) == per_layer
        out = layer.forward(Tensor(rng.normal(size=(3, 4, 8))),
                            key_padding_bias([4, 2, 1]))
        assert Counter(taped_ops(out)) == per_layer
        assert all(n.ndim <= 3 for n in taped_nodes(out))

    def test_backward_sets_grad_on_leaves_only(self, rng):
        """Op outputs keep no gradient after the walk; the input and every
        parameter, the leaves that require grad, each get one."""
        layer = TransformerLayer(8, 2, 12, np.random.default_rng(3), True)
        x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        out = layer.forward(x, key_padding_bias([3, 2]))
        loss = T.tmean(out * out)
        T.backward(loss)
        inner = taped_nodes(loss)  # the layer's 10, mul, tmean
        assert len(inner) == 12 and all(n.grad is None for n in inner)
        for name, tensor in {"x": x, **layer.named_params()}.items():
            assert tensor.grad is not None and tensor.grad.shape == tensor.shape, name

    def test_gradients_reach_every_parameter(self, rng):
        layer = TransformerLayer(8, 2, 12, np.random.default_rng(5), True)
        out = layer.forward(Tensor(rng.normal(size=(4, 8))))
        T.backward(T.tmean(out * out))
        for name, tensor in layer.named_params().items():
            assert tensor.grad is not None, name
            assert np.isfinite(tensor.grad).all(), name


class TestUpperEncoder:
    def test_zero_layers_is_identity(self, rng):
        enc = UpperEncoder(small_config(num_layers=0), np.random.default_rng(0))
        x = rng.normal(size=(3, 16))
        assert np.array_equal(enc.forward(Tensor(x)).data, x)

    def test_stacking_composes_layers(self, rng):
        enc = UpperEncoder(small_config(num_layers=2), np.random.default_rng(0))
        x = Tensor(rng.normal(size=(3, 16)))
        manual = enc.layers[1].forward(enc.layers[0].forward(x))
        assert np.allclose(enc.forward(x).data, manual.data)

    def test_named_params_prefixed_and_trainable(self):
        enc = UpperEncoder(small_config(num_layers=2), np.random.default_rng(0))
        names = enc.named_params()
        assert len(names) == 2 * 16
        assert all(n.startswith("upper.") for n in names)
        assert all(t.requires_grad for t in names.values())

    def test_same_rng_stream_reproduces_weights(self):
        cfg = small_config()
        a = UpperEncoder(cfg, np.random.default_rng(42))
        b = UpperEncoder(cfg, np.random.default_rng(42))
        assert np.array_equal(a.layers[0].wq.data, b.layers[0].wq.data)


class TestLowerEncoder:
    def test_token_rows_share_lineage_with_embedding_table(self):
        cfg = small_config()
        lower = LowerEncoder(cfg)
        table = EmbeddingTable(cfg, token_table(cfg))
        assert np.array_equal(lower.token.data, table.token.data)
        assert not lower.token.requires_grad
        assert table.token.requires_grad

    def test_everything_is_frozen(self):
        lower = LowerEncoder(small_config())
        assert all(not t.requires_grad for t in lower.named_params().values())

    def test_embed_is_deterministic_and_cached(self):
        lower = LowerEncoder(small_config())
        v1 = lower.embed("The pump failed again.")
        v2 = lower.embed("The pump failed again.")
        assert v1 is v2  # cache hit
        fresh = LowerEncoder(small_config()).embed("The pump failed again.")
        assert np.array_equal(v1, fresh)

    def test_embed_distinguishes_sentences(self):
        lower = LowerEncoder(small_config())
        a = lower.embed("the pump failed")
        b = lower.embed("the warranty expired")
        assert not np.allclose(a, b)

    def test_degenerate_sentence_still_embeds(self):
        vec = LowerEncoder(small_config()).embed("   ")
        assert vec.shape == (16,) and np.isfinite(vec).all()

    def test_featurize_matches_one_sentence_at_a_time(self, two_cpus):
        """Batched featurizing on the pool gives every sentence the bits a
        featurizer gives it alone, under the same cache keys: mixed piece
        counts, a repeat, the degenerate sentence, and more equal-length
        sentences than one chunk holds."""
        cfg = wide_config()
        same = [f"s{i:03d} pump fail" for i in range(40)]
        lengths = {len(subword_ids(s, cfg.vocab_size)) for s in same}
        assert len(lengths) == 1 and len(same) > BATCH_ROWS // lengths.pop()
        sentences = [*same, "the pump failed again today", "   ", same[3],
                     "alpha beta"]
        batched, alone = LowerEncoder(cfg), LowerEncoder(cfg)
        batched.featurize(sentences)
        assert encoder._POOL is not None
        assert len(batched._cache) == len(sentences) - 1
        for s in sentences:
            assert np.array_equal(batched.embed(s), alone.embed(s)), s
        assert batched._cache.keys() == alone._cache.keys()

    def test_piece_cap_is_one_line_per_call(self, caplog):
        long = " ".join(f"w{i:04d}" for i in range(200))  # 1,200 pieces
        lower = LowerEncoder(small_config())
        with caplog.at_level("WARNING", logger="doctrain.encoder"):
            lower.featurize([long, long + " more", "a short one", long])
        assert [r.message for r in caplog.records] == [
            "truncated 2 of 3 sentences to 1024 pieces"]
        assert lower.embed(long).shape == (16,)

    def test_featurize_keeps_cached_vectors(self):
        lower = LowerEncoder(small_config())
        first = lower.embed("the pump failed")
        lower.featurize(["the pump failed", "the warranty expired"])
        assert lower.embed("the pump failed") is first

    def test_state_bytes_tracks_mutation(self):
        cfg = small_config()
        a, b = LowerEncoder(cfg), LowerEncoder(cfg)
        assert a.state_bytes() == b.state_bytes()
        b.token.data[0, 0] += 1.0
        assert a.state_bytes() != b.state_bytes()

    def test_different_seed_different_features(self):
        a = LowerEncoder(small_config(seed=1)).embed("same sentence")
        b = LowerEncoder(small_config(seed=2)).embed("same sentence")
        assert not np.array_equal(a, b)


@pytest.fixture
def two_cpus(monkeypatch):
    """No featurizer pool yet, and two CPUs whatever the machine has, so the
    pool's helper threads run on a one-CPU machine too; a pool the test
    starts is shut down after it."""
    monkeypatch.setattr(encoder, "_cpus", lambda: 2)
    monkeypatch.setattr(encoder, "_POOL", None)
    yield
    if encoder._POOL is not None:
        encoder._POOL.shutdown()


def wide_config():
    """The narrowest featurizer that runs its chunks on the pool."""
    return small_config(d_model=POOL_MIN_WIDTH)


class TestFeaturizerPool:
    # "a" has 2 pieces and "a b c" 6, so these are two chunks
    TWO_CHUNKS = ["a", "a b c"]

    def test_chunks_run_on_helpers_under_the_callers_grad_mode(self,
                                                               two_cpus):
        lower = LowerEncoder(wide_config())
        body = lower._mean_pooled
        seen = []
        lower._mean_pooled = lambda pieces: (seen.append(
            (threading.current_thread().name, T._GRAD_ENABLED[0])),
            body(pieces))[1]
        lower.featurize(self.TWO_CHUNKS)
        assert T._GRAD_ENABLED[0] is True
        with T.no_grad():
            lower.featurize(["x", "x y z"])
            assert T._GRAD_ENABLED[0] is False
        assert T._GRAD_ENABLED[0] is True
        assert len(seen) == 4
        assert all(name.startswith("featurize") and not grad
                   for name, grad in seen)

    def test_an_exception_in_a_chunk_propagates(self, two_cpus, monkeypatch):
        lower = LowerEncoder(wide_config())
        forward = lower.layers[0].forward

        def failing(x, *args, **kwargs):
            if x.shape[1] == 6:
                raise RuntimeError("chunk failed")
            return forward(x, *args, **kwargs)

        monkeypatch.setattr(lower.layers[0], "forward", failing)
        with pytest.raises(RuntimeError, match="chunk failed"):
            lower.featurize(self.TWO_CHUNKS)
        assert encoder._POOL is not None
        assert T._GRAD_ENABLED[0] is True

    def test_one_chunk_narrow_layers_or_one_cpu_start_no_pool(
            self, two_cpus, monkeypatch):
        cfg = wide_config()
        LowerEncoder(cfg).featurize(["one chunk", "two chunk"])
        assert encoder._POOL is None
        LowerEncoder(small_config(d_model=POOL_MIN_WIDTH // 2)).featurize(
            self.TWO_CHUNKS)
        assert encoder._POOL is None
        monkeypatch.setattr(encoder, "_cpus", lambda: 1)
        lower = LowerEncoder(cfg)
        lower.featurize(self.TWO_CHUNKS)
        assert encoder._POOL is None
        assert list(lower._cache) == self.TWO_CHUNKS

    def test_token_finetune_starts_no_pool(self, two_cpus):
        train = [TokenClassExample(("one", "alpha", "two"), (1, 0, 1)),
                 TokenClassExample(("beta",), (0,))] * 3
        finetune_token_classification(
            DocumentModel(wide_config()), train, train[:2], 2,
            FinetuneConfig(lr=1e-3, epochs=1))
        assert encoder._POOL is None

    def test_only_featurize_runs_chunks_on_the_pool(self, two_cpus,
                                                    monkeypatch):
        """Encoding documents, the correlation analysis and evaluation run
        every upper-encoder forward on the calling thread, though each has
        several chunks and the featurizer's pool is running."""
        threads = []
        forward = UpperEncoder.forward

        def recording(self, *args, **kwargs):
            threads.append(threading.current_thread())
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(UpperEncoder, "forward", recording)
        model = DocumentModel(wide_config())
        docs = [["a"], ["a b c", "x"], ["one two", "three", "four"],
                ["a"], ["pump"]]
        model.encode_documents(docs)
        assert encoder._POOL is not None
        representation_correlation(model, docs)
        TokenTaggerModel(model, 2).evaluate(
            [TokenClassExample(("one", "alpha", "two"), (1, 0, 1)),
             TokenClassExample(("beta",), (0,))])
        assert len(threads) > 6
        assert set(threads) == {threading.current_thread()}


def test_importing_the_cli_starts_no_thread():
    """Set-up time stays free of the featurizer pool: importing the CLI
    starts no thread and does not import concurrent.futures."""
    code = ("import sys, threading, doctrain.cli; "
            "print(threading.active_count(), "
            "'concurrent.futures' in sys.modules)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]


IMPORT_ISOLATION = """
import pkgutil, sys
import doctrain
loaded = lambda: {m for m in sys.modules if m.startswith("doctrain.")}
assert not loaded() and "numpy" not in sys.modules, sorted(loaded())
import doctrain.checkpoint, doctrain.finetune
skipped = {"doctrain." + m for m in ("trainer", "mining", "rouge", "taxonomy",
                                     "corpus", "losses", "analysis",
                                     "manifest", "cli")}
assert not skipped & loaded(), sorted(skipped & loaded())
import doctrain as package
assert package.tensor is sys.modules["doctrain.tensor"]
assert set(dir(package)) >= set(package.__all__)
assert set(dir(package)) >= {m.name for m in pkgutil.iter_modules(package.__path__)}
names = {}
exec("from doctrain import *", names)
assert set(package.__all__) <= set(names), set(package.__all__) - set(names)
try:
    package.no_such_name
except AttributeError:
    print("ok")
"""


def test_importing_one_part_skips_the_rest():
    """`import doctrain` imports no submodule and not NumPy; importing the
    fine-tuning path leaves pre-training, mining, analysis and the CLI out;
    every public name and submodule still resolves from the package."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ISOLATION], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


FORK_CHILD = """
import os, signal, threading
import numpy as np
from doctrain import encoder
from doctrain.encoder import LowerEncoder, ModelConfig

encoder._cpus = lambda: 2  # the pool starts on a one-CPU machine too
cfg = ModelConfig(d_model=64, num_layers=1, num_heads=4, ffn_dim=64,
                  vocab_size=512, lower_layers=1, seed=7)
sentences = ["a", "a b c"]  # two chunks: 2 and 6 pieces
parent = LowerEncoder(cfg)
# both chunks wait for each other, so the pool starts both its threads
barrier, body = threading.Barrier(2, timeout=10), parent._mean_pooled
parent._mean_pooled = lambda pieces: (barrier.wait(), body(pieces))[1]
parent.featurize(sentences)
assert encoder._POOL is not None
want = np.stack([parent.embed(s) for s in sentences])
r, w = os.pipe()
pid = os.fork()
if pid == 0:
    os.close(r)
    signal.alarm(10)  # a child whose featurize hangs dies of SIGALRM
    child = LowerEncoder(cfg)
    child.featurize(sentences)
    os.write(w, np.stack([child.embed(s) for s in sentences]).tobytes())
    os._exit(0)
os.close(w)
with os.fdopen(r, "rb") as fh:
    got = np.frombuffer(fh.read(), want.dtype)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status),
      got.size == want.size and np.array_equal(got.reshape(want.shape), want))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_featurizes_on_its_own_pool():
    """A child forked after the parent's pool started gets a pool of its
    own: its pooled featurize returns the parent's vectors instead of
    waiting on helper threads that did not survive the fork."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", FORK_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True"]


def test_equal_length_chunks():
    """Groups in first-seen order, cut to BATCH_ROWS rows; an item longer
    than the budget is a chunk of its own. `map_equal_length` calls its
    function once per chunk under no_grad, returns the results in item
    order and gives the caller's grad mode back, also after a raise."""
    assert equal_length_chunks([3, 5, 3, 3]) == [[0, 2, 3], [1]]
    lengths = [BATCH_ROWS // 2 - 1] * 5 + [BATCH_ROWS + 1] * 2
    assert equal_length_chunks(lengths) == [[0, 1], [2, 3], [4], [5], [6]]
    assert equal_length_chunks([]) == []

    calls = []

    def labels(chunk):
        calls.append((chunk, T._GRAD_ENABLED[0]))
        return [f"item {i}" for i in chunk]

    lengths = [3, 5, 3, 5, 3]
    assert map_equal_length(lengths, labels) == [f"item {i}" for i in range(5)]
    assert calls == [(chunk, False) for chunk in equal_length_chunks(lengths)]
    assert T._GRAD_ENABLED[0] is True
    with T.no_grad():
        map_equal_length(lengths, labels)
        assert T._GRAD_ENABLED[0] is False

    def failing(chunk):
        raise RuntimeError(f"chunk from item {chunk[0]} failed")

    with pytest.raises(RuntimeError, match="item 0 failed"):
        map_equal_length(lengths, failing)
    assert T._GRAD_ENABLED[0] is True
    calls.clear()
    assert map_equal_length([], labels) == []
    assert calls == []


class TestEmbeddingTable:
    def test_rows_are_token_plus_position(self):
        cfg = small_config()
        table = EmbeddingTable(cfg, token_table(cfg))
        ids = [7, 3, 7]
        got = table.batch_rows([ids]).data[0]
        want = table.token.data[ids] + table.position.data[:3]
        assert np.array_equal(got, want)

    def test_empty_sequence_raises(self):
        cfg = small_config()
        with pytest.raises(LengthError):
            EmbeddingTable(cfg, token_table(cfg)).batch_rows([[]])

    def test_over_capacity_raises(self):
        cfg = small_config(max_positions=4)
        with pytest.raises(LengthError, match="5"):
            EmbeddingTable(cfg, token_table(cfg)).batch_rows([[3] * 5])

    def test_out_of_vocab_raises_with_offenders(self):
        cfg = small_config(vocab_size=512)
        table = EmbeddingTable(cfg, token_table(cfg))
        with pytest.raises(VocabularyError, match="512"):
            table.batch_rows([[3, 512]])
        with pytest.raises(VocabularyError):
            table.batch_rows([[-1]])


class TestClassificationHeads:
    def test_zero_init_gives_uniform_logits(self):
        heads = ClassificationHeads(16, (4, 9))
        logits = heads.logits_matrix(
            Tensor(np.random.default_rng(0).normal(size=(1, 16))))
        assert [lv.shape for lv in logits] == [(1, 5), (1, 10)]  # width + null slot
        for lv in logits:
            assert np.array_equal(lv.data, np.zeros(lv.shape))

    def test_depth_and_param_names(self):
        heads = ClassificationHeads(8, (3, 3, 5))
        assert heads.depth == 3
        assert set(heads.named_params()) == {
            f"heads.{i}.{kind}" for i in range(3) for kind in ("weight", "bias")}

    def test_matrix_and_single_agree(self, rng):
        heads = ClassificationHeads(8, (4,))
        for w in heads.weights:
            w.data = rng.normal(size=w.shape)
        vecs = rng.normal(size=(3, 8))
        mat = heads.logits_matrix(Tensor(vecs))[0].data
        for i in range(3):
            single = heads.logits_matrix(Tensor(vecs[i:i + 1]))[0].data
            assert np.allclose(mat[i], single[0])

    def test_matrix_rejects_vector_input(self):
        with pytest.raises(ShapeError):
            ClassificationHeads(8, (4,)).logits_matrix(Tensor(np.zeros(8)))


class TestModelConfig:
    def test_defaults_validate(self):
        ModelConfig().validate()

    @pytest.mark.parametrize("overrides", [
        dict(d_model=0),
        dict(num_layers=-1),
        dict(lower_layers=0),
        dict(num_heads=3),          # 16 % 3 != 0
        dict(ffn_dim=0),
        dict(vocab_size=3),         # reserved ids need room
        dict(max_positions=0),
        dict(max_sentences=0),
        dict(level_sizes=(4, 0)),
    ])
    def test_invalid_configs_raise(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides).validate()


class TestLora:
    def test_fresh_adapter_is_exact_noop(self, rng):
        enc = UpperEncoder(small_config(num_layers=2), np.random.default_rng(0))
        adapter = LoraAdapter(enc.config, 4, ("query", "value"), seed=1)
        x = rng.normal(size=(5, 16))
        base = enc.forward(Tensor(x)).data
        assert np.array_equal(enc.forward(Tensor(x), None, adapter).data, base)

    def test_fresh_adapter_is_exact_noop_on_batched_input(self, rng):
        enc = UpperEncoder(small_config(num_layers=2), np.random.default_rng(0))
        adapter = LoraAdapter(enc.config, 3, LORA_TARGETS, seed=2)
        x = rng.normal(size=(3, 4, 16))
        bias = key_padding_bias([4, 2, 1])
        base = enc.forward(Tensor(x), bias).data
        assert np.array_equal(enc.forward(Tensor(x), bias, adapter).data, base)

    def test_rank_zero_is_noop_view_with_no_params(self, rng):
        enc = UpperEncoder(small_config(), np.random.default_rng(0))
        adapter = LoraAdapter(enc.config, 0, ("query", "value"), seed=0)
        assert sum(t.size for t in adapter.trainable_tensors()) == 0
        assert adapter.trainable_tensors() == []
        x = rng.normal(size=(2, 16))
        assert np.array_equal(enc.forward(Tensor(x), None, adapter).data,
                              enc.forward(Tensor(x)).data)

    def test_nonzero_second_factor_changes_output(self, rng):
        enc = UpperEncoder(small_config(), np.random.default_rng(0))
        adapter = LoraAdapter(enc.config, 2, ("query",), seed=3)
        for pair_list in adapter._adapters[0].values():
            for pair in pair_list:
                pair.b.data = rng.normal(size=pair.b.shape)
        x = rng.normal(size=(4, 16))
        assert not np.allclose(enc.forward(Tensor(x), None, adapter).data,
                               enc.forward(Tensor(x)).data)

    def test_param_counts(self):
        cfg = small_config(num_layers=3, d_model=16, ffn_dim=32)
        enc = UpperEncoder(cfg, np.random.default_rng(0))
        r = 4
        square = LoraAdapter(enc.config, r, ("query", "value"), seed=0)
        # each square target costs 2*r*d per layer
        assert (sum(t.size for t in square.trainable_tensors())
                == 3 * 2 * (2 * r * 16))
        ffn = LoraAdapter(enc.config, r, ("ffn",), seed=0)
        # both feed-forward matrices factor to r*(d+ffn) each
        assert (sum(t.size for t in ffn.trainable_tensors())
                == 3 * 2 * (r * (16 + 32)))
        everything = LoraAdapter(enc.config, r, LORA_TARGETS, seed=0)
        assert sum(t.size for t in everything.trainable_tensors()) == (
            3 * (4 * 2 * r * 16 + 2 * r * (16 + 32)))

    def test_adapter_tensors_are_trainable_base_unaffected(self):
        enc = UpperEncoder(small_config(), np.random.default_rng(0))
        adapter = LoraAdapter(enc.config, 2, ("query", "value"), seed=0)
        tensors = adapter.trainable_tensors()
        assert tensors and all(t.requires_grad for t in tensors)

    def test_bad_configs(self):
        enc = UpperEncoder(small_config(), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            LoraAdapter(enc.config, -1, ("query", "value"), seed=0)
        with pytest.raises(ConfigError):
            LoraAdapter(enc.config, 2, ("query", "query"), seed=0)
        with pytest.raises(ConfigError, match="sideways"):
            LoraAdapter(enc.config, 2, ("sideways",), seed=0)

    def test_adapter_gradients_flow(self, rng):
        enc = UpperEncoder(small_config(), np.random.default_rng(0))
        adapter = LoraAdapter(enc.config, 2, ("query", "ffn"), seed=5)
        out = enc.forward(Tensor(rng.normal(size=(3, 16))), None, adapter)
        T.backward(T.tmean(out * out))
        for t in adapter.trainable_tensors():
            assert t.grad is not None

    def test_determinism_across_instances(self):
        enc = UpperEncoder(small_config(), np.random.default_rng(0))
        a = LoraAdapter(enc.config, 3, ("query",), seed=9)
        b = LoraAdapter(enc.config, 3, ("query",), seed=9)
        for ta, tb in zip(a.trainable_tensors(), b.trainable_tensors()):
            assert np.array_equal(ta.data, tb.data)


GOLDEN_SENTENCE = "the replacement cartridge arrived with a bent feed tray"
# first four coordinates of LowerEncoder(seed=7).embed(GOLDEN_SENTENCE) at the
# conftest small_config; regenerate only if the architecture itself changes
GOLDEN_PREFIX = (0.14200838193052645, 0.15022262939713688,
                 -0.07281194943477488, -0.0077435283556089125)


def test_lower_feature_golden_vector():
    vec = LowerEncoder(small_config()).embed(GOLDEN_SENTENCE)
    assert np.allclose(vec[:4], GOLDEN_PREFIX, atol=1e-12)
