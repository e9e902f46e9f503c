"""Two-tier document encoder.

The lower tier is a small frozen transformer that featurizes sentences (mean
pool over sub-word hash pieces), many of equal piece count per forward. The
upper tier is a trainable post-norm transformer that consumes either sentence
vectors (pre-training) or token embeddings plus learned positions
(fine-tuning). Both tiers share the same token-vector initialization,
mirroring a lower featurizer and an embedding table copied from one parent
model.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, LengthError, ShapeError, VocabularyError
from .seeding import make_rng
from .tensor import Tensor
from .text import NUM_RESERVED, subword_ids

log = logging.getLogger(__name__)

LORA_TARGETS = ("query", "key", "value", "output", "ffn")

# the layer weights each LoRA target adapts, by checkpoint name
_LORA_WEIGHTS = {"query": ("attention.query.weight",),
                 "key": ("attention.key.weight",),
                 "value": ("attention.value.weight",),
                 "output": ("attention.output.weight",),
                 "ffn": ("ffn.w1", "ffn.w2")}

# sub-word pieces per sentence are capped defensively; desk-scale sentences
# stay far below this
_MAX_PIECES = 1024


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 32
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    vocab_size: int = 8192
    max_positions: int = 512
    max_sentences: int = 64
    lower_layers: int = 2
    level_sizes: tuple[int, ...] = ()
    seed: int = 0

    def validate(self) -> "ModelConfig":
        if self.d_model < 1 or self.num_layers < 0 or self.lower_layers < 1:
            raise ConfigError(f"bad sizes in {self}")
        if self.num_heads < 1 or self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by num_heads {self.num_heads}"
            )
        if self.ffn_dim < 1:
            raise ConfigError(f"ffn_dim must be >= 1, got {self.ffn_dim}")
        if self.vocab_size <= NUM_RESERVED:
            raise ConfigError(f"vocab_size must exceed {NUM_RESERVED}")
        if self.max_positions < 1 or self.max_sentences < 1:
            raise ConfigError("positional/sentence capacity must be >= 1")
        if any(c < 1 for c in self.level_sizes):
            raise ConfigError(f"level_sizes must be positive, got {self.level_sizes}")
        return self


# parameters are float32 arrays; see AdamW for the float64 optimizer state
def _init(rng: np.random.Generator | None, *shape: int) -> np.ndarray:
    """A fresh draw from `rng`; with None, an unfilled placeholder that a
    checkpoint fills, which costs neither draws nor page faults."""
    if rng is None:
        return np.empty(shape, np.float32)
    return rng.normal(0.0, 0.02, shape).astype(np.float32)


def token_table(config: ModelConfig) -> np.ndarray:
    """The [vocab, d] token rows both tiers start from, drawn from the seed's
    "embed.token" stream."""
    return _init(make_rng(config.seed, "embed.token"), config.vocab_size,
                 config.d_model)


# rows one batched inference forward takes: 8 sentences of 57 pieces
BATCH_ROWS = 512


def equal_length_chunks(lengths: list[int]) -> list[list[int]]:
    """Indices of `lengths` grouped by equal length, in first-seen order, each
    group cut into chunks of at most `BATCH_ROWS` rows (one item at least).

    Padding would change an item's product shapes, and with them its bits,
    so an inference batch holds items of one length only.
    """
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(lengths):
        groups.setdefault(n, []).append(i)
    chunks = []
    for n, idx in groups.items():
        per = max(1, BATCH_ROWS // n)
        chunks.extend(idx[lo:lo + per] for lo in range(0, len(idx), per))
    return chunks


# narrower featurizers stay on the calling thread: at d_model 32 a chunk's
# NumPy calls are too short for two threads to overlap, and the pool
# measured no faster than one thread while it added resident memory
POOL_MIN_WIDTH = 64


def _cpus() -> int:
    """CPUs in this process's affinity mask (all CPUs where none exists)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _one_malloc_arena() -> None:
    """Have glibc serve every thread from the main malloc arena: an arena of
    its own keeps about 7 MB resident per helper thread. Without glibc this
    does nothing."""
    import ctypes
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-8, 1)  # M_ARENA_MAX


def map_equal_length(lengths: list[int], fn, threaded: bool = False) -> list:
    """The one way an inference batch runs: `fn(chunk)` for every chunk of
    `equal_length_chunks(lengths)`, under `no_grad`, returns one result per
    index of its chunk; the results come back in item order. The caller's
    grad mode is back when this returns or raises. Every call has returned
    or raised by then, and the first exception in chunk order propagates.

    With `threaded`, two chunks or more and two CPUs or more, the chunks run
    on a thread pool with a thread per CPU that this call starts and joins,
    so no helper thread outlives it (and a forked child inherits none). A
    threaded `fn` must not call `LowerEncoder.embed` or
    `UpperEncoder.forward`: `benchmarks/tracing.py` wraps those with spans
    that share one stack across threads.
    """
    chunks = equal_length_chunks(lengths)
    workers = _cpus()
    # grad mode is process-wide: pool threads run under this no_grad, so it
    # stays entered until every chunk has finished
    with T.no_grad():
        if not threaded or len(chunks) < 2 or workers < 2:
            results = list(map(fn, chunks))
        else:
            # importing concurrent.futures costs set-up time serial runs skip
            import concurrent.futures as cf
            _one_malloc_arena()
            # leaving the block joins every thread: chunks queued behind a
            # failed one are cancelled, running ones finish first
            with cf.ThreadPoolExecutor(
                    workers, thread_name_prefix="featurize") as pool:
                results = list(pool.map(fn, chunks))
    out: list = [None] * len(lengths)
    for chunk, got in zip(chunks, results):
        for i, r in zip(chunk, got):
            out[i] = r
    return out


def key_padding_bias(lengths: list[int]) -> np.ndarray:
    """[B, S_max] additive key bias for sequences padded to the longest: 0 on
    each sequence's first `length` rows, -inf after."""
    lengths = np.asarray(lengths)
    return np.where(np.arange(lengths.max()) < lengths[:, None], 0.0, -np.inf)


def layer_shapes(d: int, f: int) -> dict[str, tuple[int, ...]]:
    """A layer's parameters at width `d` and feed-forward width `f`,
    checkpoint name -> shape, in the order the weights draw from the seed."""
    return {
        "attention.query.weight": (d, d), "attention.query.bias": (d,),
        "attention.key.weight": (d, d), "attention.key.bias": (d,),
        "attention.value.weight": (d, d), "attention.value.bias": (d,),
        "attention.output.weight": (d, d), "attention.output.bias": (d,),
        "norm1.gain": (d,), "norm1.bias": (d,),
        "ffn.w1": (d, f), "ffn.b1": (f,),
        "ffn.w2": (f, d), "ffn.b2": (d,),
        "norm2.gain": (d,), "norm2.bias": (d,),
    }


def _prefixed(prefix: str, layers: list[TransformerLayer]) -> dict[str, Tensor]:
    return {f"{prefix}.{i}.{name}": t
            for i, layer in enumerate(layers)
            for name, t in layer.params.items()}


class TransformerLayer:
    """One post-norm block: self-attention, then a GELU feed-forward. Its
    tensors are `params`, keyed by checkpoint name (see `layer_shapes`). With
    `rng` None every tensor is a placeholder for a checkpoint to fill."""

    def __init__(self, d_model: int, num_heads: int, ffn_dim: int,
                 rng: np.random.Generator | None, trainable: bool):
        self.d_model = d_model
        self.num_heads = num_heads
        self.params: dict[str, Tensor] = {}
        for name, shape in layer_shapes(d_model, ffn_dim).items():
            # a matrix draws from `rng`, a gain starts at one, a bias at zero
            fill = np.ones if name.endswith(".gain") else np.zeros
            data = (_init(rng, *shape) if rng is None or len(shape) == 2
                    else fill(shape, np.float32))
            self.params[name] = Tensor(data, requires_grad=trainable)

    def named_params(self) -> dict[str, Tensor]:
        return self.params

    def _adapted(self, x: Tensor, weight: str, bias: str,
                 pairs: dict[str, LoraPair]) -> Tensor:
        out = T.linear(x, self.params[weight], self.params[bias])
        pair = pairs.get(weight)
        if pair is not None:
            # no bias, not a zero one: adding +0.0 turns -0.0 into +0.0
            out = out + T.linear(T.linear(x, pair.a), pair.b)
        return out

    def forward(self, x: Tensor, key_bias: np.ndarray | None = None,
                adapters: dict | None = None) -> Tensor:
        """[B, S, d] -> [B, S, d]; an [S, d] input is the B=1 case.

        `key_bias` is an additive [B, S] attention-score bias per key: 0 for
        a valid row, -inf for padding, so no row attends to padded keys.
        Projections follow `T.linear`: one product over the B*S rows when
        taping, one per item under `no_grad`.
        """
        shape = x.shape
        if x.ndim not in (2, 3):
            raise ShapeError(f"expected [S, d] or [B, S, d] input, got {shape}")
        d = shape[-1]
        if d != self.d_model:
            raise ShapeError(f"layer width {self.d_model} got input width {d}")
        b, s = (1, shape[0]) if x.ndim == 2 else shape[:2]
        p, ad = self.params, adapters or {}
        q, k, v = (self._adapted(x, f"attention.{n}.weight",
                                 f"attention.{n}.bias", ad)
                   for n in ("query", "key", "value"))
        ctx = T.attention(q, k, v, b, s, self.num_heads, key_bias)
        attn_out = self._adapted(ctx, "attention.output.weight",
                                 "attention.output.bias", ad)
        x = T.add_layer_norm(x, attn_out, p["norm1.gain"], p["norm1.bias"])
        hidden = T.gelu(self._adapted(x, "ffn.w1", "ffn.b1", ad))
        ffn_out = self._adapted(hidden, "ffn.w2", "ffn.b2", ad)
        return T.add_layer_norm(x, ffn_out, p["norm2.gain"], p["norm2.bias"])


class UpperEncoder:
    """Stack of trainable transformer layers shared by both input paths; with
    `rng` None, placeholders for a checkpoint to fill."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        self.config = config
        self.layers = [
            TransformerLayer(config.d_model, config.num_heads, config.ffn_dim,
                             rng, trainable=True)
            for _ in range(config.num_layers)
        ]

    def forward(self, x: Tensor, key_bias: np.ndarray | None = None,
                adapter: "LoraAdapter | None" = None) -> Tensor:
        """[B, S, d] (or [S, d]) -> same shape; see TransformerLayer.forward."""
        for i, layer in enumerate(self.layers):
            ad = adapter.layer_adapters(i) if adapter is not None else None
            x = layer.forward(x, key_bias, ad)
        return x

    def named_params(self) -> dict[str, Tensor]:
        return _prefixed("upper", self.layers)


class LowerEncoder:
    """Frozen sentence featurizer: sub-word hash pieces -> small transformer
    -> mean pool. Its token rows are `token_table(config)`, the rows the
    trainable embedding table starts from; `DocumentModel` gives that table
    its own copy."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.token = Tensor(token_table(config))
        rng = make_rng(config.seed, "lower")
        self.layers = [
            TransformerLayer(config.d_model, config.num_heads, config.ffn_dim,
                             rng, trainable=False)
            for _ in range(config.lower_layers)
        ]
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, sentence: str) -> np.ndarray:
        """One sentence -> one d_model vector (cached; deterministic)."""
        hit = self._cache.get(sentence)
        if hit is None:
            self.featurize([sentence])
            hit = self._cache[sentence]
        return hit

    def featurize(self, sentences: list[str]) -> None:
        """Cache the vector of every sentence not cached yet.

        Sentences of equal piece count run together through
        `map_equal_length`, as [n, S, d] forwards of at most `BATCH_ROWS`
        pieces; from `POOL_MIN_WIDTH` on, on helper threads. Each item's
        products are its own (see `T.linear`), so a vector has the same bits
        whatever sentences shared its chunk and whichever thread ran it. One
        warning line says how many sentences were cut to `_MAX_PIECES`
        pieces.
        """
        todo = [s for s in dict.fromkeys(sentences) if s not in self._cache]
        # a sentence with no word characters gets one reserved piece
        pieces = [subword_ids(s, self.config.vocab_size) or [NUM_RESERVED]
                  for s in todo]
        cut = sum(len(p) > _MAX_PIECES for p in pieces)
        if cut:
            log.warning("truncated %d of %d sentences to %d pieces", cut,
                        len(todo), _MAX_PIECES)
        pieces = [p[:_MAX_PIECES] for p in pieces]
        vectors = map_equal_length(
            [len(p) for p in pieces],
            lambda chunk: self._mean_pooled([pieces[i] for i in chunk]),
            self.config.d_model >= POOL_MIN_WIDTH)
        self._cache.update(zip(todo, vectors))

    def _mean_pooled(self, pieces: list[list[int]]) -> list[np.ndarray]:
        """Mean-pooled vectors of equal-length piece lists, one [n, S, d]
        forward."""
        x = T.embedding(self.token, pieces)
        for layer in self.layers:
            x = layer.forward(x)
        return [rows.mean(axis=0) for rows in x.data]

    def named_params(self) -> dict[str, Tensor]:
        return {"lower.token": self.token, **_prefixed("lower", self.layers)}

    def state_bytes(self) -> bytes:
        """Digest of every frozen parameter, for freeze-contract checks."""
        params = self.named_params()
        h = hashlib.sha256()
        for name in sorted(params):
            h.update(name.encode())
            h.update(np.ascontiguousarray(
                params[name].data.astype(np.float32)).tobytes())
        return h.digest()


class EmbeddingTable:
    """Token vectors plus learned positional vectors for the token path."""

    def __init__(self, config: ModelConfig, token: np.ndarray | None):
        """`token` is the [vocab, d] table to train, a `token_table` draw;
        `DocumentModel` passes a copy of the featurizer's. With None, both
        tables are placeholders for a checkpoint to fill."""
        self.config = config
        rng = None
        if token is None:
            token = _init(None, config.vocab_size, config.d_model)
        else:
            rng = make_rng(config.seed, "embed.position")
        self.token = Tensor(token, requires_grad=True)
        self.position = Tensor(_init(rng, config.max_positions, config.d_model),
                               requires_grad=True)

    def batch_rows(self, seqs: list[list[int]]) -> Tensor:
        """B id sequences -> [B, T_max, d] input rows, each sequence padded
        after its end with id 0 (see `key_padding_bias`)."""
        for ids in seqs:
            n = len(ids)
            if n == 0:
                raise LengthError("token sequence is empty")
            if n > self.config.max_positions:
                raise LengthError(
                    f"sequence length {n} exceeds positional capacity "
                    f"{self.config.max_positions}"
                )
            bad = [i for i in ids if not 0 <= int(i) < self.config.vocab_size]
            if bad:
                raise VocabularyError(
                    f"token id(s) outside vocabulary of size "
                    f"{self.config.vocab_size}: {bad[:5]}"
                )
        width = max(len(ids) for ids in seqs)
        padded = np.zeros((len(seqs), width), dtype=np.int64)
        for i, ids in enumerate(seqs):
            padded[i, :len(ids)] = ids
        return (T.embedding(self.token, padded)
                + T.embedding(self.position, np.arange(width)))

    def named_params(self) -> dict[str, Tensor]:
        return {"embed.token": self.token, "embed.position": self.position}


class ClassificationHeads:
    """One affine map per taxonomy level; level widths include the null class.

    Heads start at zero so initial logits are uniform and each level's loss
    starts at exactly ln(classes).
    """

    def __init__(self, d_model: int, level_sizes: tuple[int, ...]):
        self.level_sizes = tuple(int(c) for c in level_sizes)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for c in self.level_sizes:
            self.weights.append(Tensor(np.zeros((d_model, c + 1), np.float32),
                                       requires_grad=True))
            self.biases.append(Tensor(np.zeros(c + 1, np.float32),
                                      requires_grad=True))

    @property
    def depth(self) -> int:
        return len(self.level_sizes)

    def logits_matrix(self, doc_vectors: Tensor) -> list[Tensor]:
        """[N, d] document vectors -> per level [N, C_level + 1] logits."""
        if doc_vectors.ndim != 2:
            raise ShapeError(f"expected [N, d] vectors, got {doc_vectors.shape}")
        return [T.linear(doc_vectors, w, b)
                for w, b in zip(self.weights, self.biases)]

    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"heads.{i}.weight"] = w
            out[f"heads.{i}.bias"] = b
        return out


@dataclass
class LoraPair:
    a: Tensor
    b: Tensor


class LoraAdapter:
    """Low-rank residual factors W x + B(A x) for selected projections, one
    `LoraPair` per adapted weight, keyed by that weight's checkpoint name.

    B starts at zero, so a fresh adapter computes exactly the base forward.
    Square attention targets contribute 2*r*d_model parameters each; the ffn
    target factors both feed-forward matrices (r*(d_model+ffn_dim) each).
    """

    def __init__(self, config: ModelConfig, rank: int,
                 targets: tuple[str, ...], seed: int):
        if rank < 0:
            raise ConfigError(f"lora rank must be >= 0, got {rank}")
        bad = [t for t in targets if t not in LORA_TARGETS]
        if bad:
            raise ConfigError(f"unknown lora target(s) {bad}; valid: {LORA_TARGETS}")
        if len(set(targets)) != len(targets):
            raise ConfigError(f"duplicate lora targets: {targets}")
        self.rank = rank
        self.targets = tuple(targets)
        rng = make_rng(seed, "lora")
        shapes = layer_shapes(config.d_model, config.ffn_dim)
        # A draws in the given target order
        names = [n for t in self.targets for n in _LORA_WEIGHTS[t]] if rank else []
        self._adapters: list[dict[str, LoraPair]] = [
            {name: LoraPair(
                Tensor(_init(rng, shapes[name][0], rank), requires_grad=True),
                Tensor(np.zeros((rank, shapes[name][1]), np.float32),
                       requires_grad=True))
             for name in names}
            for _ in range(config.num_layers)]

    def layer_adapters(self, layer_idx: int) -> dict[str, LoraPair] | None:
        return self._adapters[layer_idx] or None

    def trainable_tensors(self) -> list[Tensor]:
        """Each layer's A and B factors, targets in sorted order."""
        names = [n for t in sorted(self.targets) for n in _LORA_WEIGHTS[t]]
        return [t for per_layer in self._adapters if per_layer
                for name in names for t in (per_layer[name].a, per_layer[name].b)]

    def merged_deltas(self) -> dict[str, np.ndarray]:
        """Upper-encoder weight name -> A·B, the update that merging the
        adapter into its base weight adds (W x + B(A x) = (W + A·B) x)."""
        return {f"upper.{i}.{name}": pair.a.data @ pair.b.data
                for i, per_layer in enumerate(self._adapters)
                for name, pair in per_layer.items()}
