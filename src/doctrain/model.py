"""The full pipeline model: frozen featurizer, upper encoder, embeddings, heads."""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint
from .encoder import (ClassificationHeads, EmbeddingTable, LoraAdapter,
                      LowerEncoder, ModelConfig, UpperEncoder,
                      key_padding_bias, map_equal_length)
from .errors import ConfigError, CorruptCheckpoint, LengthError, ShapeError
from .optim import ParamGroup
from .records import is_int
from .seeding import make_rng
from .tensor import Tensor

log = logging.getLogger(__name__)

# parameter-type groups used for optimizer wiring and drift reporting
GROUPS = (
    "lower",
    "embed.token",
    "embed.position",
    "upper.attention.query",
    "upper.attention.key",
    "upper.attention.value",
    "upper.attention.output",
    "upper.ffn",
    "upper.layer_norm",
    "heads",
)


def group_of(tensor_name: str) -> str:
    """Map a checkpoint tensor name onto its parameter-type group."""
    if tensor_name.startswith("lower"):
        return "lower"
    if tensor_name.startswith("embed."):
        return tensor_name
    if tensor_name.startswith("heads."):
        return "heads"
    if tensor_name.startswith("upper."):
        rest = tensor_name.split(".", 2)[2]
        if rest.startswith("attention."):
            return "upper.attention." + rest.split(".")[1]
        if rest.startswith("ffn."):
            return "upper.ffn"
        if rest.startswith("norm"):
            return "upper.layer_norm"
    raise ShapeError(f"tensor name {tensor_name!r} belongs to no known group")


class DocumentModel:
    """Everything needed to run both input paths against one parameter set."""

    def __init__(self, config: ModelConfig):
        self._build(config.validate(), LowerEncoder(config))

    def _build(self, config: ModelConfig, lower: LowerEncoder | None) -> None:
        """Set every part around the featurizer `lower`. With `lower` None
        the featurizer is built on first use, and the upper encoder and the
        embedding table are unfilled placeholders for a checkpoint to fill;
        otherwise they are fresh random draws."""
        self.config = config
        self._lower = lower
        self.upper = UpperEncoder(
            config, make_rng(config.seed, "upper") if lower is not None else None)
        # one draw of the token rows; the trainable table gets its own copy
        self.embed = EmbeddingTable(
            config, lower.token.data.copy() if lower is not None else None)
        self.heads = ClassificationHeads(config.d_model, config.level_sizes)
        # low-rank adapters both input paths run through, when attached
        self.adapter: LoraAdapter | None = None

    @property
    def lower(self) -> LowerEncoder:
        """The frozen featurizer. Its parameters derive from the config's
        seed alone, so a model loaded from a checkpoint builds it on first
        use, with the bytes the saved model's featurizer had."""
        if self._lower is None:
            self._lower = LowerEncoder(self.config)
        return self._lower

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype: float32 as built and as loaded."""
        return self.embed.token.data.dtype

    def attach_adapter(self, rank: int, targets: tuple[str, ...] = ("query", "value"),
                       seed: int = 0) -> LoraAdapter:
        """Route both input paths through fresh low-rank adapters."""
        self.adapter = LoraAdapter(self.config, rank, targets, seed)
        return self.adapter

    # -- sentence path ----------------------------------------------------

    def sentence_matrices(self, docs: list[list[str]]) -> list[np.ndarray]:
        """Each document's frozen [S, d] matrix of its first `max_sentences`
        sentences. Every kept sentence is featurized in one batched call
        first, and one warning line says how many documents were cut."""
        if not all(docs):
            raise LengthError("document has no sentences")
        cap = self.config.max_sentences
        cut = sum(len(sentences) > cap for sentences in docs)
        if cut:
            log.warning("truncated %d of %d documents to max_sentences=%d",
                        cut, len(docs), cap)
        kept = [sentences[:cap] for sentences in docs]
        self.lower.featurize([s for sentences in kept for s in sentences])
        return [np.stack([self.lower.embed(s) for s in sentences], axis=0)
                for sentences in kept]

    def fit_positions(self, seqs: list[list[int]],
                      what: str = "sequences") -> list[list[int]]:
        """Each id sequence cut to `max_positions` ids; one warning line says
        how many were cut."""
        cap = self.config.max_positions
        cut = sum(len(ids) > cap for ids in seqs)
        if cut:
            log.warning("truncated %d of %d %s to max_positions=%d", cut,
                        len(seqs), what, cap)
        return [ids[:cap] for ids in seqs]

    def encode_matrices(self, matrices: list[np.ndarray]) -> Tensor:
        """N [S_i, d] sentence-vector matrices -> [N, d] document vectors.

        One upper-encoder pass over the documents padded to the longest;
        each vector is the mean of that document's valid output rows.
        Sentence rows carry no positional vectors.
        """
        d = self.config.d_model
        for m in matrices:
            if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] != d:
                raise ShapeError(f"expected [S, {d}] matrix, got {m.shape}")
        lengths = [m.shape[0] for m in matrices]
        x = np.zeros((len(matrices), max(lengths), d), self.dtype)
        pool = np.zeros((len(matrices), 1, max(lengths)), self.dtype)
        for i, m in enumerate(matrices):
            x[i, :len(m)] = m
            pool[i, 0, :len(m)] = 1.0 / len(m)
        out = self.upper.forward(Tensor(x), key_padding_bias(lengths),
                                 self.adapter)
        return T.reshape(T.matmul(Tensor(pool), out), (len(matrices), d))

    def encode_document(self, sentences: list[str]) -> Tensor:
        """Sentence strings -> [d] document vector."""
        matrices = self.sentence_matrices([sentences])
        return T.reshape(self.encode_matrices(matrices), (self.config.d_model,))

    def encode_documents(self, docs: list[list[str]]) -> np.ndarray:
        """Documents' sentence strings -> [N, d] document vectors, without
        taping. Documents of equal kept length run together through
        `map_equal_length`; each vector has the bits `encode_document` gives
        it."""
        matrices = self.sentence_matrices(docs)
        vectors = map_equal_length(
            [len(m) for m in matrices],
            lambda chunk: self.encode_matrices(
                [matrices[i] for i in chunk]).data)
        return np.array(vectors, self.dtype).reshape(-1, self.config.d_model)

    # -- token path ---------------------------------------------------------

    def encode_token_batch(self, seqs: list[list[int]]) -> Tensor:
        """B token-id sequences -> [B, T_max, d] contextualized outputs of one
        padded pass; rows past a sequence's length are padding."""
        return self.upper.forward(self.embed.batch_rows(seqs),
                                  key_padding_bias([len(q) for q in seqs]),
                                  self.adapter)

    # -- parameter bookkeeping -------------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.upper.named_params())
        out.update(self.embed.named_params())
        out.update(self.heads.named_params())
        return out

    def param_groups(self, frozen=()) -> list[ParamGroup]:
        """Every non-empty group in `GROUPS` order, then the attached adapter
        as `lora`, with `requires_grad` set on each tensor: False for the
        featurizer and each group named in `frozen`, True for the rest. A
        featurizer not built yet is left unbuilt, and its group is left out.

        Each training phase calls this once, so no phase inherits another's
        freezing.
        """
        buckets: dict[str, list[Tensor]] = {name: [] for name in GROUPS}
        if self._lower is not None:
            buckets["lower"] = list(self._lower.named_params().values())
        for name, t in self.named_params().items():
            buckets[group_of(name)].append(t)
        if self.adapter is not None:
            buckets["lora"] = self.adapter.trainable_tensors()
        groups = [ParamGroup(name, tensors)
                  for name, tensors in buckets.items() if tensors]
        for g in groups:
            for t in g.tensors:
                t.requires_grad = g.name != "lower" and g.name not in frozen
        return groups

    def zero_head(self, cols: int) -> tuple[Tensor, Tensor]:
        """A trainable zero [d_model, cols] head and bias in the model's dtype."""
        return (Tensor(np.zeros((self.config.d_model, cols), self.dtype),
                       requires_grad=True),
                Tensor(np.zeros(cols, self.dtype), requires_grad=True))

    # -- persistence ----------------------------------------------------------

    def to_checkpoint(self, extra_meta: dict | None = None) -> Checkpoint:
        """Upper encoder, heads and embedding table as named float32 tensors;
        the frozen featurizer travels as its seed inside the config echo."""
        meta = {"config": dataclasses.asdict(self.config)}
        if extra_meta:
            meta.update(extra_meta)
        # trained LoRA adapters travel merged into their base weights
        deltas = self.adapter.merged_deltas() if self.adapter is not None else {}
        tensors = {name: (t.data + deltas[name] if name in deltas
                          else t.data).astype(np.float32)
                   for name, t in self.named_params().items()}
        return Checkpoint(meta=meta, tensors=tensors)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "DocumentModel":
        """The model `ckpt` holds. The model takes the checkpoint's float32
        arrays rather than copies, and training updates them in place: load
        a `Checkpoint` into one model only, or copy its arrays first."""
        raw = ckpt.meta.get("config")
        if not raw:
            raise CorruptCheckpoint("checkpoint metadata has no config echo")
        config = _config_from_echo(raw)
        # every named parameter is read below, and the featurizer waits
        # for its first use
        model = cls.__new__(cls)
        model._build(config, None)
        expected = model.named_params()
        missing = sorted(set(expected) - set(ckpt.tensors))
        if missing:
            raise CorruptCheckpoint(f"checkpoint lacks tensors: {missing[:5]}")
        for name, t in expected.items():
            arr = ckpt.tensors[name]
            if tuple(arr.shape) != t.shape:
                raise CorruptCheckpoint(
                    f"tensor {name!r} has shape {arr.shape}, expected {t.shape}"
                )
            t.data = arr.astype(np.float32, copy=False)
        return model


def _config_from_echo(raw) -> ModelConfig:
    """The `ModelConfig` a checkpoint's config echo records: a JSON object of
    known fields holding integers (`level_sizes` a list of them) that passes
    `ModelConfig.validate`. Anything else is a corrupt checkpoint."""
    if not isinstance(raw, dict):
        raise CorruptCheckpoint(
            f"config echo is a JSON {type(raw).__name__}, not an object")
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = sorted(set(raw) - fields)
    if unknown:
        raise CorruptCheckpoint(f"bad config echo: unknown fields {unknown}")
    levels = raw.get("level_sizes", [])
    bad = [name for name, value in raw.items()
           if name != "level_sizes" and not is_int(value)]
    # a list from JSON; a tuple when the checkpoint never left memory
    if (not isinstance(levels, (list, tuple))
            or not all(is_int(c) for c in levels)):
        bad.append("level_sizes")
    if bad:
        raise CorruptCheckpoint(f"bad config echo: {bad} must be integers")
    try:
        return ModelConfig(**{**raw, "level_sizes": tuple(levels)}).validate()
    except ConfigError as exc:
        raise CorruptCheckpoint(f"bad config echo: {exc}") from exc
