"""Fine-tuning over the token-embedding path: span extraction, token tagging,
and sentence-pair classification, with their task metrics."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .encoder import key_padding_bias, map_equal_length
from .errors import ConfigError, NumericError, ValidationError
from .model import DocumentModel
from .optim import AdamW, ParamGroup
from .records import list_field, read_jsonl
from .seeding import make_rng
from .tensor import Tensor, backward
from .text import CLS_ID, SEP_ID, encode_tokens

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FinetuneConfig:
    lr: float = 3e-5
    epochs: int = 30
    batch_size: int = 8
    max_examples: int | None = None  # few-shot budget, e.g. 50
    patience: int = 5
    seed: int = 0

    def validate(self) -> "FinetuneConfig":
        if not 0 < self.lr < np.inf or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"bad finetune config {self}")
        if self.max_examples is not None and self.max_examples < 1:
            raise ConfigError("max_examples must be >= 1 when set")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        return self


@dataclass(frozen=True)
class SpanQaExample:
    question: tuple[str, ...]
    context: tuple[str, ...]
    answer: tuple[int, int] | None  # token span in context coords, or None

    def __post_init__(self):
        if not self.question or not self.context:
            raise ValidationError("question and context must be non-empty")
        if self.answer is not None:
            s, e = self.answer
            if not (0 <= s <= e < len(self.context)):
                raise ValidationError(
                    f"answer span {self.answer} out of range for context of "
                    f"length {len(self.context)}")


@dataclass(frozen=True)
class TokenClassExample:
    tokens: tuple[str, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValidationError("empty token sequence")
        if len(self.labels) != len(self.tokens):
            raise ValidationError(
                f"{len(self.labels)} labels for {len(self.tokens)} tokens")


@dataclass(frozen=True)
class PairExample:
    first: tuple[str, ...]
    second: tuple[str, ...]
    label: int

    def __post_init__(self):
        if not self.first or not self.second:
            raise ValidationError("both segments must be non-empty")
        if self.label not in (0, 1):
            raise ValidationError(f"pair label must be 0 or 1, got {self.label}")


@dataclass
class FinetuneResult:
    metrics: dict[str, float]
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    epochs_run: int = 0


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise ValidationError("accuracy needs two equal non-empty label lists")
    return float((y_true == y_pred).mean())


def macro_f1(y_true, y_pred, num_classes: int) -> float:
    """Mean per-class F1; classes that never occur in y_true are skipped."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise ValidationError("macro_f1 needs two equal non-empty label lists")
    scores = [_class_f1(y_true, y_pred, c) for c in range(num_classes)]
    scores = [f1 for f1 in scores if f1 is not None]
    if not scores:
        raise ValidationError("no class has support in y_true")
    return float(np.mean(scores))


def binary_f1(y_true, y_pred) -> float:
    """F1 of class 1; 0 where class 1 never occurs in y_true."""
    return _class_f1(np.asarray(y_true), np.asarray(y_pred), 1) or 0.0


def _class_f1(y_true: np.ndarray, y_pred: np.ndarray, c: int) -> float | None:
    """F1 of class `c`; None where `c` never occurs in y_true."""
    tp = int(((y_true == c) & (y_pred == c)).sum())
    fp = int(((y_true != c) & (y_pred == c)).sum())
    fn = int(((y_true == c) & (y_pred != c)).sum())
    if tp + fn == 0:
        return None
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def span_token_f1(pred: tuple[int, int] | None,
                  gold: tuple[int, int] | None) -> float:
    """Overlap F1 of two token spans; both-unanswerable scores 1."""
    if pred is None and gold is None:
        return 1.0
    if pred is None or gold is None:
        return 0.0
    a = set(range(pred[0], pred[1] + 1))
    b = set(range(gold[0], gold[1] + 1))
    overlap = len(a & b)
    if overlap == 0:
        return 0.0
    precision = overlap / len(a)
    recall = overlap / len(b)
    return 2 * precision * recall / (precision + recall)


def best_span(s_log: np.ndarray, e_log: np.ndarray, offset: int,
              kept: int) -> tuple[int, int] | None:
    """The context span (s, e), s <= e, with the highest start-plus-end
    logit, in context coordinates; None unless it beats the no-answer score
    at position 0. Ties go to the first span in row-major (s, e) order."""
    ctx = slice(offset, offset + kept)
    scores = s_log[ctx, None] + e_log[None, ctx]
    scores[np.tril_indices(kept, -1)] = -np.inf
    s, e = divmod(int(scores.argmax()), kept)
    return (s, e) if scores[s, e] > s_log[0] + e_log[0] else None


class SpanQaModel:
    """Joint start/end span scorer over [CLS] question [SEP] context.

    Position 0 (the leading classification slot) doubles as the
    no-answer target, so unanswerable examples train toward span (0, 0).
    """

    primary_metric = "f1"

    def __init__(self, model: DocumentModel):
        self.model = model
        self.w_start, self.b_start = model.zero_head(1)
        self.w_end, self.b_end = model.zero_head(1)

    def head_tensors(self) -> list[Tensor]:
        return [self.w_start, self.b_start, self.w_end, self.b_end]

    def _encode(self, batch: list[SpanQaExample]):
        """Each example's ids of [CLS] question [SEP] context, the index of
        its first context position and its kept context length; one warning
        line says how many contexts were cut to fit."""
        vocab = self.model.config.vocab_size
        budget = self.model.config.max_positions
        encoded = []
        cut = 0
        for ex in batch:
            q_ids = encode_tokens(list(ex.question), vocab)
            ctx_ids = encode_tokens(list(ex.context), vocab)
            room = budget - 2 - len(q_ids)
            if room < 1:
                raise ValidationError(
                    f"question of {len(q_ids)} tokens leaves no room for "
                    f"context within {budget} positions")
            cut += len(ctx_ids) > room
            ctx_ids = ctx_ids[:room]
            encoded.append(([CLS_ID] + q_ids + [SEP_ID] + ctx_ids,
                            2 + len(q_ids), len(ctx_ids)))
        if cut:
            log.warning("truncated %d of %d contexts to fit %d positions",
                        cut, len(batch), budget)
        return encoded

    def _scores(self, seqs: list[list[int]]):
        """[B, T_max] start and end logits of one padded pass over id
        sequences, -inf past each sequence's end. The heads see [B, T, d]
        items, so under `no_grad` each item's products are its own."""
        out = self.model.encode_token_batch(seqs)
        b, s, _ = out.shape
        pad = key_padding_bias([len(q) for q in seqs])
        start = T.reshape(T.linear(out, self.w_start, self.b_start),
                          (b, s)) + pad
        end = T.reshape(T.linear(out, self.w_end, self.b_end), (b, s)) + pad
        return start, end

    def batch_loss(self, batch: list[SpanQaExample]) -> Tensor:
        """Mean over the examples of start plus end cross entropy; a gold
        span cut off by truncation trains toward no-answer."""
        encoded = self._encode(batch)
        start, end = self._scores([ids for ids, _, _ in encoded])
        ts, te = [], []
        lost = 0
        for ex, (_, offset, kept) in zip(batch, encoded):
            if ex.answer is None or ex.answer[1] >= kept:
                lost += ex.answer is not None
                s = e = 0
            else:
                s, e = offset + ex.answer[0], offset + ex.answer[1]
            ts.append(s)
            te.append(e)
        if lost:
            log.warning("%d of %d gold spans lost to truncation", lost,
                        sum(ex.answer is not None for ex in batch))
        return (T.cross_entropy_rows(start, ts, "mean")
                + T.cross_entropy_rows(end, te, "mean"))

    def _predict(self, examples: list[SpanQaExample]
                 ) -> list[tuple[int, int] | None]:
        """Each example's predicted context span, from one `_encode` of the
        set. Examples of equal encoded length run together through
        `map_equal_length`; each prediction is the one the example gets
        alone."""
        encoded = self._encode(examples)

        def spans(chunk):
            start, end = self._scores([encoded[i][0] for i in chunk])
            return [best_span(s_log, e_log, encoded[i][1], encoded[i][2])
                    for i, s_log, e_log in zip(chunk, start.data, end.data)]

        return map_equal_length([len(ids) for ids, _, _ in encoded], spans)

    def predict(self, ex: SpanQaExample) -> tuple[int, int] | None:
        return self._predict([ex])[0]

    def evaluate(self, examples) -> dict[str, float]:
        if not examples:
            raise ValidationError("no examples to evaluate")
        em = 0.0
        f1 = 0.0
        for ex, pred in zip(examples, self._predict(examples)):
            em += float(pred == ex.answer)
            f1 += span_token_f1(pred, ex.answer)
        n = len(examples)
        return {"exact_match": em / n, "f1": f1 / n}


class TokenTaggerModel:
    """Per-position classifier over the token path."""

    primary_metric = "macro_f1"

    def __init__(self, model: DocumentModel, num_classes: int):
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        self.model = model
        self.num_classes = num_classes
        self.w, self.b = model.zero_head(num_classes)

    def head_tensors(self) -> list[Tensor]:
        return [self.w, self.b]

    def _check(self, ex: TokenClassExample):
        bad = [l for l in ex.labels if not 0 <= l < self.num_classes]
        if bad:
            raise ValidationError(
                f"labels {sorted(set(bad))} outside [0, {self.num_classes})")

    def _seqs(self, batch: list[TokenClassExample]) -> list[list[int]]:
        vocab = self.model.config.vocab_size
        return self.model.fit_positions(
            [encode_tokens(list(ex.tokens), vocab) for ex in batch])

    def _logits(self, batch: list[TokenClassExample]):
        """Logits [N, C] of every kept token of the batch, in example order,
        from one padded pass; plus each example's kept length."""
        seqs = self._seqs(batch)
        out = self.model.encode_token_batch(seqs)
        b, s, d = out.shape
        kept = np.concatenate([i * s + np.arange(len(q))
                               for i, q in enumerate(seqs)])
        rows = T.embedding(T.reshape(out, (b * s, d)), kept)
        return T.linear(rows, self.w, self.b), [len(q) for q in seqs]

    def batch_loss(self, batch: list[TokenClassExample]) -> Tensor:
        """Mean over the examples of each one's mean token cross entropy."""
        for ex in batch:
            self._check(ex)
        logits, lengths = self._logits(batch)
        targets = np.concatenate([ex.labels[:n]
                                  for ex, n in zip(batch, lengths)])
        weights = np.concatenate([np.full(n, 1.0 / (n * len(batch)))
                                  for n in lengths])
        return T.cross_entropy_rows(logits, targets, reduction="sum",
                                    weights=weights)

    def _predict(self, examples: list[TokenClassExample]) -> list[list[int]]:
        """Each example's predicted class per kept token. Examples of equal
        kept length run together through `map_equal_length`, with the head
        applied to [n, T, d]; each prediction is the one the example gets
        alone."""
        for ex in examples:
            self._check(ex)
        seqs = self._seqs(examples)

        def labels(chunk):
            out = self.model.encode_token_batch([seqs[i] for i in chunk])
            return [[int(c) for c in row] for row in
                    T.linear(out, self.w, self.b).data.argmax(axis=-1)]

        return map_equal_length([len(q) for q in seqs], labels)

    def predict(self, ex: TokenClassExample) -> list[int]:
        return self._predict([ex])[0]

    def evaluate(self, examples) -> dict[str, float]:
        if not examples:
            raise ValidationError("no examples to evaluate")
        y_true: list[int] = []
        y_pred: list[int] = []
        for ex, pred in zip(examples, self._predict(examples)):
            y_true.extend(ex.labels[:len(pred)])
            y_pred.extend(pred)
        return {"macro_f1": macro_f1(y_true, y_pred, self.num_classes),
                "accuracy": accuracy(y_true, y_pred)}


class PairClassifierModel:
    """Two-way classifier on the first-position output of [CLS] a [SEP] b."""

    primary_metric = "accuracy"

    def __init__(self, model: DocumentModel):
        self.model = model
        self.w, self.b = model.zero_head(2)

    def head_tensors(self) -> list[Tensor]:
        return [self.w, self.b]

    def _seqs(self, batch: list[PairExample]) -> list[list[int]]:
        vocab = self.model.config.vocab_size
        return self.model.fit_positions(
            [[CLS_ID] + encode_tokens(list(ex.first), vocab) + [SEP_ID]
             + encode_tokens(list(ex.second), vocab) for ex in batch])

    def _logits(self, seqs: list[list[int]]) -> Tensor:
        """[B, 2] logits from each sequence's first output row, one pass. The
        head sees [B, 1, d] items, so under `no_grad` each item's product is
        its own."""
        out = self.model.encode_token_batch(seqs)
        b, s, d = out.shape
        first = T.embedding(T.reshape(out, (b * s, d)),
                            (np.arange(b) * s)[:, None])
        return T.reshape(T.linear(first, self.w, self.b), (b, 2))

    def batch_loss(self, batch: list[PairExample]) -> Tensor:
        return T.cross_entropy_rows(self._logits(self._seqs(batch)),
                                    np.array([ex.label for ex in batch]),
                                    reduction="mean")

    def _predict(self, examples: list[PairExample]) -> list[int]:
        """Each example's predicted label. Examples of equal sequence length
        run together through `map_equal_length`; each prediction is the one
        the example gets alone."""
        seqs = self._seqs(examples)

        def labels(chunk):
            logits = self._logits([seqs[i] for i in chunk])
            return [int(row.argmax()) for row in logits.data]

        return map_equal_length([len(q) for q in seqs], labels)

    def predict(self, ex: PairExample) -> int:
        return self._predict([ex])[0]

    def evaluate(self, examples) -> dict[str, float]:
        if not examples:
            raise ValidationError("no examples to evaluate")
        y_true = [ex.label for ex in examples]
        y_pred = self._predict(examples)
        return {"accuracy": accuracy(y_true, y_pred),
                "f1": binary_f1(y_true, y_pred)}


def _snapshot(tensors: list[Tensor]) -> list[np.ndarray]:
    return [t.data.copy() for t in tensors]


def _restore(tensors: list[Tensor], blobs: list[np.ndarray]) -> None:
    for t, blob in zip(tensors, blobs):
        t.data = blob.copy()


def finetune(task, train: list, dev: list,
             config: FinetuneConfig) -> FinetuneResult:
    """Shared epoch loop with early stopping on the task's primary metric.

    `task` is one of the task model classes above, already wrapping a
    DocumentModel. Mutates the wrapped model in place and leaves it at the
    best-scoring epoch's state.
    """
    config.validate()
    if not train or not dev:
        raise ValidationError("both train and dev sets must be non-empty")
    if config.max_examples is not None:
        train = train[:config.max_examples]

    # the upper encoder, both embedding tables and the task head train; the
    # pre-training heads and an attached adapter stay as they are
    groups = task.model.param_groups({"heads", "lora"})
    groups.append(ParamGroup("task_head", task.head_tensors()))
    optimizer = AdamW(groups, lr=config.lr)
    trainable = [t for g in groups for t in g.tensors if t.requires_grad]
    rng = make_rng(config.seed, "finetune-shuffle")

    best_metric = -np.inf
    best_state = _snapshot(trainable)
    best_epoch = 0
    best_metrics: dict[str, float] = {}
    history: list[dict] = []
    stale = 0
    epochs_run = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(train))
        for lo in range(0, len(train), config.batch_size):
            batch = [train[i] for i in order[lo:lo + config.batch_size]]
            loss = task.batch_loss(batch)
            if not np.isfinite(loss.data).all():
                raise NumericError(f"non-finite loss in epoch {epoch}")
            backward(loss)
            optimizer.step()
            optimizer.zero_grad()
        epochs_run = epoch + 1
        metrics = task.evaluate(dev)
        history.append({"epoch": epoch, **metrics})
        score = metrics[task.primary_metric]
        if score > best_metric:
            best_metric = score
            best_state = _snapshot(trainable)
            best_epoch = epoch
            best_metrics = dict(metrics)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    _restore(trainable, best_state)
    return FinetuneResult(metrics=best_metrics, history=history,
                          best_epoch=best_epoch, epochs_run=epochs_run)


def load_span_qa(path) -> list[SpanQaExample]:
    """JSONL: {"question": [...], "context": [...], "answer": [s, e] | null}"""
    def build(obj, _):
        answer = obj["answer"]
        if answer is not None:
            start, end = list_field(obj, "answer")
            answer = (int(start), int(end))
        return SpanQaExample(list_field(obj, "question"),
                             list_field(obj, "context"), answer)
    return read_jsonl(path, build)


def load_token_class(path) -> list[TokenClassExample]:
    """JSONL: {"tokens": [...], "labels": [int per token]}"""
    return read_jsonl(path, lambda obj, _: TokenClassExample(
        list_field(obj, "tokens"),
        tuple(int(v) for v in list_field(obj, "labels"))))


def load_pairs(path) -> list[PairExample]:
    """JSONL: {"first": [...], "second": [...], "label": 0 | 1}"""
    return read_jsonl(path, lambda obj, _: PairExample(
        list_field(obj, "first"), list_field(obj, "second"),
        int(obj["label"])))


def finetune_span_qa(model: DocumentModel, train: list[SpanQaExample],
                     dev: list[SpanQaExample],
                     config: FinetuneConfig) -> tuple[SpanQaModel, FinetuneResult]:
    task = SpanQaModel(model)
    return task, finetune(task, train, dev, config)


def finetune_token_classification(
        model: DocumentModel, train: list[TokenClassExample],
        dev: list[TokenClassExample], num_classes: int,
        config: FinetuneConfig) -> tuple[TokenTaggerModel, FinetuneResult]:
    task = TokenTaggerModel(model, num_classes)
    return task, finetune(task, train, dev, config)


def finetune_pair_classification(
        model: DocumentModel, train: list[PairExample],
        dev: list[PairExample],
        config: FinetuneConfig) -> tuple[PairClassifierModel, FinetuneResult]:
    task = PairClassifierModel(model)
    return task, finetune(task, train, dev, config)
