"""Fine-tuning over the token-embedding path: span extraction, token tagging,
and sentence-pair classification, with their task metrics."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .encoder import key_padding_bias, map_equal_length
from .errors import ConfigError, ValidationError
from .model import DocumentModel
from .optim import AdamW, ParamGroup, train_steps
from .records import int_field, int_list_field, list_field, read_jsonl
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


class _TokenTask:
    """What the three task heads share: zero (w, b) heads over the token
    path, one padded pass per training batch, and prediction over
    equal-length chunks. A task adds how its examples become id sequences
    (`_seqs`), its loss from the padded outputs (`_loss`), its answers for
    one equal-length chunk (`_answers`) and its metrics (`_metrics`)."""

    primary_metric: str

    def __init__(self, model: DocumentModel, *widths: int):
        self.model = model
        self._heads = [model.zero_head(n) for n in widths]

    def head_tensors(self) -> list[Tensor]:
        return [t for head in self._heads for t in head]

    def batch_loss(self, batch: list) -> Tensor:
        seqs = self._seqs(batch)
        return self._loss(batch, seqs, self.model.encode_token_batch(seqs))

    def _predict(self, examples: list) -> list:
        """Each example's prediction, from one `_seqs` of the set. Examples
        of equal sequence length run together through `map_equal_length`;
        each prediction is the one the example gets alone."""
        seqs = self._seqs(examples)

        def answers(chunk):
            part = [seqs[i] for i in chunk]
            return self._answers([examples[i] for i in chunk], part,
                                 self.model.encode_token_batch(part))

        return map_equal_length([len(q) for q in seqs], answers)

    def predict(self, ex):
        return self._predict([ex])[0]

    def evaluate(self, examples) -> dict[str, float]:
        if not examples:
            raise ValidationError("no examples to evaluate")
        return self._metrics(examples, self._predict(examples))


class SpanQaModel(_TokenTask):
    """Joint start/end span scorer over [CLS] question [SEP] context.

    Position 0 (the leading classification slot) doubles as the
    no-answer target, so unanswerable examples train toward span (0, 0).
    An example's context starts at position 2 + len(question).
    """

    primary_metric = "f1"

    def __init__(self, model: DocumentModel):
        super().__init__(model, 1, 1)

    def _seqs(self, batch: list[SpanQaExample]) -> list[list[int]]:
        """Each example's ids of [CLS] question [SEP] context; one warning
        line says how many contexts were cut to fit."""
        vocab = self.model.config.vocab_size
        budget = self.model.config.max_positions
        seqs = []
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
            seqs.append([CLS_ID] + q_ids + [SEP_ID] + ctx_ids[:room])
        if cut:
            log.warning("truncated %d of %d contexts to fit %d positions",
                        cut, len(batch), budget)
        return seqs

    def _logits(self, out: Tensor, seqs: list[list[int]]) -> list[Tensor]:
        """[B, T_max] start and end logits, -inf past each sequence's end.
        The heads see [B, T, d] items, so under `no_grad` each item's
        products are its own."""
        b, s, _ = out.shape
        pad = key_padding_bias([len(q) for q in seqs])
        return [T.reshape(T.linear(out, w, bias), (b, s)) + pad
                for w, bias in self._heads]

    def _loss(self, batch, seqs, out) -> Tensor:
        """Mean over the examples of start plus end cross entropy; a gold
        span cut off by truncation trains toward no-answer."""
        start, end = self._logits(out, seqs)
        ts, te = [], []
        lost = 0
        for ex, ids in zip(batch, seqs):
            offset = 2 + len(ex.question)
            if ex.answer is None or ex.answer[1] >= len(ids) - offset:
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

    def _answers(self, chunk, seqs, out) -> list[tuple[int, int] | None]:
        start, end = self._logits(out, seqs)
        return [best_span(s_log, e_log, 2 + len(ex.question),
                          len(ids) - 2 - len(ex.question))
                for ex, ids, s_log, e_log in zip(chunk, seqs, start.data,
                                                 end.data)]

    def _metrics(self, examples, preds) -> dict[str, float]:
        em = 0.0
        f1 = 0.0
        for ex, pred in zip(examples, preds):
            em += float(pred == ex.answer)
            f1 += span_token_f1(pred, ex.answer)
        n = len(examples)
        return {"exact_match": em / n, "f1": f1 / n}


class TokenTaggerModel(_TokenTask):
    """Per-position classifier over the token path."""

    primary_metric = "macro_f1"

    def __init__(self, model: DocumentModel, num_classes: int):
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        super().__init__(model, num_classes)
        self.num_classes = num_classes
        self.w, self.b = self._heads[0]

    def _seqs(self, batch: list[TokenClassExample]) -> list[list[int]]:
        for ex in batch:
            bad = [l for l in ex.labels if not 0 <= l < self.num_classes]
            if bad:
                raise ValidationError(f"labels {sorted(set(bad))} outside "
                                      f"[0, {self.num_classes})")
        vocab = self.model.config.vocab_size
        return self.model.fit_positions(
            [encode_tokens(list(ex.tokens), vocab) for ex in batch])

    def _loss(self, batch, seqs, out) -> Tensor:
        """Mean over the examples of each one's mean token cross entropy,
        over the logits [N, C] of every kept token in example order."""
        b, s, d = out.shape
        kept = np.concatenate([i * s + np.arange(len(q))
                               for i, q in enumerate(seqs)])
        rows = T.embedding(T.reshape(out, (b * s, d)), kept)
        logits = T.linear(rows, self.w, self.b)
        lengths = [len(q) for q in seqs]
        targets = np.concatenate([ex.labels[:n]
                                  for ex, n in zip(batch, lengths)])
        weights = np.concatenate([np.full(n, 1.0 / (n * len(batch)))
                                  for n in lengths])
        return T.cross_entropy_rows(logits, targets, reduction="sum",
                                    weights=weights)

    def _answers(self, chunk, seqs, out) -> list[list[int]]:
        """Each kept token's class, with the head applied to [n, T, d]."""
        return [[int(c) for c in row] for row in
                T.linear(out, self.w, self.b).data.argmax(axis=-1)]

    def _metrics(self, examples, preds) -> dict[str, float]:
        y_true: list[int] = []
        y_pred: list[int] = []
        for ex, pred in zip(examples, preds):
            y_true.extend(ex.labels[:len(pred)])
            y_pred.extend(pred)
        return {"macro_f1": macro_f1(y_true, y_pred, self.num_classes),
                "accuracy": accuracy(y_true, y_pred)}


class PairClassifierModel(_TokenTask):
    """Two-way classifier on the first-position output of [CLS] a [SEP] b."""

    primary_metric = "accuracy"

    def __init__(self, model: DocumentModel):
        super().__init__(model, 2)
        self.w, self.b = self._heads[0]

    def _seqs(self, batch: list[PairExample]) -> list[list[int]]:
        vocab = self.model.config.vocab_size
        return self.model.fit_positions(
            [[CLS_ID] + encode_tokens(list(ex.first), vocab) + [SEP_ID]
             + encode_tokens(list(ex.second), vocab) for ex in batch])

    def _logits(self, out: Tensor) -> Tensor:
        """[B, 2] logits from each sequence's first output row. The head sees
        [B, 1, d] items, so under `no_grad` each item's product is its
        own."""
        b, s, d = out.shape
        first = T.embedding(T.reshape(out, (b * s, d)),
                            (np.arange(b) * s)[:, None])
        return T.reshape(T.linear(first, self.w, self.b), (b, 2))

    def _loss(self, batch, seqs, out) -> Tensor:
        return T.cross_entropy_rows(self._logits(out),
                                    np.array([ex.label for ex in batch]),
                                    reduction="mean")

    def _answers(self, chunk, seqs, out) -> list[int]:
        return [int(row.argmax()) for row in self._logits(out).data]

    def _metrics(self, examples, preds) -> dict[str, float]:
        y_true = [ex.label for ex in examples]
        return {"accuracy": accuracy(y_true, preds),
                "f1": binary_f1(y_true, preds)}


def finetune(task, train: list, dev: list,
             config: FinetuneConfig) -> FinetuneResult:
    """`optim.train_steps` at the constant rate `config.lr`. Each epoch's
    last step evaluates `dev` and keeps a copy of the trainable tensors when
    the task's primary metric improves; `patience` epochs without a gain
    stop the run. `task` is one of the task model classes above; its
    DocumentModel is tuned in place and left at the best epoch's state."""
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
    per_epoch = math.ceil(len(train) / config.batch_size)

    best_state = [t.data.copy() for t in trainable]
    best_epoch = 0
    best_metrics: dict[str, float] = {}
    history: list[dict] = []
    for row in train_steps(
            optimizer, len(train), config.batch_size, config.epochs,
            make_rng(config.seed, "finetune-shuffle"),
            lambda indices: task.batch_loss([train[i] for i in indices]),
            lambda step: config.lr, backward):
        epoch, step_in_epoch = divmod(row["step"], per_epoch)
        if step_in_epoch < per_epoch - 1:
            continue
        metrics = task.evaluate(dev)
        history.append({"epoch": epoch, **metrics})
        score = metrics[task.primary_metric]
        if score > best_metrics.get(task.primary_metric, -np.inf):
            best_state = [t.data.copy() for t in trainable]
            best_epoch = epoch
            best_metrics = dict(metrics)
        elif epoch - best_epoch >= config.patience:
            break

    for t, blob in zip(trainable, best_state):
        t.data = blob.copy()
    return FinetuneResult(metrics=best_metrics, history=history,
                          best_epoch=best_epoch, epochs_run=len(history))


def load_span_qa(path) -> list[SpanQaExample]:
    """JSONL: {"question": [...], "context": [...], "answer": [s, e] | null}"""
    def build(obj, _):
        answer = obj["answer"]
        if answer is not None:
            start, end = int_list_field(obj, "answer")
            answer = (start, end)
        return SpanQaExample(list_field(obj, "question"),
                             list_field(obj, "context"), answer)
    return read_jsonl(path, build)


def load_token_class(path) -> list[TokenClassExample]:
    """JSONL: {"tokens": [...], "labels": [int per token]}"""
    return read_jsonl(path, lambda obj, _: TokenClassExample(
        list_field(obj, "tokens"), int_list_field(obj, "labels")))


def load_pairs(path) -> list[PairExample]:
    """JSONL: {"first": [...], "second": [...], "label": 0 | 1}"""
    return read_jsonl(path, lambda obj, _: PairExample(
        list_field(obj, "first"), list_field(obj, "second"),
        int_field(obj, "label")))


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
