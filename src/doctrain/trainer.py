"""Pre-training: one loop shared by the document objective and the MLM
comparison arm, plus parameter-drift instrumentation."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint
from .corpus import Corpus
from .errors import ConfigError, NumericError, ValidationError
from .losses import hierarchical_loss_rows, triplet_loss
from .mining import Triplet
from .model import GROUPS, DocumentModel
from .optim import AdamW, ParamGroup, linear_lr
from .seeding import make_rng
from .taxonomy import HierarchyLabels
from .tensor import Tensor, backward
from .text import MASK_ID, encode_tokens, tokenize

log = logging.getLogger(__name__)

LOSS_MODES = ("triplet", "hier", "both")
MLM_MASK_RATE = 0.15


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    initial_lr: float = 5e-5
    epochs: int = 1
    max_triplets: int = 4000
    loss: str = "both"
    hier_negative: bool = True
    log_every: int = 10
    lora_rank: int = 0  # 0 trains the base encoder; > 0 trains adapters only
    lora_targets: tuple[str, ...] = ("query", "value")
    seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.batch_size < 1 or self.epochs < 1 or self.max_triplets < 1:
            raise ConfigError(f"bad sizes in {self}")
        if not 0 <= self.initial_lr < math.inf:
            raise ConfigError(
                f"initial_lr must be finite and >= 0, got {self.initial_lr}")
        if self.loss not in LOSS_MODES:
            raise ConfigError(f"loss must be one of {LOSS_MODES}, got {self.loss!r}")
        if self.log_every < 1:
            raise ConfigError("log_every must be >= 1")
        if self.lora_rank < 0:
            raise ConfigError(f"lora_rank must be >= 0, got {self.lora_rank}")
        return self


def _drift_record(step: int | str, group: str, pairs) -> dict:
    """One `.drift.jsonl` row: the relative L1 change of `group` from its
    `(now, reference)` arrays, summed in float64 in the order given. An
    all-zero reference reads 0 and sets `zero_reference`."""
    num = den = 0.0
    for now, ref in pairs:
        diff = np.subtract(now, ref, dtype=np.float64)
        num += float(np.abs(diff, out=diff).sum())
        den += float(np.abs(ref).sum(dtype=np.float64))
    return {"step": step, "group": group,
            "relative_l1_change": num / den if den else 0.0,
            "zero_reference": den == 0.0}


class _DriftTracker:
    """Drift rows of each parameter group against its start state; a frozen
    group cannot move, so its one row is computed up front."""

    def __init__(self, groups: list[ParamGroup]):
        self.groups = groups
        self.start = {g.name: [t.data.copy() for t in g.tensors]
                      for g in groups if not g.frozen}
        self.still = {g.name: _drift_record("final", g.name,
                                            [(t.data, t.data) for t in g.tensors])
                      for g in groups if g.frozen}
        self.rows: list[dict] = []

    def record(self, step: int | str) -> None:
        for g in self.groups:
            self.rows.append(
                {**self.still[g.name], "step": step} if g.frozen else _drift_record(
                    step, g.name, zip((t.data for t in g.tensors), self.start[g.name])))


@dataclass
class PretrainResult:
    checkpoint: Checkpoint
    drift: list[dict]  # `.drift.jsonl` rows; `step` is "final" at the end
    loss_curve: list[dict]
    total_steps: int


def total_step_count(n_items: int, batch_size: int, epochs: int) -> int:
    """Partial final batches still train, so steps = epochs * ceil(n/b)."""
    return epochs * math.ceil(n_items / batch_size)


def _train(groups: list[ParamGroup], n_items: int, config: TrainConfig,
           rng: np.random.Generator, step_loss
           ) -> tuple[list[dict], list[dict], int]:
    """The loop both objectives share: AdamW under the linear schedule.

    Each epoch shuffles the `n_items` training items with `rng`, and
    `step_loss(indices)` returns the scalar loss of one batch of them.
    """
    optimizer = AdamW(groups, lr=config.initial_lr)
    tracker = _DriftTracker(groups)
    total_steps = total_step_count(n_items, config.batch_size, config.epochs)
    loss_curve: list[dict] = []
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n_items)
        for lo in range(0, n_items, config.batch_size):
            loss = step_loss(order[lo:lo + config.batch_size])
            if not np.isfinite(loss.data).all():
                raise NumericError(f"non-finite loss at step {step}")
            backward(loss)
            lr = linear_lr(config.initial_lr, step, total_steps)
            optimizer.step(lr)
            optimizer.zero_grad()
            loss_curve.append({"step": step, "lr": lr,
                               "loss": float(loss.item())})
            step += 1
            if step % config.log_every == 0 and step < total_steps:
                tracker.record(step)
    tracker.record("final")
    return loss_curve, tracker.rows, total_steps


def pretrain(model: DocumentModel, corpus: Corpus, triplets: list[Triplet],
             labels: dict[str, HierarchyLabels] | None,
             config: TrainConfig) -> PretrainResult:
    """Train the upper encoder (and heads) on document triplets.

    The featurizer and the embedding table stay frozen. `labels` maps document
    id to padded hierarchy indices and is required unless loss == "triplet".
    """
    config.validate()
    if not triplets:
        raise ValidationError("no triplets to train on")
    use_triplet = config.loss in ("triplet", "both")
    use_hier = config.loss in ("hier", "both")
    if use_hier:
        if model.heads.depth == 0:
            raise ConfigError("hierarchy loss requested but the model has no "
                              "classification heads (empty level_sizes)")
        if labels is None:
            raise ValidationError("hierarchy loss requested but no labels given")
    for t in triplets:
        for doc_id in (t.anchor_id, t.positive_id, t.negative_id):
            if not corpus.has(doc_id):
                raise ValidationError(f"triplet references unknown document "
                                      f"{doc_id!r}")
            if use_hier and doc_id not in labels:
                raise ValidationError(f"no hierarchy labels for document "
                                      f"{doc_id!r}")
    if len(triplets) > config.max_triplets:
        log.info("capping %d triplets at max_triplets=%d",
                 len(triplets), config.max_triplets)
        triplets = triplets[:config.max_triplets]

    doc_ids = dict.fromkeys(doc_id for t in triplets for doc_id in
                            (t.anchor_id, t.positive_id, t.negative_id))
    docs = [list(corpus.get(doc_id).sentences) for doc_id in doc_ids]
    matrices = dict(zip(doc_ids, model.sentence_matrices(docs)))

    # embeddings never train during pre-training; adapters, when asked for,
    # replace base-weight training
    frozen = {"embed.token", "embed.position", "lora"}
    if config.lora_rank > 0:
        model.attach_adapter(config.lora_rank, config.lora_targets, config.seed)
        frozen = set(GROUPS) - {"heads"}
    if not use_hier:
        frozen.add("heads")
    groups = model.param_groups(frozen)
    depth = model.heads.depth
    hier_members = ["anchor_id", "positive_id"]
    if config.hier_negative:
        hier_members.append("negative_id")
    # encode only the documents an active loss reads
    encoded = (["anchor_id", "positive_id", "negative_id"] if use_triplet
               else hier_members)

    def step_loss(indices) -> Tensor:
        batch = [triplets[i] for i in indices]
        # one upper-encoder pass over the step's distinct documents; a
        # document may fill several slots, so rows are gathered with
        # T.embedding, whose backward adds repeated indices up
        slot: dict[str, int] = {}
        for t in batch:
            for m in encoded:
                slot.setdefault(getattr(t, m), len(slot))
        vecs = model.encode_matrices([matrices[d] for d in slot])

        def rows(members) -> Tensor:
            return T.embedding(vecs, [slot[getattr(t, m)]
                                      for t in batch for m in members])

        loss = None
        if use_triplet:
            loss = triplet_loss(rows(["anchor_id"]), rows(["positive_id"]),
                                rows(["negative_id"]))
        if use_hier:
            logits_per_level = model.heads.logits_matrix(rows(hier_members))
            targets_per_level = [
                np.array([labels[getattr(t, m)].indices[lv]
                          for t in batch for m in hier_members])
                for lv in range(depth)
            ]
            hier = hierarchical_loss_rows(logits_per_level,
                                          targets_per_level,
                                          num_sets=len(batch))
            loss = hier if loss is None else loss + hier
        return loss

    loss_curve, drift, total_steps = _train(
        groups, len(triplets), config,
        make_rng(config.seed, "pretrain-shuffle"), step_loss)

    ckpt = model.to_checkpoint(extra_meta={
        "objective": "doc",
        "train": {"loss": config.loss, "batch_size": config.batch_size,
                  "initial_lr": config.initial_lr, "epochs": config.epochs,
                  "seed": config.seed, "total_steps": total_steps,
                  "lora_rank": config.lora_rank,
                  "lora_targets": list(config.lora_targets)},
    })
    return PretrainResult(ckpt, drift, loss_curve, total_steps)


def pretrain_mlm(model: DocumentModel, corpus: Corpus,
                 config: TrainConfig) -> PretrainResult:
    """Masked-token comparison arm over the same upper encoder and schedule.

    Exists for the drift comparison: masks a fraction of token positions,
    scores them against the vocabulary through a separate output head, and
    trains with the identical optimizer and decay. It trains no adapter, so
    a config with `lora_rank` > 0 is refused.
    """
    config.validate()
    if config.lora_rank > 0:
        raise ConfigError("the mlm objective trains no LoRA adapters; "
                          f"lora_rank must be 0, got {config.lora_rank}")
    docs = list(corpus)
    if not docs:
        raise ValidationError("empty corpus")
    vocab = model.config.vocab_size
    sequences = [ids for ids in model.fit_positions(
        [encode_tokens(tokenize(" ".join(d.sentences)), vocab) for d in docs])
        if len(ids) >= 2]
    if not sequences:
        raise ValidationError("no document yields a 2+ token sequence")

    mlm_head_w, mlm_head_b = model.zero_head(vocab)
    groups = model.param_groups({"embed.token", "embed.position", "heads",
                                 "lora"})
    groups.append(ParamGroup("mlm_head", [mlm_head_w, mlm_head_b]))
    rng = make_rng(config.seed, "pretrain-mlm")

    def step_loss(indices) -> Tensor:
        seqs = []
        mask_rows = []
        target_rows = []
        for i in indices:
            ids = sequences[i]
            n_mask = max(1, int(round(MLM_MASK_RATE * len(ids))))
            # masks share the shuffling generator, so each epoch's draws
            # follow its permutation
            mask_pos = np.sort(rng.choice(len(ids), size=n_mask,
                                          replace=False))
            masked = list(ids)
            for pos in mask_pos:
                masked[pos] = MASK_ID
            seqs.append(masked)
            mask_rows.append(mask_pos)
            target_rows.append(np.array(ids)[mask_pos])
        # one padded pass; masked rows are gathered from the flat outputs
        out = model.encode_token_batch(seqs)
        b, s, d = out.shape
        picked = T.embedding(T.reshape(out, (b * s, d)), np.concatenate(
            [k * s + pos for k, pos in enumerate(mask_rows)]))
        logits = T.linear(picked, mlm_head_w, mlm_head_b)
        return T.cross_entropy_rows(logits, np.concatenate(target_rows),
                                    reduction="mean")

    loss_curve, drift, total_steps = _train(groups, len(sequences), config,
                                            rng, step_loss)

    ckpt = model.to_checkpoint(extra_meta={
        "objective": "mlm",
        "train": {"batch_size": config.batch_size,
                  "initial_lr": config.initial_lr, "epochs": config.epochs,
                  "seed": config.seed, "total_steps": total_steps},
    })
    return PretrainResult(ckpt, drift, loss_curve, total_steps)
