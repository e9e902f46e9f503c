"""Pre-training loop behavior: freeze contracts, schedules, drift, arms."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from doctrain import tensor as T
from doctrain import trainer
from doctrain.checkpoint import checkpoint_bytes
from doctrain.corpus import Corpus, load_corpus
from doctrain.encoder import ModelConfig, UpperEncoder
from doctrain.errors import ConfigError, ValidationError
from doctrain.losses import hierarchical_loss_rows, triplet_loss
from doctrain.mining import mine_triplets_metadata
from doctrain.model import DocumentModel, group_of
from doctrain.optim import linear_lr
from doctrain.taxonomy import Taxonomy, pad_hierarchy
from doctrain.trainer import (DriftRecord, DriftReport, TrainConfig,
                              pretrain, pretrain_mlm, total_step_count,
                              track_drift)

from doctrain.tensor import Tensor, no_grad

from conftest import (as_float64, make_document, separable_corpus,
                      small_config, triplets_for)

TAXONOMY = Taxonomy.from_paths([("astro",), ("law",), ("bio",)])


def labels_for(corpus):
    return {d.id: pad_hierarchy(d.hierarchy_path, TAXONOMY) for d in corpus}


def fresh_model(**overrides):
    overrides.setdefault("level_sizes", TAXONOMY.level_sizes)
    return DocumentModel(small_config(**overrides))


def tape(loss) -> list[Tensor]:
    """Every tensor reachable from `loss` over the recorded graph."""
    seen, stack, out = {id(loss)}, [loss], []
    while stack:
        node = stack.pop()
        out.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return out


def tape_nodes(loss) -> int:
    """Recorded operations reachable from `loss`."""
    return sum(node._backward is not None for node in tape(loss))


def quick_config(**overrides):
    base = dict(batch_size=4, initial_lr=1e-3, epochs=1, log_every=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestStepCount:
    def test_partial_batches_train(self):
        assert total_step_count(2000, 32, 1) == 63  # ceil, not floor
        assert total_step_count(2000, 32, 2) == 126
        assert total_step_count(64, 32, 1) == 2
        assert total_step_count(1, 32, 1) == 1

    def test_matches_math_ceil(self):
        for n in (1, 31, 32, 33, 100):
            assert total_step_count(n, 32, 1) == math.ceil(n / 32)


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    @pytest.mark.parametrize("overrides", [
        dict(batch_size=0), dict(epochs=0), dict(max_triplets=0),
        dict(initial_lr=-1.0), dict(loss="contrastive"),
        dict(loss="mlm"), dict(batch_size=-1),
        dict(log_every=0), dict(lora_rank=-1),
    ])
    def test_invalid(self, overrides):
        with pytest.raises(ConfigError):
            TrainConfig(**overrides).validate()


class TestPretrain:
    def run(self, loss="both", triplet_count=12, config=None, model=None,
            corpus=None):
        corpus = corpus or separable_corpus(per_category=4)
        model = model or fresh_model()
        triplets = triplets_for(corpus, triplet_count)
        labels = None if loss == "triplet" else labels_for(corpus)
        result = pretrain(model, corpus, triplets,
                          labels, config or quick_config(loss=loss))
        return model, result

    def test_sentence_truncation_is_one_summary_line(self, caplog):
        rng = np.random.default_rng(2)
        corpus = Corpus(documents=[
            make_document(f"{c}{i}", c, rng, hierarchy=(c,),
                          num_sentences=1 + i)
            for c in ("astro", "law") for i in range(4)],
            domain_mode="customer_support")
        with caplog.at_level("WARNING", logger="doctrain.model"):
            self.run(corpus=corpus, model=fresh_model(max_sentences=2))
        used = {d for t in triplets_for(corpus, 12)
                for d in (t.anchor_id, t.positive_id, t.negative_id)}
        cut = sum(len(corpus.get(d).sentences) > 2 for d in used)
        assert 0 < cut < len(used)
        assert [r.message for r in caplog.records] == [
            f"truncated {cut} of {len(used)} documents to max_sentences=2"]

    def test_frozen_groups_never_move(self):
        _, result = self.run()
        final = {r.group: r for r in result.drift.records
                 if r.step is None}
        for name in ("lower", "embed.token", "embed.position"):
            assert final[name].value == 0.0, name

    def test_trainable_groups_do_move(self):
        model, result = self.run()
        final = {r.group: r for r in result.drift.records
                 if r.step is None}
        for name in ("upper.attention.query", "upper.ffn"):
            assert final[name].value > 0.0, name
        # heads drift reads 0 against the zero reference; confirm movement
        # on the raw tensor instead
        assert not np.array_equal(model.heads.weights[0].data,
                                  np.zeros(model.heads.weights[0].shape))

    def test_lower_bytes_are_bit_identical(self):
        model = fresh_model()
        before = model.lower.state_bytes()
        pretrain(model, separable_corpus(per_category=4),
                 triplets_for(separable_corpus(per_category=4), 8),
                 labels_for(separable_corpus(per_category=4)), quick_config())
        assert model.lower.state_bytes() == before

    def test_zero_init_heads_flag_zero_reference(self):
        _, result = self.run()
        drift_zero_ref = {r.group: r.zero_reference
                          for r in result.drift.records if r.step is None}
        assert drift_zero_ref["heads"] is True
        assert drift_zero_ref["upper.ffn"] is False

    def test_triplet_only_leaves_heads_untouched(self):
        model, result = self.run(loss="triplet")
        final = {r.group: r for r in result.drift.records
                 if r.step is None}
        assert final["heads"].value == 0.0
        for w in model.heads.weights:
            assert np.array_equal(w.data, np.zeros(w.shape))

    def test_hier_only_runs_and_moves_heads(self):
        model, result = self.run(loss="hier")
        final = {r.group: r for r in result.drift.records
                 if r.step is None}
        assert final["heads"].zero_reference is True
        assert np.abs(model.heads.weights[0].data).sum() > 0.0

    def test_loss_curve_follows_linear_schedule(self):
        _, result = self.run(triplet_count=10)
        assert len(result.loss_curve) == result.total_steps == 3  # ceil(10/4)
        for row in result.loss_curve:
            assert row["lr"] == linear_lr(1e-3, row["step"], 3)
        assert result.loss_curve[-1]["lr"] == 0.0

    def test_one_encoder_pass_and_a_fixed_tape_per_step(self, monkeypatch):
        """Each step encodes its documents in one padded upper-encoder pass,
        so the tape a step builds has as many nodes at batch 16 as at 4."""
        rng = np.random.default_rng(5)
        corpus = Corpus(documents=[
            make_document(f"{c}{i}", c, rng, hierarchy=(c,),
                          num_sentences=int(rng.integers(1, 6)))
            for c in ("astro", "law", "bio") for i in range(6)],
            domain_mode="customer_support")
        nodes, forwards = [], []
        real_backward, real_forward = trainer.backward, UpperEncoder.forward
        monkeypatch.setattr(trainer, "backward", lambda loss: (
            nodes.append(tape_nodes(loss)), real_backward(loss))[1])
        monkeypatch.setattr(UpperEncoder, "forward", lambda *a, **k: (
            forwards.append(1), real_forward(*a, **k))[1])
        for batch in (4, 16):
            pretrain(fresh_model(), corpus, triplets_for(corpus, 16),
                     labels_for(corpus), quick_config(batch_size=batch))
        assert len(nodes) == len(forwards) == 4 + 1
        assert len(set(nodes)) == 1

    def test_batched_step_matches_per_document_reference(self, monkeypatch):
        """The step's loss and gradients equal those of encoding each
        document on its own, including documents that fill several slots."""
        corpus = separable_corpus(per_category=3)
        triplets = triplets_for(corpus, 10)
        labels = labels_for(corpus)

        def model_with_heads():
            # nonzero heads, so every hierarchy row sends gradient back
            m = as_float64(fresh_model())
            w = m.heads.weights[0]
            w.data = np.random.default_rng(1).normal(size=w.shape)
            return m

        model, grads = model_with_heads(), {}
        real_backward = trainer.backward

        def spy(loss):
            real_backward(loss)
            grads["loss"] = loss.item()
            grads.update({k: t.grad.copy()
                          for k, t in model.upper.named_params().items()})

        monkeypatch.setattr(trainer, "backward", spy)
        pretrain(model, corpus, triplets, labels,
                 quick_config(batch_size=len(triplets)))

        # reference: each document encoded alone as a [1, d] row; the batched
        # losses are sums over triplets and documents scaled by 1/B
        ref = model_with_heads()
        vec = lambda doc_id: ref.encode_matrices(
            [ref.embed_sentences(list(corpus.get(doc_id).sentences))])
        members = ("anchor_id", "positive_id", "negative_id")
        loss = None
        for t in triplets:
            a, p, n = (vec(getattr(t, m)) for m in members)
            parts = [triplet_loss(a, p, n)]
            for v, m in zip((a, p, n), members):
                target = np.array([labels[getattr(t, m)].indices[0]])
                parts.append(hierarchical_loss_rows(
                    ref.heads.logits_matrix(v), [target], num_sets=1))
            for part in parts:
                loss = part if loss is None else loss + part
        loss = loss * (1.0 / len(triplets))
        T.backward(loss)
        assert loss.item() == pytest.approx(grads["loss"], rel=0, abs=1e-12)
        for k, t in ref.upper.named_params().items():
            assert np.allclose(grads[k], t.grad, rtol=0, atol=1e-12), k

    def test_loss_decreases_on_separable_data(self):
        corpus = separable_corpus(per_category=5)
        model = fresh_model()
        config = quick_config(batch_size=8, initial_lr=2e-3, epochs=6)
        _, result = self.run(config=config, model=model, corpus=corpus,
                             triplet_count=24)
        curve = [row["loss"] for row in result.loss_curve]
        first = np.mean(curve[:3])
        last = np.mean(curve[-3:])
        assert last < first

    def test_dangling_triplet_rejected_before_any_update(self):
        corpus = separable_corpus(per_category=4)
        model = fresh_model()
        before = checkpoint_bytes(model.to_checkpoint())
        bad = triplets_for(corpus, 4)
        bad[2] = type(bad[2])("astro0", "ghost", "law0")
        with pytest.raises(ValidationError, match="ghost"):
            pretrain(model, corpus, bad, labels_for(corpus), quick_config())
        assert checkpoint_bytes(model.to_checkpoint()) == before

    def test_missing_labels_rejected(self):
        corpus = separable_corpus(per_category=4)
        with pytest.raises(ValidationError, match="labels"):
            pretrain(fresh_model(), corpus, triplets_for(corpus, 4), None,
                     quick_config(loss="both"))
        partial = labels_for(corpus)
        partial.pop("astro0")
        with pytest.raises(ValidationError, match="astro0"):
            pretrain(fresh_model(), corpus, triplets_for(corpus, 20), partial,
                     quick_config(loss="both"))

    def test_headless_model_cannot_take_hier_loss(self):
        corpus = separable_corpus(per_category=4)
        model = DocumentModel(small_config(level_sizes=()))
        with pytest.raises(ConfigError, match="heads"):
            pretrain(model, corpus, triplets_for(corpus, 4),
                     labels_for(corpus), quick_config(loss="both"))

    def test_empty_triplets_rejected(self):
        corpus = separable_corpus(per_category=4)
        with pytest.raises(ValidationError):
            pretrain(fresh_model(), corpus, [], labels_for(corpus),
                     quick_config())

    def test_max_triplets_caps_the_run(self):
        _, result = self.run(triplet_count=10,
                             config=quick_config(max_triplets=4))
        assert result.total_steps == 1  # ceil(4/4)

    def test_drift_cadence_and_final_records(self):
        _, result = self.run(triplet_count=12)  # 3 steps at batch 4
        steps = sorted({r.step for r in result.drift.records
                        if r.step is not None})
        assert steps == [2]  # log_every=2, final step excluded (it is None)
        finals = {r.group: r for r in result.drift.records
                  if r.step is None}
        group_names = {r.group for r in result.drift.records}
        assert set(finals) == group_names

    def test_reruns_are_byte_identical(self):
        def one():
            corpus = separable_corpus(per_category=4)
            model = fresh_model()
            result = pretrain(model, corpus, triplets_for(corpus, 8),
                              labels_for(corpus), quick_config())
            return checkpoint_bytes(result.checkpoint)
        assert one() == one()

    def test_hier_negative_flag_changes_training(self):
        def final_heads(hier_negative):
            corpus = separable_corpus(per_category=4)
            model = fresh_model()
            result = pretrain(model, corpus, triplets_for(corpus, 8),
                              labels_for(corpus),
                              quick_config(hier_negative=hier_negative))
            return result.checkpoint.tensors["heads.0.weight"]
        assert not np.array_equal(final_heads(True), final_heads(False))

    def test_checkpoint_meta_records_the_run(self):
        _, result = self.run(triplet_count=8)
        meta = result.checkpoint.meta
        assert meta["objective"] == "doc"
        assert meta["train"]["total_steps"] == result.total_steps
        assert meta["train"]["loss"] == "both"


class TestPretrainMlm:
    def test_initial_loss_is_exactly_ln_vocab(self):
        """Zero-initialized output head scores every token uniformly."""
        corpus = separable_corpus(per_category=3)
        model = fresh_model()
        result = pretrain_mlm(model, corpus, quick_config())
        assert result.loss_curve[0]["loss"] == pytest.approx(
            math.log(model.config.vocab_size), abs=1e-12)

    def test_freeze_contract(self):
        corpus = separable_corpus(per_category=3)
        model = fresh_model()
        result = pretrain_mlm(model, corpus, quick_config(epochs=2))
        final = {r.group: r for r in result.drift.records
                 if r.step is None}
        assert final["embed.token"].value == 0.0
        assert final["embed.position"].value == 0.0
        assert final["heads"].value == 0.0
        assert final["lower"].value == 0.0
        assert final["upper.ffn"].value > 0.0

    def test_mlm_head_group_present_and_zero_referenced(self):
        corpus = separable_corpus(per_category=3)
        result = pretrain_mlm(fresh_model(), corpus, quick_config())
        final = {r.group: r for r in result.drift.records
                 if r.step is None}
        head = final["mlm_head"]
        assert head.zero_reference is True

    def test_step_gathers_each_sequence_masked_rows(self, monkeypatch, rng):
        """A ragged step's head gradient equals the one built from the
        masked rows of per-sequence passes, within 1e-12."""
        from doctrain.text import MASK_ID, encode_tokens, tokenize
        docs = [make_document(f"d{n}", "astro", rng, num_sentences=n)
                for n in (1, 3, 2)]
        corpus = Corpus(documents=docs, domain_mode="customer_support")
        model, seen = as_float64(fresh_model()), {}
        encode = model.encode_token_batch

        def spy(seqs):
            seen.setdefault("seqs", [list(q) for q in seqs])
            return encode(seqs)

        class Recording(trainer.AdamW):
            def step(self, lr=None):
                head = next(g for g in self.groups if g.name == "mlm_head")
                seen.setdefault("grad", head.tensors[0].grad.copy())
                super().step(lr)

        monkeypatch.setattr(model, "encode_token_batch", spy)
        monkeypatch.setattr(trainer, "AdamW", Recording)
        pretrain_mlm(model, corpus, quick_config(batch_size=len(docs)))

        ref = as_float64(fresh_model())
        vocab = ref.config.vocab_size
        originals = {len(ids): ids for ids in (
            encode_tokens(tokenize(" ".join(d.sentences)), vocab)
            for d in docs)}
        assert len(originals) == len(docs)  # lengths identify sequences
        rows, targets = [], []
        for masked in seen["seqs"]:
            pos = [i for i, t in enumerate(masked) if t == MASK_ID]
            rows.append(ref.encode_token_batch([masked]).data[0][pos])
            targets.extend(originals[len(masked)][i] for i in pos)
        w = Tensor(np.zeros((ref.config.d_model, vocab)), requires_grad=True)
        T.backward(T.cross_entropy_rows(
            T.matmul(Tensor(np.concatenate(rows)), w), targets, "mean"))
        assert np.allclose(seen["grad"], w.grad, rtol=0, atol=1e-12)

    def test_frozen_tables_stay_off_the_tape(self, monkeypatch):
        """The frozen embedding tables require no grad, so a step neither
        tapes their lookups nor stages a table-sized gradient for them."""
        model = fresh_model()
        tables = {id(model.embed.token), id(model.embed.position)}
        seen = []
        real_backward = trainer.backward

        def spy(loss):
            real_backward(loss)
            seen.append((bool(tables & {id(t) for t in tape(loss)}),
                         model.embed.token.grad is None,
                         model.embed.position.grad is None))

        monkeypatch.setattr(trainer, "backward", spy)
        pretrain_mlm(model, separable_corpus(per_category=3),
                     quick_config(batch_size=64))
        assert seen == [(False, True, True)]

    def test_short_documents_rejected(self):
        from doctrain.corpus import Corpus, Document
        corpus = Corpus([Document(id="a", sentences=("word",))], "derived")
        with pytest.raises(ValidationError, match="2"):
            pretrain_mlm(fresh_model(), corpus, quick_config())

    def test_empty_corpus_rejected(self):
        from doctrain.corpus import Corpus
        with pytest.raises(ValidationError):
            pretrain_mlm(fresh_model(), Corpus([], "derived"), quick_config())

    def test_deterministic(self):
        def one():
            result = pretrain_mlm(fresh_model(),
                                  separable_corpus(per_category=3),
                                  quick_config())
            return checkpoint_bytes(result.checkpoint)
        assert one() == one()


class TestTrackDrift:
    def test_identical_checkpoints_have_zero_drift(self):
        model = fresh_model()
        report = track_drift(model.to_checkpoint(), model.to_checkpoint())
        assert all(r.value == 0.0 for r in report.records)

    def test_uniform_scaling_gives_exact_relative_change(self):
        model = fresh_model()
        before = model.to_checkpoint()
        after = model.to_checkpoint()
        after.tensors = dict(after.tensors)
        for name in after.tensors:
            if name.startswith("embed.token"):
                after.tensors[name] = after.tensors[name] * np.float32(1.01)
        by_group = {r.group: r for r in track_drift(before, after).records}
        # |1.01 x - x| / |x| == 0.01 regardless of the values
        assert by_group["embed.token"].value == pytest.approx(0.01, rel=1e-5)
        assert by_group["upper.ffn"].value == 0.0

    def test_zero_reference_groups_are_flagged(self):
        model = fresh_model()  # heads start at zero
        report = track_drift(model.to_checkpoint(), model.to_checkpoint())
        by_group = {r.group: r for r in report.records}
        assert by_group["heads"].zero_reference is True

    def test_mismatched_tensor_sets_rejected(self):
        model = fresh_model()
        a = model.to_checkpoint()
        b = model.to_checkpoint()
        b.tensors = dict(b.tensors)
        del b.tensors["embed.token"]
        with pytest.raises(ValidationError, match="different"):
            track_drift(a, b)

    def test_changed_shape_rejected(self):
        model = fresh_model()
        a = model.to_checkpoint()
        b = model.to_checkpoint()
        b.tensors = dict(b.tensors)
        b.tensors["embed.token"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValidationError, match="shape"):
            track_drift(a, b)

    def test_in_loop_tracker_keeps_no_copy_of_a_frozen_group(self):
        model = fresh_model()
        groups = model.param_groups({"embed.token", "embed.position"})
        tracker = trainer._DriftTracker(groups)
        frozen = {g.name for g in groups if g.frozen}
        assert frozen == {"lower", "embed.token", "embed.position"}
        assert frozen.isdisjoint(tracker.start)
        model.embed.token.data[0, 0] += 1.0  # a frozen group is never read again
        tracker.record(3)
        rows = {r.group: r for r in tracker.report.records}
        assert all(rows[name] == DriftRecord(3, name, 0.0) for name in frozen)
        assert rows["heads"] == DriftRecord(3, "heads", 0.0, zero_reference=True)

    def test_agrees_with_in_loop_tracker(self):
        corpus = separable_corpus(per_category=4)
        model = fresh_model()
        before = model.to_checkpoint()
        result = pretrain(model, corpus, triplets_for(corpus, 8),
                          labels_for(corpus), quick_config())
        offline = {r.group: r.value
                   for r in track_drift(before, result.checkpoint).records}
        final = {r.group: r for r in result.drift.records
                 if r.step is None}
        for group, rec in final.items():
            if group in offline:  # offline sees checkpoint groups only
                assert offline[group] == pytest.approx(rec.value, abs=1e-9)


class TestLoraArm:
    def run_lora(self, **config_overrides):
        corpus = separable_corpus(per_category=4)
        model = fresh_model()
        config = quick_config(lora_rank=2, **config_overrides)
        result = pretrain(model, corpus, triplets_for(corpus, 8),
                          labels_for(corpus), config)
        return model, result

    def test_base_groups_frozen_adapters_move(self):
        _, result = self.run_lora()
        final = {r.group: r for r in result.drift.records
                 if r.step is None}
        for name in ("upper.attention.query", "upper.attention.value",
                     "upper.ffn", "upper.layer_norm", "embed.token", "lower"):
            assert final[name].value == 0.0, name
        assert "lora" in final
        assert final["lora"].zero_reference is False  # A factors are random

    def test_one_step_stages_no_base_gradient(self, monkeypatch):
        """Only the adapters and the heads require grad, so the frozen base
        weights get no gradient."""
        corpus = separable_corpus(per_category=4)
        model = fresh_model()
        seen = []
        real_backward = trainer.backward

        def spy(loss):
            real_backward(loss)
            seen.append(({group_of(name) for name, t
                          in model.named_params().items()
                          if t.grad is not None},
                         all(t.grad is not None
                             for t in model.adapter.trainable_tensors())))

        monkeypatch.setattr(trainer, "backward", spy)
        pretrain(model, corpus, triplets_for(corpus, 4), labels_for(corpus),
                 quick_config(lora_rank=2))
        assert seen == [({"heads"}, True)]

    def test_heads_still_train_under_hier_loss(self):
        model, _ = self.run_lora()
        assert np.abs(model.heads.weights[0].data).sum() > 0.0

    def test_first_step_loss_matches_base_run(self):
        """Fresh adapters are a no-op, so step 0 sees the identical loss."""
        corpus = separable_corpus(per_category=4)
        triplets = triplets_for(corpus, 8)
        base = pretrain(fresh_model(), corpus, triplets, labels_for(corpus),
                        quick_config())
        lora = pretrain(fresh_model(), corpus, triplets, labels_for(corpus),
                        quick_config(lora_rank=2))
        assert lora.loss_curve[0]["loss"] == base.loss_curve[0]["loss"]

    def test_checkpoint_carries_the_trained_adapters(self):
        """Adapters are merged into the saved weights, so the reloaded model
        computes what the live adapted model computes on both input paths,
        up to float32 rounding of the merged weights; both compute in
        float64, so that rounding is the only difference."""
        model, result = self.run_lora(initial_lr=1e-2, epochs=3,
                                      lora_targets=("query", "value", "ffn"))
        as_float64(model)
        reloaded = as_float64(DocumentModel.from_checkpoint(result.checkpoint))
        matrix = model.embed_sentences(["Stellar quasar orbit.",
                                        "Contract clause appeal."])
        ids = [5, 17, 42, 9]
        with no_grad():
            live = [model.encode_matrices([matrix]).data,
                    model.encode_token_batch([ids]).data]
            got = [reloaded.encode_matrices([matrix]).data,
                   reloaded.encode_token_batch([ids]).data]
            model.adapter = None
            base = [model.encode_matrices([matrix]).data,
                    model.encode_token_batch([ids]).data]
        for want, have, unadapted in zip(live, got, base):
            assert np.allclose(have, want, rtol=0, atol=1e-7)
            assert np.abs(unadapted - want).max() > 1e-4

    def test_checkpoint_stores_base_tensors_only(self):
        model, result = self.run_lora()
        base_names = set(DocumentModel(model.config).named_params())
        assert set(result.checkpoint.tensors) == base_names
        assert result.checkpoint.meta["train"]["lora_rank"] == 2


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pinned_model(**overrides):
    return DocumentModel(ModelConfig(d_model=16, num_layers=1, num_heads=2,
                                     ffn_dim=32, vocab_size=512,
                                     lower_layers=1, seed=0, **overrides))


class TestPinnedLoops:
    """Both pre-training loops, bit for bit.

    MLM and LoRA pre-training run in no benchmark workload, so these runs pin
    every loss-curve row, every drift row and the checkpoint bytes of a fixed
    fixture run. A change that moves these numbers on purpose updates them
    here and says so in CHANGES.md.
    """

    CONFIG = dict(batch_size=4, epochs=2, log_every=1, initial_lr=1e-3,
                  seed=0)

    def check(self, result, steps, last_loss, rows_digest, ckpt_digest):
        assert result.total_steps == len(result.loss_curve) == steps
        assert result.loss_curve[-1]["loss"] == last_loss
        rows = json.dumps([result.loss_curve, result.drift.rows()],
                          sort_keys=True)
        assert _digest(rows.encode()) == rows_digest
        assert _digest(checkpoint_bytes(result.checkpoint)) == ckpt_digest

    @pytest.mark.parametrize("lora_rank, last_loss, rows_digest, ckpt_digest", [
        (0, 10.403170122643989,
         "f84f0ebea8bd22cec664e2db40028f84cd1a523691d8b59c8744e02b6765cf2c",
         "2569db8b9eb6e41c5e3376d41a8cc21c92a6c3d80aabb3de4b2b5d4f3e9e349f"),
        (2, 10.41154769499755,
         "ee0ba8c6ee3e7da4047e13be9cbcbf218cffa71c395aa8e2d5047f778ec7ad94",
         "50de5f1e9a5a097b45c1b5a247a218aa4d56a37c489d78128718b75eaa05f8da"),
    ], ids=["base", "lora"])
    def test_doc_objective(self, lora_rank, last_loss, rows_digest,
                           ckpt_digest):
        corpus = load_corpus(os.path.join(FIXTURES, "sample_corpus.jsonl"),
                             "customer_support")
        tax = Taxonomy.load(os.path.join(FIXTURES, "support_taxonomy.txt"))
        labels = {d.id: pad_hierarchy(d.hierarchy_path, tax) for d in corpus}
        result = pretrain(_pinned_model(level_sizes=tax.level_sizes), corpus,
                          mine_triplets_metadata(corpus, 12, seed=0), labels,
                          TrainConfig(lora_rank=lora_rank, **self.CONFIG))
        self.check(result, 6, last_loss, rows_digest, ckpt_digest)

    def test_mlm_arm(self):
        corpus = load_corpus(os.path.join(FIXTURES, "sample_corpus.jsonl"),
                             "derived")
        result = pretrain_mlm(_pinned_model(max_positions=64), corpus,
                              TrainConfig(**self.CONFIG))
        self.check(
            result, 14, 6.112903390737752,
            "1a0c9399b26e86a46cf23bac9a67140024511932fd81ea6df3a6515e3000de2b",
            "0b86e2a8a163920dc24773bda68924541785fb28d701599c98a9bcf1da685d6d")
