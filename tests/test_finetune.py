"""Fine-tuning: metric oracles, the epoch loop, and the three task heads.

Pinned metric values:
  - predicting only the majority class on a balanced binary set scores
    macro-F1 (2/3 + 0) / 2 == 1/3.
  - span overlap of (0,2) against (1,3) is 2 tokens of 3 each -> F1 == 2/3.
  - both sides unanswerable scores span F1 1.0 by definition.
"""

import hashlib
import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrain.checkpoint import checkpoint_bytes
from doctrain.encoder import ModelConfig
from doctrain.errors import ConfigError, ParseError, ValidationError
from doctrain.finetune import (FinetuneConfig, PairClassifierModel,
                               PairExample, SpanQaExample, SpanQaModel,
                               TokenClassExample, TokenTaggerModel, accuracy,
                               best_span, binary_f1, finetune, finetune_span_qa,
                               finetune_token_classification, load_pairs,
                               load_span_qa, load_token_class, macro_f1,
                               span_token_f1)
from doctrain import tensor as T
from doctrain.model import DocumentModel
from doctrain.tensor import Tensor, backward
from doctrain.trainer import TrainConfig, pretrain_mlm

from conftest import as_float64, separable_corpus, small_config

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def oracle_macro_f1(y_true, y_pred, num_classes):
    """Independent confusion-matrix implementation."""
    scores = []
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        if tp + fn == 0:
            continue
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn)
        scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(scores) / len(scores)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75
        with pytest.raises(ValidationError):
            accuracy([1], [1, 0])
        with pytest.raises(ValidationError):
            accuracy([], [])

    def test_majority_vote_on_balanced_binary_is_one_third(self):
        y_true = [0, 0, 1, 1]
        y_pred = [0, 0, 0, 0]
        assert macro_f1(y_true, y_pred, 2) == pytest.approx(1 / 3)

    def test_macro_f1_matches_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(2, 5))
            y_true = rng.integers(0, k, size=n).tolist()
            y_pred = rng.integers(0, k, size=n).tolist()
            got = macro_f1(y_true, y_pred, k)
            assert got == pytest.approx(
                oracle_macro_f1(y_true, y_pred, k), abs=1e-6)

    def test_unsupported_classes_are_skipped(self):
        # class 2 never appears in y_true, so it cannot drag the mean down
        assert macro_f1([0, 1], [0, 1], 3) == 1.0

    def test_no_supported_class_raises(self):
        with pytest.raises(ValidationError, match="support"):
            macro_f1([5, 5], [0, 0], 3)

    def test_binary_f1(self):
        # tp=2 fp=1 fn=1 -> P=2/3 R=2/3 -> F1=2/3
        assert binary_f1([1, 1, 1, 0, 0], [1, 1, 0, 1, 0]) == pytest.approx(2 / 3)
        assert binary_f1([1, 1], [0, 0]) == 0.0
        assert binary_f1([0, 0], [0, 0]) == 0.0  # no positives anywhere

    def test_span_token_f1_cases(self):
        assert span_token_f1(None, None) == 1.0
        assert span_token_f1(None, (0, 1)) == 0.0
        assert span_token_f1((0, 1), None) == 0.0
        assert span_token_f1((2, 4), (2, 4)) == 1.0
        assert span_token_f1((0, 1), (3, 4)) == 0.0
        assert span_token_f1((0, 2), (1, 3)) == pytest.approx(2 / 3)


class TestExampleValidation:
    def test_span_qa(self):
        SpanQaExample(("q",), ("a", "b"), (0, 1))
        SpanQaExample(("q",), ("a",), None)
        with pytest.raises(ValidationError):
            SpanQaExample((), ("a",), None)
        with pytest.raises(ValidationError):
            SpanQaExample(("q",), ("a", "b"), (1, 0))
        with pytest.raises(ValidationError):
            SpanQaExample(("q",), ("a", "b"), (0, 2))

    def test_token_class(self):
        TokenClassExample(("a", "b"), (0, 1))
        with pytest.raises(ValidationError):
            TokenClassExample((), ())
        with pytest.raises(ValidationError):
            TokenClassExample(("a", "b"), (0,))

    def test_pair(self):
        PairExample(("a",), ("b",), 1)
        with pytest.raises(ValidationError):
            PairExample((), ("b",), 0)
        with pytest.raises(ValidationError):
            PairExample(("a",), ("b",), 2)


class TestConfig:
    def test_defaults(self):
        cfg = FinetuneConfig().validate()
        assert cfg.lr == 3e-5
        assert cfg.epochs == 30
        assert cfg.patience == 5

    @pytest.mark.parametrize("overrides", [
        dict(lr=0.0), dict(epochs=0), dict(batch_size=0),
        dict(max_examples=0), dict(patience=0),
    ])
    def test_invalid(self, overrides):
        with pytest.raises(ConfigError):
            FinetuneConfig(**overrides).validate()


class TestLoaders:
    def test_span_qa_round_trip(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(
            json.dumps({"question": ["q"], "context": ["a", "b"],
                        "answer": [0, 1]}) + "\n"
            + json.dumps({"question": ["q"], "context": ["a"],
                          "answer": None}) + "\n")
        got = load_span_qa(path)
        assert got[0].answer == (0, 1)
        assert got[1].answer is None

    def test_token_class_and_pairs(self, tmp_path):
        tok = tmp_path / "tok.jsonl"
        tok.write_text(json.dumps({"tokens": ["a"], "labels": [0]}) + "\n")
        assert load_token_class(tok)[0].labels == (0,)
        pair = tmp_path / "p.jsonl"
        pair.write_text(json.dumps({"first": ["a"], "second": ["b"],
                                    "label": 1}) + "\n")
        assert load_pairs(pair)[0].label == 1

    def test_problems_aggregate_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n"
                        + json.dumps({"tokens": ["a"], "labels": [0]}) + "\n"
                        + json.dumps({"tokens": ["a"]}) + "\n"
                        + json.dumps({"tokens": ["a", "b"],
                                      "labels": [0]}) + "\n")
        with pytest.raises(ParseError) as exc:
            load_token_class(path)
        msg = str(exc.value)
        assert "line 1" in msg and "line 3" in msg and "line 4" in msg
        assert "line 2" not in msg


class _ScriptedTask:
    """Real tagging task with evaluation scores replaced by a script."""

    primary_metric = "score"

    def __init__(self, model, scores):
        self.inner = TokenTaggerModel(model, 2)
        self.model = model
        self.scores = list(scores)
        self.calls = 0
        self.head_at_eval = []

    def head_tensors(self):
        return self.inner.head_tensors()

    def batch_loss(self, batch):
        return self.inner.batch_loss(batch)

    def evaluate(self, dev):
        score = self.scores[self.calls]
        self.calls += 1
        self.head_at_eval.append(self.inner.w.data.copy())
        return {"score": score}


def tagging_examples(rng, count, length=5):
    pos = ["one", "two", "three", "four"]
    neg = ["alpha", "beta", "gamma", "delta"]
    out = []
    for _ in range(count):
        toks, labels = [], []
        for _ in range(length):
            if rng.random() < 0.5:
                toks.append(pos[rng.integers(len(pos))])
                labels.append(1)
            else:
                toks.append(neg[rng.integers(len(neg))])
                labels.append(0)
        out.append(TokenClassExample(tuple(toks), tuple(labels)))
    return out


class TestFinetuneLoop:
    def test_early_stop_restores_the_best_epoch(self, rng):
        model = DocumentModel(small_config())
        scores = [0.2, 0.9] + [0.5] * 30
        task = _ScriptedTask(model, scores)
        train = tagging_examples(rng, 6)
        result = finetune(task, train, train,
                          FinetuneConfig(lr=1e-3, epochs=30, patience=5))
        assert result.best_epoch == 1
        assert result.epochs_run == 7  # best at 1, then 5 stale epochs
        assert len(result.history) == 7
        assert result.metrics == {"score": 0.9}
        assert np.array_equal(task.inner.w.data, task.head_at_eval[1])

    def test_runs_all_epochs_when_improving(self, rng):
        model = DocumentModel(small_config())
        task = _ScriptedTask(model, [i / 100 for i in range(10)])
        train = tagging_examples(rng, 4)
        result = finetune(task, train, train,
                          FinetuneConfig(lr=1e-3, epochs=6, patience=5))
        assert result.epochs_run == 6
        assert result.best_epoch == 5

    def test_few_shot_budget_truncates_training(self, rng):
        model = DocumentModel(small_config())
        task = _ScriptedTask(model, [0.5])
        seen = []
        inner_loss = task.batch_loss
        task.batch_loss = lambda batch: seen.extend(batch) or inner_loss(batch)
        train = tagging_examples(rng, 10)
        finetune(task, train, train[:2],
                 FinetuneConfig(lr=1e-3, epochs=1, max_examples=3))
        assert len(seen) == 3
        assert set(map(id, seen)) <= set(map(id, train[:3]))

    def test_empty_sets_rejected(self, rng):
        model = DocumentModel(small_config())
        task = _ScriptedTask(model, [0.5])
        examples = tagging_examples(rng, 2)
        with pytest.raises(ValidationError):
            finetune(task, [], examples, FinetuneConfig())
        with pytest.raises(ValidationError):
            finetune(task, examples, [], FinetuneConfig())

    def test_lower_featurizer_and_pretrain_heads_stay_frozen(self, rng):
        model = DocumentModel(small_config(level_sizes=(3,)))
        model.heads.weights[0].data += 0.5  # pretend pre-training moved them
        lower_before = model.lower.state_bytes()
        heads_before = model.heads.weights[0].data.copy()
        train = tagging_examples(rng, 6)
        finetune_token_classification(
            model, train, train[:3], num_classes=2,
            config=FinetuneConfig(lr=1e-3, epochs=2))
        assert model.lower.state_bytes() == lower_before
        assert np.array_equal(model.heads.weights[0].data, heads_before)

    def test_attached_adapter_stays_put(self, rng):
        """An adapter is its own group, frozen outside a LoRA pre-training:
        it neither moves nor keeps a gradient."""
        model = DocumentModel(small_config())
        adapter = model.attach_adapter(2, ("query", "value"), seed=3)
        before = [t.data.tobytes() for t in adapter.trainable_tensors()]
        train = tagging_examples(rng, 6)
        finetune_token_classification(
            model, train, train[:3], num_classes=2,
            config=FinetuneConfig(lr=1e-3, epochs=2))
        assert [t.data.tobytes() for t in adapter.trainable_tensors()] == before
        assert all(t.grad is None for t in adapter.trainable_tensors())

    def test_trains_the_tables_an_earlier_phase_froze(self, rng):
        """Each phase sets what trains, so the MLM arm's frozen embedding
        tables train again when the same model object is fine-tuned."""
        model = DocumentModel(small_config())
        pretrain_mlm(model, separable_corpus(per_category=3),
                     TrainConfig(batch_size=4, initial_lr=1e-3))
        tables = [model.embed.token, model.embed.position]
        before = [t.data.copy() for t in tables]
        train = tagging_examples(rng, 6)
        finetune_token_classification(
            model, train, train[:3], num_classes=2,
            config=FinetuneConfig(lr=1e-3, epochs=2))
        for t, b in zip(tables, before):
            assert not np.array_equal(t.data, b)

    def test_history_rows_carry_epoch_and_metrics(self, rng):
        model = DocumentModel(small_config())
        train = tagging_examples(rng, 6)
        _, result = finetune_token_classification(
            model, train, train[:3], num_classes=2,
            config=FinetuneConfig(lr=1e-3, epochs=2, patience=5))
        assert [row["epoch"] for row in result.history] == [0, 1]
        assert all({"macro_f1", "accuracy"} <= set(row) for row in result.history)

    def test_pinned_tagging_run(self):
        """One fine-tuning run, bit for bit: patience ends it early and each
        epoch's last batch is short. Pins the result and the tuned
        checkpoint's bytes, task head included. A change that moves them on
        purpose updates them here and says so in CHANGES.md."""
        model = DocumentModel(ModelConfig(d_model=16, num_layers=1,
                                          num_heads=2, ffn_dim=32,
                                          vocab_size=512, lower_layers=1,
                                          seed=0))
        task, result = finetune_token_classification(
            model, load_token_class(os.path.join(FIXTURES,
                                                 "tagging_train.jsonl")),
            load_token_class(os.path.join(FIXTURES, "tagging_dev.jsonl")),
            num_classes=2, config=FinetuneConfig(lr=1e-3, epochs=20,
                                                 batch_size=3, patience=2))
        assert (result.epochs_run, result.best_epoch) == (5, 2)
        assert result.metrics["macro_f1"] == 1.0
        ckpt = model.to_checkpoint()
        for i, t in enumerate(task.head_tensors()):
            ckpt.tensors[f"task_head.{i}"] = t.data
        rows = json.dumps(asdict(result), sort_keys=True).encode()
        assert hashlib.sha256(rows).hexdigest() == (
            "fcc6a460c3bc128aaf966f6e8f2d52d36a36c4dd2d6ee012a2cc5902b745e057")
        assert hashlib.sha256(checkpoint_bytes(ckpt)).hexdigest() == (
            "eff86f7b4bbee87c454b9e5cfd5b28afb5fe2dd02a46bd863c25fd188a55cff2")


class TestTokenTagger:
    def test_learns_a_lexical_tagging_rule(self, rng):
        model = DocumentModel(small_config())
        train = tagging_examples(rng, 16)
        dev = tagging_examples(rng, 8)
        _, result = finetune_token_classification(
            model, train, dev, num_classes=2,
            config=FinetuneConfig(lr=3e-3, epochs=10, patience=10))
        assert result.metrics["macro_f1"] >= 0.8

    def test_label_range_enforced(self):
        model = DocumentModel(small_config())
        task = TokenTaggerModel(model, 2)
        with pytest.raises(ValidationError, match="2"):
            task.batch_loss([TokenClassExample(("a",), (2,))])

    def test_num_classes_validation(self):
        with pytest.raises(ConfigError):
            TokenTaggerModel(DocumentModel(small_config()), 1)

    def test_batched_evaluate_matches_each_example_alone(self, rng):
        """Dev evaluation runs equal-length examples together; every
        prediction is the one the taped path gives the example alone."""
        task = TokenTaggerModel(DocumentModel(small_config()), 5)
        task.w.data = rng.normal(size=task.w.shape).astype(np.float32)
        words = ["orbit", "ledger", "enzyme", "raster", "pivot", "mantle"]
        examples = [TokenClassExample(tuple(rng.choice(words, size=n)),
                                      tuple(rng.integers(5, size=n)))
                    for n in [40] * 14 + [3, 7, 3, 64, 7]]
        preds = task._predict(examples)
        for ex, pred in zip(examples, preds):
            out = task.model.encode_token_batch(task._seqs([ex]))
            rows = T.reshape(out, out.shape[1:])
            alone = T.linear(rows, task.w, task.b).data.argmax(axis=1).tolist()
            assert pred == alone == task.predict(ex)
        y_true = [c for ex in examples for c in ex.labels]
        y_pred = [c for pred in preds for c in pred]
        assert task.evaluate(examples) == {
            "macro_f1": macro_f1(y_true, y_pred, 5),
            "accuracy": accuracy(y_true, y_pred)}

    def test_evaluate_requires_examples(self):
        task = TokenTaggerModel(DocumentModel(small_config()), 2)
        with pytest.raises(ValidationError):
            task.evaluate([])

    def test_truncation_is_one_line_per_call(self, caplog):
        """Eight tag tokens train and predict on four, and say so."""
        task = TokenTaggerModel(DocumentModel(small_config(max_positions=4)),
                                2)
        batch = [TokenClassExample(tuple(f"t{i}" for i in range(n)),
                                   (1,) * n) for n in (8, 3, 5)]
        with caplog.at_level("WARNING", logger="doctrain.model"):
            task.batch_loss(batch)
            preds = task._predict(batch)
        assert [r.message for r in caplog.records] == [
            "truncated 2 of 3 sequences to max_positions=4"] * 2
        assert [len(p) for p in preds] == [4, 3, 4]


def pairwise_scan(s_log, e_log, offset, kept):
    """Every legal span in row-major (s, e) order; the first strictly best
    one wins, and it must beat the no-answer score at position 0."""
    best_score = s_log[0] + e_log[0]
    best = None
    for s in range(offset, offset + kept):
        for e in range(s, offset + kept):
            score = s_log[s] + e_log[e]
            if score > best_score:
                best_score = score
                best = (s - offset, e - offset)
    return best


class TestSpanQa:
    def needle_examples(self, rng, count):
        filler = ["lorem", "ipsum", "dolor", "sit", "amet"]
        out = []
        for _ in range(count):
            ctx = [filler[rng.integers(len(filler))] for _ in range(5)]
            pos = int(rng.integers(5))
            ctx[pos] = "needle"
            out.append(SpanQaExample(("find", "needle"), tuple(ctx),
                                     (pos, pos)))
        return out

    def test_zero_heads_predict_no_answer(self):
        task = SpanQaModel(DocumentModel(small_config()))
        ex = SpanQaExample(("q",), ("a", "b", "c"), None)
        assert task.predict(ex) is None
        metrics = task.evaluate([ex])
        assert metrics == {"exact_match": 1.0, "f1": 1.0}

    def test_joint_argmax_respects_span_order(self, monkeypatch):
        task = SpanQaModel(DocumentModel(small_config()))
        # [CLS] q [SEP] a b c: the context starts at position 3. Start
        # peaks after end's peak; the (5, 3) combo is illegal, so the best
        # legal pair is (3, 3) -> context span (0, 0)
        start = Tensor(np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 5.0]]))
        end = Tensor(np.array([[0.0, 0.0, 0.0, 6.0, 0.0, 0.0]]))
        monkeypatch.setattr(task, "_logits", lambda out, seqs: (start, end))
        got = task.predict(SpanQaExample(("q",), ("a", "b", "c"), None))
        assert got == (0, 0)

    def test_no_answer_baseline_wins_when_strongest(self, monkeypatch):
        task = SpanQaModel(DocumentModel(small_config()))
        start = Tensor(np.array([[10.0, 0.0, 0.0, 0.0, 0.0, 0.0]]))
        end = Tensor(np.array([[10.0, 0.0, 0.0, 1.0, 1.0, 1.0]]))
        monkeypatch.setattr(task, "_logits", lambda out, seqs: (start, end))
        assert task.predict(SpanQaExample(("q",), ("a", "b", "c"), None)) is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_best_span_matches_the_pairwise_scan_on_tied_sums(self, data):
        """Against the O(kept²) scan it replaced; integer-valued logits give
        many tied sums."""
        total = data.draw(st.integers(2, 12))
        offset = data.draw(st.integers(1, total - 1))
        kept = data.draw(st.integers(1, total - offset))
        s_log, e_log = (np.array(data.draw(st.lists(
            st.integers(-3, 3), min_size=total, max_size=total)),
            dtype=np.float32) for _ in range(2))
        assert (best_span(s_log, e_log, offset, kept)
                == pairwise_scan(s_log, e_log, offset, kept))

    def test_best_span_matches_the_pairwise_scan_on_rounded_sums(self):
        """float32 logits over many magnitudes give different sums that
        round equal, about once in 160 draws; a running maximum of the
        start logits breaks those ties unlike the scan."""
        rng = np.random.default_rng(0)
        for _ in range(5000):
            total = int(rng.integers(2, 13))
            offset = int(rng.integers(1, total))
            kept = int(rng.integers(1, total - offset + 1))
            s_log, e_log = ((rng.choice([-1.0, 1.0], total)
                             * 2.0 ** rng.uniform(-20, 20, total))
                            .astype(np.float32) for _ in range(2))
            assert (best_span(s_log, e_log, offset, kept)
                    == pairwise_scan(s_log, e_log, offset, kept))

    def test_question_crowding_out_context_rejected(self):
        task = SpanQaModel(DocumentModel(small_config(max_positions=6)))
        ex = SpanQaExample(("q1", "q2", "q3", "q4"), ("c",), None)
        with pytest.raises(ValidationError, match="room"):
            task.batch_loss([ex])

    def test_context_truncation_warns_and_falls_back(self, caplog):
        task = SpanQaModel(DocumentModel(small_config(max_positions=8)))
        ctx = tuple(f"t{i}" for i in range(10))
        ex = SpanQaExample(("q",), ctx, (9, 9))  # answer beyond the kept part
        with caplog.at_level("WARNING", logger="doctrain.finetune"):
            loss = task.batch_loss([ex])
        assert np.isfinite(loss.data).all()
        assert any("truncat" in r.message for r in caplog.records)

    def test_truncation_is_one_line_per_call(self, caplog):
        """One line for the contexts cut, one for the gold spans lost."""
        task = SpanQaModel(DocumentModel(small_config(max_positions=8)))
        ctx = tuple(f"t{i}" for i in range(10))
        batch = [SpanQaExample(("q",), ctx, (9, 9)),   # cut, span lost
                 SpanQaExample(("q",), ctx, (1, 2)),   # cut, span kept
                 SpanQaExample(("q",), ctx, None),     # cut, no answer
                 SpanQaExample(("q",), ctx[:3], (0, 0)),
                 SpanQaExample(("q",), ctx[:5], (4, 4))]
        with caplog.at_level("WARNING", logger="doctrain.finetune"):
            task.batch_loss(batch)
        assert [r.message for r in caplog.records] == [
            "truncated 3 of 5 contexts to fit 8 positions",
            "1 of 4 gold spans lost to truncation"]

    def test_batched_evaluate_matches_each_example_alone(self, rng, caplog):
        """Dev evaluation encodes the set once, with one truncation line,
        and runs equal-length examples together; every prediction is the
        one the taped path gives the example alone."""
        task = SpanQaModel(DocumentModel(small_config()))
        for t in task.head_tensors():
            t.data = rng.normal(size=t.shape).astype(np.float32)
        words = ["orbit", "ledger", "enzyme", "raster", "pivot", "mantle"]
        ctx = lambda n: tuple(rng.choice(words, size=n))
        examples = [SpanQaExample(("find", "it"), ctx(36), (1, 3))
                    for _ in range(14)]
        examples += [SpanQaExample(("q",), ctx(n), None)
                     for n in (3, 70, 5, 3, 80)]
        with caplog.at_level("WARNING", logger="doctrain.finetune"):
            preds = task._predict(examples)
        assert [r.message for r in caplog.records] == [
            "truncated 2 of 19 contexts to fit 64 positions"]
        for ex, pred in zip(examples, preds):
            seqs = task._seqs([ex])
            start, end = task._logits(task.model.encode_token_batch(seqs),
                                      seqs)
            offset = 2 + len(ex.question)
            alone = best_span(start.data[0], end.data[0], offset,
                              len(seqs[0]) - offset)
            assert pred == alone == task.predict(ex)
        assert len(set(preds)) > 2
        n = len(examples)
        assert task.evaluate(examples) == {
            "exact_match": sum(p == ex.answer
                               for p, ex in zip(preds, examples)) / n,
            "f1": sum(span_token_f1(p, ex.answer)
                      for p, ex in zip(preds, examples)) / n}

    def test_zero_heads_ragged_loss_is_mean_of_two_ln_lengths(self):
        """Each row's softmax covers only its own sequence, so a zero head
        scores ln(n_i) per head on a sequence of n_i tokens."""
        task = SpanQaModel(DocumentModel(small_config()))
        batch = [SpanQaExample(("q",), ("a", "b", "c", "d", "e", "f"), (1, 2)),
                 SpanQaExample(("q", "r"), ("a",), None),
                 SpanQaExample(("q",), ("a", "b", "c"), (2, 2))]
        lengths = np.array([2 + len(ex.question) + len(ex.context)
                            for ex in batch])
        assert task.batch_loss(batch).item() == np.mean(2 * np.log(lengths))

    def test_learns_to_find_the_needle(self, rng):
        model = DocumentModel(small_config())
        train = self.needle_examples(rng, 14)
        dev = self.needle_examples(rng, 6)
        _, result = finetune_span_qa(
            model, train, dev,
            FinetuneConfig(lr=3e-3, epochs=10, patience=10))
        assert result.metrics["f1"] >= 0.8


def _tagger_batch(model, rng):
    task = TokenTaggerModel(model, 2)
    return task, [tagging_examples(rng, 1, length=n)[0] for n in (5, 1, 3, 7)]


def _span_qa_batch(model, rng):
    task = SpanQaModel(model)
    words = ["lorem", "ipsum", "dolor", "sit", "amet"]
    ctx = lambda n: tuple(words[i] for i in rng.integers(len(words), size=n))
    return task, [SpanQaExample(("find",), ctx(5), (1, 3)),
                  SpanQaExample(("find", "it"), ctx(1), None),
                  SpanQaExample(("where",), ctx(3), (2, 2)),
                  SpanQaExample(("find", "the", "word"), ctx(7), (0, 6))]


def _pair_batch(model, rng):
    task = PairClassifierModel(model)
    return task, [PairExample(("alpha", "beta"), ("gamma",), 1),
                  PairExample(("one",), ("two",), 0),
                  PairExample(("a", "b", "c", "d"), ("e", "f", "g"), 1)]


@pytest.mark.parametrize("make", [_tagger_batch, _span_qa_batch, _pair_batch],
                         ids=["tagger", "span_qa", "pair"])
def test_ragged_batch_loss_is_the_mean_of_example_losses(make, rng):
    """One padded pass gives the mean of the one-example losses, and the
    same gradients, within 1e-12."""
    model = as_float64(DocumentModel(small_config()))
    task, batch = make(model, rng)
    for t in task.head_tensors():
        t.data = rng.normal(size=t.shape)
    tensors = task.head_tensors() + [
        model.embed.token, model.upper.layers[0].params["attention.query.weight"]]

    backward(task.batch_loss(batch))
    batched = [t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None
    losses = []
    for ex in batch:
        loss = task.batch_loss([ex]) * (1.0 / len(batch))
        losses.append(loss.item())
        backward(loss)
    assert task.batch_loss(batch).item() == pytest.approx(
        sum(losses), rel=0, abs=1e-12)
    for got, t in zip(batched, tensors):
        assert np.allclose(got, t.grad, rtol=0, atol=1e-12)


class TestPairClassifier:
    def test_mechanics(self, rng):
        model = DocumentModel(small_config())
        task = PairClassifierModel(model)
        ex = PairExample(("alpha", "beta"), ("alpha", "beta"), 1)
        assert np.isfinite(task.batch_loss([ex]).data).all()
        assert task.predict(ex) in (0, 1)
        metrics = task.evaluate([ex, PairExample(("x",), ("y",), 0)])
        assert set(metrics) == {"accuracy", "f1"}

    def test_batched_evaluate_matches_each_example_alone(self, rng):
        """Equal-length pairs run together; every prediction is the one the
        taped path gives the example alone."""
        task = PairClassifierModel(DocumentModel(small_config()))
        task.w.data = rng.normal(size=task.w.shape).astype(np.float32)
        words = ["orbit", "ledger", "enzyme", "raster", "pivot", "mantle"]
        seg = lambda n: tuple(rng.choice(words, size=n))
        examples = [PairExample(seg(20), seg(18), int(rng.integers(2)))
                    for _ in range(30)]
        examples += [PairExample(seg(n), seg(2), 1) for n in (1, 40, 1, 3)]
        alone = lambda ex: task._logits(
            task.model.encode_token_batch(task._seqs([ex]))).data[0]
        # a bias at the median margin splits the predictions between classes
        margins = [np.subtract(*alone(ex)) for ex in examples]
        task.b.data = np.array([0.0, np.median(margins)], np.float32)
        preds = task._predict(examples)
        for ex, pred in zip(examples, preds):
            assert pred == int(alone(ex).argmax()) == task.predict(ex)
        assert set(preds) == {0, 1}
        y_true = [ex.label for ex in examples]
        assert task.evaluate(examples) == {
            "accuracy": accuracy(y_true, preds),
            "f1": binary_f1(y_true, preds)}

    def test_truncation_is_one_line_per_call(self, caplog):
        task = PairClassifierModel(DocumentModel(small_config(max_positions=4)))
        batch = [PairExample(("a", "b"), ("c", "d"), 1),  # 6 ids, cut
                 PairExample(("a",), ("b",), 0)]           # 4 ids, kept
        with caplog.at_level("WARNING", logger="doctrain.model"):
            task.batch_loss(batch)
            task.evaluate(batch)
        assert [r.message for r in caplog.records] == [
            "truncated 1 of 2 sequences to max_positions=4"] * 2

    def test_first_position_drives_the_decision(self):
        model = DocumentModel(small_config())
        task = PairClassifierModel(model)
        task.w.data = np.zeros(task.w.shape)
        task.b.data = np.array([0.0, 1.0])
        # zero weight makes the bias decide: always class 1
        assert task.predict(PairExample(("a",), ("b",), 0)) == 1
