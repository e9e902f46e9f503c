"""The benchmark's hooks into doctrain, checked within the tier-1 suite.

`testpaths` also runs the benchmark's own tests (`benchmarks/tests`). These
pin the ways the benchmark reaches into the package: its tracer replaces
module bindings by name and counts the parameters each optimizer step
updates, and the `finetune_tokens` workload records each step's loss by
replacing `finetune.backward`. The tracer's `tensor.backward` spans (and so
`tensor.tape_nodes_per_step`) come from replacing `trainer.backward` and
`finetune.backward`, so pre-training and fine-tuning each hand their own
module's `backward` binding to `optim.train_steps`, once per step.
"""

import os
import subprocess
import sys

import pytest

from doctrain import encoder, finetune, trainer
from doctrain.finetune import (FinetuneConfig, PairClassifierModel,
                               PairExample, SpanQaExample, SpanQaModel,
                               TokenClassExample, TokenTaggerModel)
from doctrain.model import DocumentModel
from doctrain.taxonomy import Taxonomy, pad_hierarchy
from doctrain.trainer import TrainConfig

from conftest import separable_corpus, small_config, triplets_for

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
import tracing  # noqa: E402

# every doctrain module whose bindings the tracer wraps
TRACED_MODULES = ("checkpoint", "cli", "corpus", "encoder", "finetune",
                  "manifest", "mining", "optim", "trainer")


def test_tracer_finds_every_binding_it_wraps():
    """`Tracer.install()` raises AttributeError on a binding that is gone.
    It runs in a child process, because it rebinds module attributes."""
    code = "\n".join([
        *(f"import doctrain.{m}" for m in TRACED_MODULES),
        "from tracing import Tracer",
        "Tracer().install()",
        "import doctrain.trainer as trainer",
        "print(hasattr(trainer.backward, '__wrapped__'))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_finetune_calls_its_backward_binding_once_per_step(monkeypatch):
    calls = []
    real_backward = finetune.backward
    monkeypatch.setattr(finetune, "backward", lambda loss: (
        calls.append(1), real_backward(loss))[1])
    task = TokenTaggerModel(DocumentModel(small_config()), 2)
    train = [TokenClassExample(("one", "alpha", "two"), (1, 0, 1))] * 5
    result = finetune.finetune(task, train, train[:2],
                               FinetuneConfig(lr=1e-3, epochs=2,
                                              batch_size=2))
    assert result.epochs_run == 2
    assert len(calls) == 2 * 3  # ceil(5 / 2) steps per epoch


@pytest.mark.parametrize("objective", ["doc", "mlm"])
def test_pretrain_calls_its_backward_binding_once_per_step(objective,
                                                           monkeypatch):
    calls = []
    real_backward = trainer.backward
    monkeypatch.setattr(trainer, "backward", lambda loss: (
        calls.append(1), real_backward(loss))[1])
    tax = Taxonomy.from_paths([("astro",), ("law",)])
    model = DocumentModel(small_config(level_sizes=tax.level_sizes))
    corpus = separable_corpus(per_category=3)
    config = TrainConfig(batch_size=4, epochs=2)
    if objective == "mlm":
        result = trainer.pretrain_mlm(model, corpus, config)
    else:
        result = trainer.pretrain(model, corpus, triplets_for(corpus, 6),
                                  {d.id: pad_hierarchy(d.hierarchy_path, tax)
                                   for d in corpus}, config)
    assert result.total_steps == 2 * 2  # ceil(6 / 4) steps per epoch
    assert len(calls) == result.total_steps


def test_each_task_evaluate_records_one_eval_span(monkeypatch):
    """`Tracer.install` wraps `evaluate` on each of the three task classes,
    which inherit it from one base: one call on each task records exactly
    one `finetune.eval` span."""
    tracer = tracing.Tracer()
    for cls in (SpanQaModel, TokenTaggerModel, PairClassifierModel):
        # restored afterwards: the class gets back no attribute of its own
        monkeypatch.setattr(cls, "evaluate", cls.evaluate)
        tracer.wrap(cls, "evaluate", "finetune.eval")
    model = DocumentModel(small_config())
    for task, ex in [
            (SpanQaModel(model), SpanQaExample(("q",), ("a", "b"), None)),
            (TokenTaggerModel(model, 2), TokenClassExample(("a",), (1,))),
            (PairClassifierModel(model), PairExample(("a",), ("b",), 1))]:
        before = len(tracer.spans)
        task.evaluate([ex, ex])
        assert [(s["name"], s["parent"]) for s in tracer.spans[before:]] == [
            ("finetune.eval", None)]


@pytest.mark.parametrize("phase", ["doc", "mlm", "lora"])
def test_traced_params_are_the_tensors_that_require_grad(phase, monkeypatch):
    """`optim.params_per_step` counts the groups that are not frozen; it is
    the number of parameters the step can update."""
    optimizers = []

    class Recording(trainer.AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(trainer, "AdamW", Recording)
    tax = Taxonomy.from_paths([("astro",), ("law",), ("bio",)])
    model = DocumentModel(small_config(level_sizes=tax.level_sizes))
    corpus = separable_corpus(per_category=3)
    config = TrainConfig(batch_size=64, lora_rank=2 if phase == "lora" else 0)
    if phase == "mlm":
        trainer.pretrain_mlm(model, corpus, config)
    else:
        trainer.pretrain(model, corpus, triplets_for(corpus, 4),
                         {d.id: pad_hierarchy(d.hierarchy_path, tax)
                          for d in corpus}, config)
    [optimizer] = optimizers
    assert tracing.Tracer._params(optimizer) == {"params": sum(
        t.size for g in optimizer.groups for t in g.tensors
        if t.requires_grad)}


def test_traced_lower_sentences_are_the_distinct_kept_sentences(monkeypatch):
    """`lower.sentences` counts the sentences the tracer first sees through
    `LowerEncoder.embed`. `pretrain` featurizes in one batched call that the
    tracer does not wrap, then reads every kept sentence through `embed`, so
    the count is still each distinct kept sentence once."""
    monkeypatch.setattr(encoder.LowerEncoder, "embed",
                        encoder.LowerEncoder.embed)  # restored afterwards
    tracer = tracing.Tracer()
    tracer.wrap(encoder.LowerEncoder, "embed", "lower.embed",
                before=tracer._sentence)
    tax = Taxonomy.from_paths([("astro",), ("law",)])
    cfg = small_config(level_sizes=tax.level_sizes, max_sentences=2)
    corpus = separable_corpus(per_category=3)
    triplets = triplets_for(corpus, 4)
    trainer.pretrain(DocumentModel(cfg), corpus, triplets,
                     {d.id: pad_hierarchy(d.hierarchy_path, tax)
                      for d in corpus}, TrainConfig(batch_size=64))
    used = {doc_id for t in triplets
            for doc_id in (t.anchor_id, t.positive_id, t.negative_id)}
    kept = {s for doc_id in used for s in corpus.get(doc_id).sentences[:2]}
    assert len(corpus.get(next(iter(used))).sentences) > 2
    assert tracing.layer_metrics(tracer.spans)["lower.sentences"] == len(kept)
