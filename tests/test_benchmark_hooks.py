"""The benchmark's hooks into doctrain, checked within the tier-1 suite.

`testpaths` also runs the benchmark's own tests (`benchmarks/tests`). These
pin the ways the benchmark reaches into the package: its tracer replaces
module bindings by name and counts the parameters each optimizer step
updates, and the `finetune_tokens` workload records each step's loss by
replacing `finetune.backward`.
"""

import os
import subprocess
import sys

import pytest

from doctrain import finetune, trainer
from doctrain.finetune import FinetuneConfig, TokenClassExample, TokenTaggerModel
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
