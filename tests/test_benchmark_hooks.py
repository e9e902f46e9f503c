"""The benchmark's hooks into doctrain, checked within the tier-1 suite.

`benchmarks/` has its own tests, outside `testpaths`. These two pin the ways
the benchmark reaches into the package: its tracer replaces module bindings
by name, and the `finetune_tokens` workload records each step's loss by
replacing `finetune.backward`.
"""

import os
import subprocess
import sys

from doctrain import finetune
from doctrain.finetune import FinetuneConfig, TokenClassExample, TokenTaggerModel
from doctrain.model import DocumentModel

from conftest import small_config

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

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
