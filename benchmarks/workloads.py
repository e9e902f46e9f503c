"""One repetition of one benchmark workload, in a fresh process.

    python3 benchmarks/workloads.py --src SRC --inputs DIR --work DIR \
        --result FILE [--spans FILE | --setup-only]

The clock starts when this file starts running, so `setup_s` includes
importing doctrain. The workload reads only the files `inputs.py` wrote into
DIR. Correctness checks run after the clock stops. The result file holds the
timed metrics, the values that must repeat exactly, and every check.
With `--setup-only` the repetition ends after setup and reports `setup_s`
alone, so that a run can sample set-up time more often than the workload.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


class SetupOnly(Exception):
    """Ends a setup-only repetition once setup is done."""


class Rep:
    """What one repetition measured and checked."""

    def __init__(self, tracer, setup_only: bool = False):
        self.tracer = tracer
        self.setup_only = setup_only
        self.metrics: dict[str, float] = {}
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self._timed = 0.0
        self._mark = _T0

    def setup_done(self) -> None:
        """End of setup: the next call is the workload's main operation."""
        now = time.perf_counter()
        self.metrics["setup_s"] = now - _T0
        if self.setup_only:
            raise SetupOnly
        self._timed += now - self._mark

    def resume(self) -> None:
        """Restart the clock after untimed work (checks taken before)."""
        self._mark = time.perf_counter()

    def finish(self) -> None:
        """End of the timed region."""
        self._timed += time.perf_counter() - self._mark
        self.tracer.stop()
        self.metrics["wall_s"] = self._timed
        self.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    def operation(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _epoch_means(losses: list[float], steps_per_epoch: int) -> list[float]:
    return [sum(losses[i:i + steps_per_epoch]) / len(losses[i:i + steps_per_epoch])
            for i in range(0, len(losses), steps_per_epoch)]


def _macro_f1(y_true: list[int], y_pred: list[int]) -> float:
    """Mean per-class F1 over the classes present in y_true."""
    scores = []
    for c in sorted(set(y_true)):
        tp = sum(t == c and p == c for t, p in zip(y_true, y_pred))
        fp = sum(t != c and p == c for t, p in zip(y_true, y_pred))
        fn = sum(t == c and p != c for t, p in zip(y_true, y_pred))
        scores.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return sum(scores) / len(scores)


def _lcs_bits(a: list[str], b: list[str]) -> int:
    """LCS length by the bit-parallel recurrence (Hyyro 2004): an algorithm
    independent of the dynamic program doctrain uses."""
    masks: dict[str, int] = {}
    for i, tok in enumerate(a):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for tok in b:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - bin(v).count("1")


def _rouge_f1(a: list[str], b: list[str]) -> float:
    lcs = _lcs_bits(a, b) if a and b else 0
    if lcs == 0:
        return 0.0
    p, r = lcs / len(b), lcs / len(a)
    return 2.0 * p * r / (p + r)


# -- workloads -----------------------------------------------------------------


def pretrain_sentences(rep: Rep, spec: dict, inputs: Path, work: Path) -> None:
    from doctrain import checkpoint, corpus, mining, taxonomy, trainer
    from doctrain.model import DocumentModel, ModelConfig
    rep.tracer.install()

    corp = corpus.load_corpus(inputs / "corpus.jsonl", "customer_support")
    triplets = mining.load_triplets(inputs / "triplets.jsonl")
    tax = taxonomy.Taxonomy.load(inputs / "taxonomy.txt")
    labels = {d.id: taxonomy.pad_hierarchy(d.hierarchy_path, tax) for d in corp}
    model = DocumentModel(ModelConfig(**spec["model"],
                                      level_sizes=tax.level_sizes))
    config = trainer.TrainConfig(**spec["train"])
    rep.setup_done()

    lower_before = model.lower.state_bytes()
    rep.resume()
    t = time.perf_counter()
    try:
        result = trainer.pretrain(model, corp, triplets, labels, config)
        train_s = time.perf_counter() - t
        checkpoint.save_checkpoint(result.checkpoint, work / "model.ckpt")
    finally:
        rep.finish()
    rep.operation(True)
    rep.metrics["train_examples_per_s"] = len(triplets) * config.epochs / train_s

    import numpy as np
    from doctrain.tensor import Tensor, no_grad
    losses = [row["loss"] for row in result.loss_curve]
    per_epoch = math.ceil(len(triplets) / config.batch_size)
    means = _epoch_means(losses, per_epoch)
    rep.check("loss finite", all(math.isfinite(v) for v in losses))
    rep.check("last-epoch mean loss below first-epoch mean",
              means[-1] < means[0], f"{means[0]:.6f} -> {means[-1]:.6f}")
    rep.check("featurizer frozen (LowerEncoder.state_bytes unchanged)",
              model.lower.state_bytes() == lower_before)
    loaded = checkpoint.load_checkpoint(work / "model.ckpt")
    same = (sorted(loaded.tensors) == sorted(result.checkpoint.tensors)
            and all(np.array_equal(loaded.tensors[k], result.checkpoint.tensors[k])
                    for k in loaded.tensors))
    rep.check("checkpoint save/load round trip gives equal tensors", same)

    dev = corpus.load_corpus(inputs / "dev_corpus.jsonl", "customer_support")
    with no_grad():
        vecs = np.stack([model.encode_document(list(d.sentences)).data
                         for d in dev])
        level0 = model.heads.logits_matrix(Tensor(vecs))[0].data
    gold = [taxonomy.pad_hierarchy(d.hierarchy_path, tax).indices[0] for d in dev]
    rep.metrics["final_loss"] = means[-1]
    rep.metrics["dev_macro_f1"] = _macro_f1(gold, [int(i) for i in level0.argmax(1)])


def finetune_tokens(rep: Rep, spec: dict, inputs: Path, work: Path) -> None:
    from doctrain import checkpoint, finetune
    from doctrain.model import DocumentModel

    # record the loss of every step: the untraced run needs it for final_loss
    losses: list[float] = []
    backward = finetune.backward

    def recording_backward(loss):
        losses.append(float(loss.item()))
        return backward(loss)

    finetune.backward = recording_backward
    rep.tracer.install()

    model = DocumentModel.from_checkpoint(
        checkpoint.load_checkpoint(inputs / "seeded.ckpt"))
    train = finetune.load_token_class(inputs / "train.jsonl")
    dev = finetune.load_token_class(inputs / "dev.jsonl")
    config = finetune.FinetuneConfig(**spec["finetune"])
    rep.setup_done()

    rep.resume()
    t = time.perf_counter()
    try:
        task, result = finetune.finetune_token_classification(
            model, train, dev, spec["num_classes"], config)
        train_s = time.perf_counter() - t
    finally:
        rep.finish()
    rep.operation(True)
    rep.metrics["train_examples_per_s"] = (len(train) * result.epochs_run
                                           / train_s)

    per_epoch = math.ceil(len(train) / config.batch_size)
    f1 = result.metrics["macro_f1"]
    rep.check("loss finite", all(math.isfinite(v) for v in losses))
    rep.check("every epoch ran (epochs_run == epochs)",
              result.epochs_run == config.epochs,
              f"{result.epochs_run} of {config.epochs}")
    rep.check("dev macro F1 above chance (1/3)", f1 > 1.0 / 3.0, f"{f1:.4f}")
    y_true, y_pred = [], []
    for ex in dev:
        pred = task.predict(ex)
        y_true.extend(ex.labels[:len(pred)])
        y_pred.extend(pred)
    again = _macro_f1(y_true, y_pred)
    rep.check("reported dev macro F1 matches a recount", abs(again - f1) < 1e-12,
              f"{f1:.6f} vs {again:.6f}")
    rep.metrics["final_loss"] = _epoch_means(losses, per_epoch)[-1]
    rep.metrics["dev_macro_f1"] = f1


def cli_walkthrough(rep: Rep, spec: dict, inputs: Path, work: Path) -> None:
    from doctrain import cli
    rep.tracer.install()
    rep.setup_done()

    s, shape, seed = spec["settings"], spec["shape"], str(spec["seed"])
    corpus = str(inputs / "corpus.jsonl")
    tri, tax = str(work / "tri.jsonl"), str(work / "tax.txt")
    ckpt, metrics = str(work / "model.ckpt"), str(work / "metrics.json")
    commands = [
        ("mine", ["mine", "--corpus", corpus, "--out", tri, "--mode",
                  "derived", "--strategy", "rouge", "--count",
                  str(s["mine_count"]), "--seed", seed]),
        ("derive_taxonomy", ["derive-taxonomy", "--corpus", corpus, "--out",
                             tax, "--levels", str(s["levels"]),
                             "--branching", str(s["branching"]),
                             "--seed", seed]),
        ("pretrain", ["pretrain", "--corpus", corpus, "--triplets", tri,
                      "--taxonomy", tax, "--assignments",
                      tax + ".assignments.jsonl", "--out", ckpt,
                      "--loss", "both", "--batch", str(s["pretrain_batch"]),
                      "--epochs", str(s["pretrain_epochs"]),
                      "--lr", str(s["pretrain_lr"]), "--seed", seed,
                      "--d-model", str(shape["d_model"]),
                      "--num-layers", str(shape["num_layers"]),
                      "--num-heads", str(shape["num_heads"]),
                      "--ffn-dim", str(shape["ffn_dim"]),
                      "--vocab-size", str(shape["vocab_size"]),
                      "--lower-layers", str(shape["lower_layers"]),
                      "--max-sentences", str(s["max_sentences"])]),
        ("finetune", ["finetune", "--checkpoint", ckpt, "--task",
                      "token-classification",
                      "--train", str(inputs / "tag_train.jsonl"),
                      "--dev", str(inputs / "tag_dev.jsonl"),
                      "--num-classes", str(s["classes"]),
                      "--metrics-out", metrics,
                      "--epochs", str(s["finetune_epochs"]),
                      "--patience", str(s["finetune_epochs"]),
                      "--lr", str(s["finetune_lr"]), "--seed", seed]),
        ("analyze", ["analyze", "--kind", "correlation", "--corpus", corpus,
                     "--checkpoint", ckpt, "--out", str(work / "corr.json"),
                     "--seed", seed]),
        ("replay", ["--replay", tri + ".manifest.json"]),
    ]
    times: dict[str, float] = {}
    outputs: dict[str, str] = {}
    codes: dict[str, int] = {}
    rep.resume()
    try:
        for name, argv in commands:
            buf = io.StringIO()
            t = time.perf_counter()
            with rep.tracer.span(f"cli.{name}"), contextlib.redirect_stdout(buf):
                codes[name] = cli.main(argv)
            times[name] = time.perf_counter() - t
            outputs[name] = buf.getvalue()
            rep.operation(codes[name] == 0)
            if codes[name] != 0:
                break
    finally:
        rep.finish()

    for name, _ in commands:
        rep.check(f"{name} exits 0", codes.get(name) == 0,
                  f"exit {codes.get(name)}")
    if rep.failed:
        return
    rep.check("replay prints 'verified'", "verified" in outputs["replay"],
              outputs["replay"].strip())

    from doctrain.corpus import load_corpus
    from doctrain.text import tokenize
    docs = load_corpus(corpus, "derived")
    tokens = {d.id: tokenize(" ".join(d.sentences))[:512] for d in docs}
    with open(tri, encoding="utf-8") as fh:
        mined = [json.loads(line) for line in fh if line.strip()]
    bad = [t for t in mined
           if _rouge_f1(tokens[t["anchor_id"]], tokens[t["positive_id"]]) < 0.35
           or _rouge_f1(tokens[t["anchor_id"]], tokens[t["negative_id"]]) > 0.10]
    rep.check("every mined triplet meets the ROUGE-L F1 thresholds",
              len(mined) == s["mine_count"] and not bad,
              f"{len(mined)} mined, {len(bad)} violate")

    with open(ckpt + ".losses.jsonl", encoding="utf-8") as fh:
        losses = [json.loads(line)["loss"] for line in fh if line.strip()]
    with open(metrics, encoding="utf-8") as fh:
        report = json.load(fh)
    rep.check("loss finite", all(math.isfinite(v) for v in losses))
    per_epoch = math.ceil(len(mined) / s["pretrain_batch"])
    examples = (len(mined) * s["pretrain_epochs"]
                + s["tag_train"] * report["epochs_run"])
    rep.metrics["train_examples_per_s"] = examples / (times["pretrain"]
                                                      + times["finetune"])
    rep.metrics["final_loss"] = _epoch_means(losses, per_epoch)[-1]
    rep.metrics["dev_macro_f1"] = report["metrics"]["macro_f1"]


WORKLOADS = {
    "pretrain_sentences": pretrain_sentences,
    "finetune_tokens": finetune_tokens,
    "cli_walkthrough": cli_walkthrough,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--spans", default=None, type=Path,
                      help="trace the run and write its spans here")
    mode.add_argument("--setup-only", action="store_true",
                      help="stop after setup and report setup_s alone")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from tracing import NullTracer, Tracer

    spec = json.loads((args.inputs / "spec.json").read_text(encoding="utf-8"))
    args.work.mkdir(parents=True, exist_ok=True)
    rep = Rep(Tracer() if args.spans else NullTracer(), args.setup_only)
    try:
        WORKLOADS[spec["workload"]](rep, spec, args.inputs, args.work)
    except SetupOnly:
        pass
    except Exception:
        rep.operation(False)
        rep.check("workload raised no exception", False,
                  traceback.format_exc(limit=4))
    result = {"metrics": rep.metrics, "checks": rep.checks,
              "attempted": rep.attempted, "failed": rep.failed}
    if args.spans:
        rep.tracer.write(args.spans)
        layers = rep.tracer.layer_metrics()
        layers["wall_s"] = rep.metrics.get("wall_s", 0.0)
        result["layers"] = layers
    result["deterministic"] = {k: v for k, v in rep.metrics.items()
                               if k in ("final_loss", "dev_macro_f1")}
    args.result.write_text(json.dumps(result, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
