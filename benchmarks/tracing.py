"""Spans around doctrain's public functions, recorded from outside.

`Tracer.install()` replaces each function it lists with a wrapper that
records a span (name, start, end, parent span, counts). It wraps the binding
each caller imported, for example `doctrain.trainer.backward` as well as
`doctrain.finetune.backward`. Individual tensor ops are not wrapped: there are
thousands per step, and their wrappers would swamp what they measure.

Spans stay in memory; `write()` saves them with per-name self time once the
workload has ended, and `layer_metrics()` turns them into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
import weakref

# per-layer metrics whose value is a deterministic count: every run of one
# commit on one seed must reproduce them exactly
EXACT = ("lower.sentences", "upper.train_forward_calls", "upper.rows",
         "tensor.tape_nodes_per_step", "optim.params_per_step",
         "trainer.steps", "finetune.epochs_run", "rouge.calls",
         "checkpoint.bytes", "manifest.bytes_digested")


def tape_nodes(loss) -> int:
    """Recorded operations reachable from `loss`: the tape backward walks."""
    seen = {id(loss)}
    stack = [loss]
    nodes = 0
    while stack:
        node = stack.pop()
        if node._backward is not None:
            nodes += 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def _saved_bytes(out, ckpt, path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _digested_bytes(out, path) -> dict:
    return {"bytes": os.path.getsize(path)}


class Tracer:
    """Records spans from `install()` until `stop()`."""

    def __init__(self):
        self.recording = True
        self.spans: list[dict] = []
        self._stack: list[int] = []
        # sentences each featurizer has embedded; weak keys, because an id()
        # can be reused once a model is freed (the CLI builds several)
        self._seen_sentences = weakref.WeakKeyDictionary()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr with a span-recording wrapper.

        `before(*args, **kwargs)` runs ahead of the span's clock and returns
        counts; `after(result, *args, **kwargs)` runs after it stops.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return orig(*args, **kwargs)
            pre = before(*args, **kwargs) if before else None
            rec = self._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(rec)
            if pre:
                rec["counts"].update(pre)
            if after:
                rec["counts"].update(after(out, *args, **kwargs))
            return out

        setattr(owner, attr, wrapper)

    def stop(self) -> None:
        """Stop recording: what runs afterwards (the checks) is not traced."""
        self.recording = False

    # -- count hooks ---------------------------------------------------------

    def _sentence(self, encoder, sentence) -> dict:
        seen = self._seen_sentences.setdefault(encoder, set())
        miss = sentence not in seen
        seen.add(sentence)
        return {"miss": int(miss)}

    @staticmethod
    def _forward(out, encoder, x, *args, **kwargs) -> dict:
        y = out[0] if isinstance(out, tuple) else out
        return {"rows": int(x.shape[0]), "train": int(y.requires_grad)}

    @staticmethod
    def _params(optimizer, *args, **kwargs) -> dict:
        return {"params": sum(t.size for g in optimizer.groups
                              if not g.frozen for t in g.tensors)}

    def install(self) -> None:
        """Wrap every layer boundary of the doctrain modules loaded so far."""
        mods = {name.split(".", 1)[1]: m for name, m in sys.modules.items()
                if name.startswith("doctrain.")}
        encoder = mods.get("encoder")
        if encoder is not None:
            self.wrap(encoder.LowerEncoder, "embed", "lower.embed",
                      before=self._sentence)
            self.wrap(encoder.UpperEncoder, "forward", "upper.forward",
                      after=self._forward)
        if "optim" in mods:
            self.wrap(mods["optim"].AdamW, "step", "optim.step",
                      before=self._params)
        nodes = lambda loss: {"nodes": tape_nodes(loss)}
        for mod, attr, name, before, after in (
                ("trainer", "backward", "tensor.backward", nodes, None),
                ("finetune", "backward", "tensor.backward", nodes, None),
                ("trainer", "triplet_loss", "losses.triplet", None, None),
                ("trainer", "hierarchical_loss_rows", "losses.hierarchy",
                 None, None),
                ("trainer", "pretrain", "trainer.pretrain", None, None),
                ("cli", "pretrain", "trainer.pretrain", None, None),
                ("finetune", "finetune", "finetune.loop", None,
                 lambda out, *a, **k: {"epochs_run": out.epochs_run}),
                ("mining", "rouge_l", "rouge.rouge_l",
                 lambda a, b: {"cells": len(a) * len(b)}, None),
                ("cli", "mine_triplets_rouge", "mining.rouge", None,
                 lambda out, *a, **k: {"triplets": len(out)}),
                ("cli", "derive_taxonomy", "taxonomy.derive", None, None),
                ("cli", "representation_correlation", "analysis.correlation",
                 None, None),
                ("corpus", "load_corpus", "corpus.load", None, None),
                ("cli", "load_corpus", "corpus.load", None, None),
                ("checkpoint", "save_checkpoint", "checkpoint.save", None,
                 _saved_bytes),
                ("cli", "save_checkpoint", "checkpoint.save", None,
                 _saved_bytes),
                ("checkpoint", "load_checkpoint", "checkpoint.load", None,
                 None),
                ("cli", "load_checkpoint", "checkpoint.load", None, None),
                ("manifest", "file_digest", "manifest.digest", None,
                 _digested_bytes)):
            if mod in mods:
                self.wrap(mods[mod], attr, name, before, after)
        finetune = mods.get("finetune")
        if finetune is not None:
            for cls in (finetune.SpanQaModel, finetune.TokenTaggerModel,
                        finetune.PairClassifierModel):
                self.wrap(cls, "evaluate", "finetune.eval")

    # -- reporting -----------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by child spans)."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s, inner in zip(self.spans, child_s):
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            dur = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - inner
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "self_time": self.self_times()},
                      fh)
            fh.write("\n")

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans)


class NullTracer:
    """Stands in for Tracer in untraced runs: records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def install(self) -> None:
        pass

    def stop(self) -> None:
        pass


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile). With ten or fewer samples it is the maximum."""
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _within(spans: list[dict], outer: str) -> list[tuple[dict, list[dict]]]:
    """Each span named `outer`, with the spans that ran inside it."""
    out = []
    for o in spans:
        if o["name"] == outer:
            inside = [s for s in spans
                      if s is not o and o["start"] <= s["start"]
                      and s["end"] <= o["end"]]
            out.append((o, inside))
    return out


def _steps(spans: list[dict], outer: str) -> tuple[list[float], float]:
    """Step durations in ms inside each `outer` span, and the time before the
    first step. A step runs from its first training forward to the end of its
    optimizer step."""
    steps: list[float] = []
    prep = 0.0
    for o, inside in _within(spans, outer):
        start = None
        first = True
        for s in sorted(inside, key=lambda s: s["start"]):
            if (s["name"] == "upper.forward" and s["counts"].get("train")
                    and start is None):
                start = s["start"]
                if first:
                    prep += start - o["start"]
                    first = False
            elif s["name"] == "optim.step" and start is not None:
                steps.append(1000.0 * (s["end"] - start))
                start = None
    return steps, prep


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    dur = lambda name: sum(s["end"] - s["start"] for s in by.get(name, []))
    count = lambda name, key: sum(s["counts"].get(key, 0)
                                  for s in by.get(name, []))
    calls = lambda name: len(by.get(name, []))
    ratio = lambda a, b: a / b if b else 0.0

    m: dict[str, float] = {}
    misses = count("lower.embed", "miss")
    m["lower.sentences"] = misses
    m["lower.cache_hit_ratio"] = ratio(calls("lower.embed") - misses,
                                       calls("lower.embed"))
    m["lower.busy_s"] = dur("lower.embed")
    m["lower.ms_per_sentence"] = ratio(1000.0 * dur("lower.embed"), misses)

    fwd = by.get("upper.forward", [])
    train = [s for s in fwd if s["counts"]["train"]]
    infer = [s for s in fwd if not s["counts"]["train"]]
    m["upper.train_forward_calls"] = len(train)
    m["upper.rows"] = sum(s["counts"]["rows"] for s in fwd)
    m["upper.train_forward_s"] = sum(s["end"] - s["start"] for s in train)
    m["upper.infer_forward_s"] = sum(s["end"] - s["start"] for s in infer)

    m["tensor.backward_s"] = dur("tensor.backward")
    m["tensor.tape_nodes_per_step"] = ratio(count("tensor.backward", "nodes"),
                                            calls("tensor.backward"))
    m["losses.busy_s"] = dur("losses.triplet") + dur("losses.hierarchy")
    opt = by.get("optim.step", [])
    m["optim.step_ms"] = (1000.0 * statistics.median(
        s["end"] - s["start"] for s in opt) if opt else 0.0)
    m["optim.params_per_step"] = ratio(count("optim.step", "params"),
                                       len(opt))

    for layer, outer in (("trainer", "trainer.pretrain"),
                         ("finetune", "finetune.loop")):
        steps, prep = _steps(spans, outer)
        value, pct = tail(steps)
        if layer == "trainer":
            m["trainer.steps"] = len(steps)
            m["trainer.prep_s"] = prep
        else:
            m["finetune.epochs_run"] = count("finetune.loop", "epochs_run")
            m["finetune.eval_s"] = dur("finetune.eval")
        m[f"{layer}.step_ms.p50"] = statistics.median(steps) if steps else 0.0
        m[f"{layer}.step_ms.tail"] = value
        m[f"{layer}.step_ms.tail_pct"] = pct
        m[f"{layer}.step_ms.samples"] = len(steps)

    m["rouge.calls"] = calls("rouge.rouge_l")
    m["rouge.busy_s"] = dur("rouge.rouge_l")
    m["rouge.cells_per_s"] = ratio(count("rouge.rouge_l", "cells"),
                                   dur("rouge.rouge_l"))
    mined_calls = sum(1 for _, inside in _within(spans, "mining.rouge")
                      for s in inside if s["name"] == "rouge.rouge_l")
    m["mining.triplets_per_rouge_call"] = ratio(
        count("mining.rouge", "triplets"), mined_calls)
    m["taxonomy.derive_s"] = dur("taxonomy.derive")
    m["analysis.correlation_s"] = dur("analysis.correlation")
    m["corpus.load_s"] = dur("corpus.load")
    m["checkpoint.save_s"] = dur("checkpoint.save")
    m["checkpoint.load_s"] = dur("checkpoint.load")
    m["checkpoint.bytes"] = count("checkpoint.save", "bytes")
    m["manifest.digest_s"] = dur("manifest.digest")
    m["manifest.bytes_digested"] = count("manifest.digest", "bytes")
    for cmd in ("mine", "derive_taxonomy", "pretrain", "finetune", "analyze",
                "replay"):
        m[f"cli.{cmd}_s"] = dur(f"cli.{cmd}")
    return {k: float(v) for k, v in m.items()}
