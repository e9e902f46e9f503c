"""doctrain benchmark: run one workload, check it, print every metric.

    python3 benchmarks/run.py --workload pretrain_sentences --seed 1 \
        --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports doctrain from the
checkout's `src/`. Inputs are generated from `--seed` before any timing.
Then the workload runs repeatedly, each repetition in a fresh process, until
the next one would end more than half a repetition after `--seconds`. Each
metric is the median over the repetitions. After each untraced repetition a
few more processes run only the workload's setup, so `setup_s` is the
median of more samples.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced repetitions, writes the spans of each traced one under
`.bench_out/traces/`, and reports the per-layer metrics, including
`trace.overhead_fraction`, the traced wall time over the untraced median,
minus one.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the checkout has no doctrain sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from tracing import EXACT  # noqa: E402

# Pinned for every child process. One BLAS thread was both faster and
# steadier than two on these matrix sizes; DOCTRAIN_LOG=ERROR keeps the
# per-document truncation warnings from flooding stderr.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "DOCTRAIN_LOG": "ERROR",
              "PYTHONDONTWRITEBYTECODE": "1"}

# a run never starts a repetition that could push it past this
RUN_LIMIT_S = 170.0

# setup-only processes after each untraced repetition
SETUP_SAMPLES = 2


def _benchmark() -> dict:
    """BENCHMARK.json: the workloads, their reasons and the metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)
    return env


def _code_digest() -> str:
    """Digest of the program and benchmark sources: the identity of a commit
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _run_child(argv: list[str], log, timeout: float) -> bool:
    """Run a child to completion (killing it on timeout); True on exit 0."""
    try:
        proc = subprocess.run([sys.executable, *argv], env=_child_env(),
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        log.write(f"$ {' '.join(argv)}\ntimed out after {timeout:.0f} s\n")
        log.write(exc.output or "")
        return False
    log.write(f"$ {' '.join(argv)}\n{proc.stdout}")
    return proc.returncode == 0


def _exact_record(workload: str, size: str, seed: int, counts: dict,
                  problems: list[str]) -> None:
    """Compare the exact counts with every earlier run of the same code on
    the same seed in this checkout; record them on the first run."""
    path = OUT / "exact" / f"{workload}-{size}-seed{seed}-{_code_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        for name, value in counts.items():
            if before.get(name) != value:
                problems.append(f"{name}: {value} here, {before.get(name)} "
                                f"in an earlier run of this code")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True) + "\n",
                        encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    bench = _benchmark()
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(why))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy inputs keep the smoke test fast")
    args = parser.parse_args(argv)

    if not (SRC / "doctrain" / "__init__.py").is_file():
        print(f"error: no doctrain sources under {SRC}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        with open(run_dir / "children.log", "w", encoding="utf-8") as log:
            return _measure(args, units, why[args.workload], run_dir, log,
                            started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, units, why: str, run_dir: Path, log,
             started: float) -> int:
    inputs = run_dir / "inputs"
    if not _run_child([str(HERE / "inputs.py"), args.workload, str(args.seed),
                       args.size, str(inputs)], log, RUN_LIMIT_S):
        log.flush()
        print((run_dir / "children.log").read_text(encoding="utf-8"),
              file=sys.stderr)
        print("error: input generation failed", file=sys.stderr)
        return 1
    spec = json.loads((inputs / "spec.json").read_text(encoding="utf-8"))
    env_info = {"nproc": os.cpu_count(), "commit": _commit(),
                "code_digest": _code_digest(), **PINNED_ENV,
                **spec["environment"]}
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          + why)
    print("environment " + json.dumps(env_info, sort_keys=True))

    # repetitions: plain ones, and with --trace 1 traced ones in between
    traces = OUT / "traces"
    traces.mkdir(exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    checks: dict[str, dict] = {}  # by name, failing if any repetition failed
    problems: list[str] = []
    attempted = failed = 0
    setup_s: list[float] = []  # from setup-only processes
    durations: list[float] = []
    t_measure = time.perf_counter()
    while True:
        want_trace = (args.trace == 1 and len(traced) < len(plain))
        k = len(plain) + len(traced)
        result_path = run_dir / f"rep{k}.json"
        child = [str(HERE / "workloads.py"), "--src", str(SRC),
                 "--inputs", str(inputs), "--work", str(run_dir / f"rep{k}"),
                 "--result", str(result_path)]
        if want_trace:
            spans = (traces / f"{args.workload}-seed{args.seed}-"
                     f"{os.getpid()}-rep{k}.spans.json")
            child += ["--spans", str(spans)]
        t = time.perf_counter()
        budget = RUN_LIMIT_S - (t - started)
        ok = _run_child(child, log, budget) and result_path.exists()
        if ok and args.trace == 0:
            for j in range(SETUP_SAMPLES):
                path = run_dir / f"rep{k}-setup{j}.json"
                budget = RUN_LIMIT_S - (time.perf_counter() - started)
                ok = (_run_child(child[:-1] + [str(path), "--setup-only"],
                                 log, budget) and path.exists())
                setup = (json.loads(path.read_text(encoding="utf-8"))
                         ["metrics"] if ok else {})
                ok = "setup_s" in setup
                if not ok:
                    break
                setup_s.append(setup["setup_s"])
        durations.append(time.perf_counter() - t)
        if not ok:
            attempted += 1
            failed += 1
            problems.append(f"repetition {k} crashed or timed out; see "
                            f"the log above")
            log.flush()
            print((run_dir / "children.log").read_text(encoding="utf-8"),
                  file=sys.stderr)
            break
        rep = json.loads(result_path.read_text(encoding="utf-8"))
        # a failed check fails the operation it checked
        bad_check = not all(c["ok"] for c in rep["checks"])
        attempted += rep["attempted"]
        failed += max(rep["failed"], int(bad_check))
        for c in rep["checks"]:
            if checks.setdefault(c["name"], c)["ok"] and not c["ok"]:
                checks[c["name"]] = c
        (traced if want_trace else plain).append(rep)
        if rep["failed"] or bad_check:
            break
        elapsed = time.perf_counter() - t_measure
        next_s = statistics.median(durations)
        # stopping at the repetition that ends nearest to --seconds keeps
        # the measured time close to it on average
        done = (len(plain) >= 1 and (args.trace == 0 or len(traced) >= 1)
                and elapsed + next_s / 2 > args.seconds)
        if done or time.perf_counter() - started + 2 * next_s > RUN_LIMIT_S:
            break

    # deterministic values repeat exactly across repetitions of one seed
    for key in ("final_loss", "dev_macro_f1"):
        seen = {r["deterministic"].get(key) for r in plain + traced}
        if len(seen) > 1:
            problems.append(f"{key} differs between repetitions: {sorted(seen)}")

    if args.trace == 1 and traced:
        layers = [r["layers"] for r in traced]
        samples = {name: [l[name] for l in layers] for name in layers[0]}
        counts = {}
        for name in EXACT:
            if len(set(samples[name])) > 1:
                problems.append(f"exact count {name} differs between "
                                f"traced repetitions: {samples[name]}")
            counts[name] = samples[name][0]
        _exact_record(args.workload, args.size, args.seed, counts, problems)
        untraced = statistics.median(r["metrics"]["wall_s"] for r in plain)
        samples["trace.overhead_fraction"] = [
            w / untraced - 1.0 for w in samples.pop("wall_s")]
    else:
        samples = {name: [r["metrics"][name] for r in plain]
                   for name in (plain[0]["metrics"] if plain else ())}
        if plain:
            samples["setup_s"] += setup_s
    metrics = {name: statistics.median(v) for name, v in samples.items()}

    missing = [n for n in units if n not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    wanted = [n for n in units if n in metrics]
    print(f"{len(plain)} untraced and {len(traced)} traced repetitions in "
          f"{time.perf_counter() - t_measure:.1f} s")
    for c in checks.values():
        print(f"check {'PASS' if c['ok'] else 'FAIL'}: {c['name']}"
              + (f" [{c['detail']}]" if c["detail"] else ""))
    for p in problems:
        print(f"check FAIL: {p}")
    for name in wanted:
        spread = " ".join(f"{v:.6g}" for v in samples[name])
        print(f"{name:34s} {metrics[name]:<12.6g} {units[name]:6s} "
              f"repetitions: {spread}")

    correct = (not problems and failed == 0 and bool(plain)
               and all(c["ok"] for c in checks.values()))
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
