"""Run every workload on several seeds and record medians and quartiles.

    python3 benchmarks/baseline.py --seeds 1-10 --out benchmarks/baseline.json
    python3 benchmarks/baseline.py --seeds 1-3 --trace 1 \
        --out benchmarks/baseline_trace.json

Each (workload, seed) pair is one run of `run.py` with the `run_seconds` of
BENCHMARK.json. Per metric and workload the file gets the median, the
quartiles (`statistics.quantiles(values, n=4)`), the spread (interquartile
distance over the median), the value of every run and, for end-to-end
metrics, the bound it is held to. With `--trace 1` it records the
per-layer metrics of traced runs instead, the exact counts and
`trace.overhead_fraction` among them. Runs go one at a time, so they do not
slow each other down.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1-10", type=_seeds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    report: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
                    "trace": args.trace, "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in declared}
        for seed in args.seeds:
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            env = [l for l in lines if l.startswith("environment ")]
            if env:
                report.setdefault("environment", json.loads(env[0][12:]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "metrics": {}}
            print(f"{workload} seed {seed}: exit {proc.returncode}, correct "
                  f"{result['correct']}, {time.perf_counter() - t:.1f} s",
                  flush=True)
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stdout[-4000:], proc.stderr[-4000:],
                      file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        rows = {}
        for m in declared:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            rows[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(med) if med else 0.0, "values": v,
                **({"bound": m["bound"]} if "bound" in m else {})}
            print(f"  {m['name']:34s} median {med:<12.6g} spread "
                  f"{rows[m['name']]['spread']:.4f}", flush=True)
        report["workloads"][workload] = rows
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
