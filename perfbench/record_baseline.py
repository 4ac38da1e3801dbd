"""Run the benchmark on several seeds per workload and record the medians.

Usage (from the repository root):

    python3 perfbench/record_baseline.py LABEL

LABEL says what was measured, e.g. a commit id. For every workload in
BENCHMARK.json it runs `run.py --trace 0` on seeds 1..10 and `--trace 1` on
seeds 1..3, and writes perfbench/baseline.json. For each metric it records
every value, the median, and the spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median. It also records the environment: numpy version,
BLAS, Python version and nproc.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = list(range(1, 11))
TRACED_RUNS = 3


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        rec = {"unit": results[0]["metrics"][name]["unit"], "median": median, "values": values}
        if median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            rec["spread"] = (q3 - q1) / median
        out[name] = rec
    return out


def main(label: str) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    doc = {"label": label, "environment": environment(), "run_seconds": seconds,
           "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        plain = [run_once(workload, s, seconds, 0) for s in SEEDS]
        traced = [run_once(workload, s, seconds, 1) for s in SEEDS[:TRACED_RUNS]]
        doc["workloads"][workload] = {
            "end_to_end": summarize(plain),
            "per_layer": summarize(traced),
        }
        for name, rec in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload:<13} {name:<24} median {rec['median']:.6g} {rec['unit']:<6}"
                  f" spread {rec.get('spread', float('nan')):.4f}", flush=True)
    OUT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1]))
