"""regroupbench performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-overlap --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from --seed under .perfbench_work/, then
runs passes over the workload's CLI operations in one worker process for
--seconds (at least two passes; four with --trace 1), timing set-up in fresh interpreters between
them, checks every output, and prints a report whose last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones from traced
passes, which alternate with untraced passes so the tracing overhead shows.
Exits 1 if an output check fails, 2 if the program cannot be found.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    check_grid_rows,
    check_metrics_report,
    digest,
    parse_results,
    strip_wall_time,
)
from workloads import WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0


def run_worker(workload, work: Path, seconds: float, trace: bool, deadline: float) -> dict:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    plan = {
        "root": str(ROOT),
        "ops": [{k: v for k, v in asdict(op).items() if k != "expected"} for op in workload.ops],
        "probe": [sys.executable, str(HERE / "probe_setup.py"), str(ROOT), *workload.configs],
        "seconds": seconds,
        "trace": trace,
        "result": str(work / "result.json"),
        "trace_file": str(out_dir / f"trace-{workload.name}.jsonl"),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path)],
        cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def evaluate(workload, passes: list[dict], per_layer: dict[str, str]) -> dict:
    """Counts, quality means and output checks over every pass."""
    attempted = failed = 0
    problems: list[str] = []
    ap0, ba = [], []
    reference = [None] * len(workload.ops)
    digests = []
    for p_index, p in enumerate(passes):
        for o_index, (op, rec) in enumerate(zip(workload.ops, p["ops"])):
            where = f"pass {p_index} op {o_index}"
            if op.results_csv is not None:
                rows = parse_results(rec["results"]) if rec["results"] else []
                attempted += max(len(rows), 1)
                failed += sum(1 for r in rows if r["error"]) or int(rec["code"] != 0)
                if not rows:
                    problems.append(f"{where}: no results.csv rows ({rec['error'][:200]})")
                    continue
                canonical = strip_wall_time(rec["results"])
                problems += [f"{where}: {x}" for x in check_grid_rows(rows, op.num_classes)]
                if p_index == 0 and op.scored:
                    ok = [r for r in rows if not r["error"]]
                    ap0 += [float(r["ap_per_class"].split(";")[0]) for r in ok]
                    ba += [float(r["balanced_accuracy"]) for r in ok]
            else:
                attempted += 1
                failed += int(rec["code"] != 0)
                canonical = rec["stdout_last"]
                try:
                    report = json.loads(canonical)
                except json.JSONDecodeError:
                    problems.append(f"{where}: exit {rec['code']}, no JSON report")
                    continue
                problems += [f"{where}: {x}" for x in check_metrics_report(report, op.expected)]
                if p_index == 0 and op.scored:
                    ap0.append(report["ap_per_class"][0])
                    ba.append(report["balanced_accuracy"])
            if reference[o_index] is None:
                reference[o_index] = canonical
                digests.append(digest(canonical))
            elif canonical != reference[o_index]:
                problems.append(f"{where}: output differs from pass 0 (determinism)")
    traced = [p["layers"] for p in passes if p["traced"]]
    for name, unit in per_layer.items():
        if unit == "count" and len({t[name] for t in traced}) > 1:
            problems.append(f"count {name} differs between traced passes")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "minority_ap_mean": statistics.fmean(ap0) if ap0 else 0.0,
        "balanced_accuracy_mean": statistics.fmean(ba) if ba else 0.0,
        "digest": digest("".join(digests)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "regroupbench" / "__init__.py").is_file():
        print(f"no regroupbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        result = run_worker(workload, work, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes, setup = result["passes"], result["setup_s"]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    ev = evaluate(workload, passes, units if args.trace else {})
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    plain_cpu = [p["cpu_s"] for p in passes if not p["traced"]]
    print(f"workload {workload.name} seed {args.seed} {workload.info}: "
          f"{len(passes)} passes of {len(workload.ops)} op(s), "
          f"{ev['attempted']} operations attempted, {ev['failed']} failed")
    print(f"wall_s per untraced pass (n={len(plain)}): "
          + " ".join(f"{w:.4f}" for w in plain)
          + "; process CPU s: " + " ".join(f"{c:.4f}" for c in plain_cpu))
    print(f"setup_s per fresh interpreter (n={len(setup)}): "
          + " ".join(f"{s:.4f}" for s in setup))
    print(f"output digest (results.csv without wall_time_s / metrics JSON): {ev['digest']}")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {}
        for name in units:
            if name == "trace.overhead_frac":
                t = statistics.median(p["wall_s"] for p in traced)
                u = statistics.median(plain)
                value = (t - u) / u
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = value
        shares = {k: statistics.median(p["shares"].get(k, 0.0) for p in traced)
                  for k in traced[0]["shares"]}
        print("layer self-time shares (traced): "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        if traced[0]["absent"]:
            print("absent (not wrapped, layer not measured): " + ", ".join(traced[0]["absent"]))
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(plain),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - ev["failed"] / ev["attempted"],
            "minority_ap_mean": ev["minority_ap_mean"],
            "balanced_accuracy_mean": ev["balanced_accuracy_mean"],
        }
        metrics = {name: values[name] for name in units}
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {units[name]}")
    for problem in ev["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not ev["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": ev["attempted"],
        "failed": ev["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
