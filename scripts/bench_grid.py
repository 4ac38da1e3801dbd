"""Time `regroupbench run` grids in a base and a head `src/` tree.

    python scripts/bench_grid.py BASE_SRC HEAD_SRC [--seed 1201] [--out BENCH_grid.json]

BASE_SRC and HEAD_SRC are `src/` directories, for example of a `git archive`
of the parent commit and of this checkout. The grids are the benchmark's
desk-overlap and csv-scale workloads (`perfbench/workloads.py`), generated
once from --seed into `.bench_grid_work/` (removed at the end), so both
sides read the same config and CSV paths and `config_hash` is comparable
across sides.

Each round runs one fresh interpreter per side and workload, alternating
which side goes first. An interpreter imports the package, runs the grid
through `regroupbench.cli.main` PASSES times and reports:

- `wall_s`: the mean wall time of its passes;
- `rss_self_mb`: its own peak resident memory (`RUSAGE_SELF`), which is
  what the benchmark's `peak_rss_mb` counts;
- `rss_children_mb`: the largest peak of the processes it waited for
  (`RUSAGE_CHILDREN`), that is of the pool workers that ran the columns;
- the digest of `results.csv` without `wall_time_s`.

The output file holds the environment, every pair, the median and
quartiles per side, the head's wins per workload, and whether every
interpreter of both sides wrote the same `results.csv` bytes.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 10  # fresh-interpreter pairs per workload, alternating which side goes first
PASSES = 2  # grids per interpreter, as the benchmark's minimum passes per run
WORKLOADS = ("desk-overlap", "csv-scale")


def measure(src: str, config: str, out: str) -> dict:
    """Run in a fresh interpreter: PASSES grids of `config` with `src`'s package."""
    sys.path.insert(0, src)
    from regroupbench.cli import main

    walls = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", config, "--out", out])
        walls.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"regroupbench run exited {code}")
    lines = (Path(out) / "results.csv").read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("wall_time_s")
    stripped = "\n".join(",".join(c[:col] + c[col + 1:]) for c in (ln.split(",") for ln in lines))
    return {
        "wall_s": sum(walls) / len(walls),
        "rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "results_sha256": hashlib.sha256(stripped.encode()).hexdigest(),
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def quartiles(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src")
    parser.add_argument("--seed", type=int, default=1201, help="workload seed")
    parser.add_argument("--out", default="BENCH_grid.json")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS as GENERATORS

    sides = {"base": str(Path(args.base_src).resolve()), "head": str(Path(args.head_src).resolve())}
    work = ROOT / ".bench_grid_work" / f"seed{args.seed}"
    pairs, digests, info = {}, set(), {}
    for name in WORKLOADS:
        (work / name).mkdir(parents=True, exist_ok=True)
        workload = GENERATORS[name](args.seed, work / name)
        config, info[name] = workload.configs[0], workload.info
        pairs[name] = []
        for r in range(ROUNDS):
            pair = {}
            for side in (["base", "head"] if r % 2 == 0 else ["head", "base"]):
                cmd = [sys.executable, __file__, "--measure", sides[side], config,
                       str(work / name / "out")]
                proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
                pair[side] = json.loads(proc.stdout)
                digests.add((name, pair[side].pop("results_sha256")))
            pair["first"] = "base" if r % 2 == 0 else "head"
            pairs[name].append(pair)
            print(f"{name} round {r}: base {pair['base']['wall_s']:.3f} s, "
                  f"head {pair['head']['wall_s']:.3f} s", file=sys.stderr)

    summary = {}
    for name, rounds in pairs.items():
        summary[name] = {
            side: {key: quartiles([p[side][key] for p in rounds])
                   for key in ("wall_s", "rss_self_mb", "rss_children_mb")}
            for side in sides
        }
        summary[name]["head_wins_wall_s"] = sum(p["head"]["wall_s"] < p["base"]["wall_s"]
                                                for p in rounds)
    report = {
        "environment": environment(),
        "workload_seed": args.seed,
        "grid_seeds": {name: info[name]["grid_seeds"] for name in WORKLOADS},
        "rounds": ROUNDS,
        "passes_per_interpreter": PASSES,
        "results_csv_equal": len(digests) == len(WORKLOADS),
        "summary": summary,
        "pairs": {name: [{k: (v if isinstance(v, str) else {m: round(x, 4) for m, x in v.items()})
                          for k, v in p.items()} for p in rounds]
                  for name, rounds in pairs.items()},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(ROOT / ".bench_grid_work")
    for name in WORKLOADS:
        s = summary[name]
        print(f"{name}: wall_s base {s['base']['wall_s']['median']} -> head "
              f"{s['head']['wall_s']['median']} (head faster in {s['head_wins_wall_s']}/{ROUNDS}); "
              f"rss self {s['base']['rss_self_mb']['median']} -> {s['head']['rss_self_mb']['median']}"
              f" MB, workers {s['head']['rss_children_mb']['median']} MB")
    print(f"results.csv without wall_time_s equal: {report['results_csv_equal']}")
    return 0 if report["results_csv_equal"] else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--measure"]:  # one side's fresh interpreter
        print(json.dumps(measure(*sys.argv[2:5])))
    else:
        raise SystemExit(main())
