"""Time `regroupbench metrics` and its two kernels on a base and a head tree.

    python scripts/bench_metrics_cli.py BASE_SRC HEAD_SRC [--out BENCH_metrics_cli.json]

BASE_SRC and HEAD_SRC are `src/` directories, for example of a `git worktree`
of the parent commit and of this checkout. The input is the first prediction
CSV of the score-csv benchmark workload (50,000 rows, 20 score columns rounded
to 3 decimals, so the block-tie AP path runs), written by perfbench's own
generator. Each round runs one fresh interpreter per side, alternating which
side goes first. Each interpreter times, after one warm-up call,
`read_csv_columns`, `per_class_ap` and one `cli.main` metrics call, and
reports the metrics JSON; the two sides' JSON must be equal. The output file
holds the environment, every sample, and the median and quartiles per side
in milliseconds.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import SCORE_CLASSES, SCORE_ROWS, score_matrix, write_prediction_csv  # noqa: E402

ROUNDS = 10  # fresh interpreters per side, alternating which side goes first
REPEATS = 3  # timed calls per interpreter, after one warm-up call
SEED = 1201  # workload seed of the prediction file (score-csv's first file)


def measure(src: str, pred: str) -> dict:
    """Run in a fresh interpreter: time the three calls on `src`'s package."""
    sys.path.insert(0, src)
    from regroupbench.cli import main
    from regroupbench.dataset import read_csv_columns
    from regroupbench.metrics import per_class_ap

    def metrics_json():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            main(["metrics", "--pred", pred, "--truth-col", "label"])
        return out.getvalue()

    def ms(call):
        call()  # warm-up
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            samples.append(1e3 * (time.perf_counter() - t0))
        return samples

    scores, y = read_csv_columns(pred, "label", int)
    y = np.array(y)
    return {
        "read_csv_columns": ms(lambda: read_csv_columns(pred, "label", int)),
        "per_class_ap": ms(lambda: per_class_ap(y, scores)),
        "metrics_call": ms(metrics_json),
        "metrics_json": metrics_json(),
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


def quartiles(samples: list) -> dict:
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_ms": round(float(med), 2), "q1_ms": round(float(q1), 2), "q3_ms": round(float(q3), 2)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src")
    parser.add_argument("--out", default="BENCH_metrics_cli.json")
    args = parser.parse_args()
    sides = {"base": str(Path(args.base_src).resolve()), "head": str(Path(args.head_src).resolve())}
    samples = {side: {"read_csv_columns": [], "per_class_ap": [], "metrics_call": []} for side in sides}
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        pred = Path(tmp) / "pred.csv"
        write_prediction_csv(*score_matrix(SEED, 0), pred)
        for r in range(ROUNDS):
            for side in (["base", "head"] if r % 2 == 0 else ["head", "base"]):
                cmd = [sys.executable, __file__, "--measure", sides[side], str(pred)]
                doc = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
                outputs.setdefault(side, set()).add(doc.pop("metrics_json"))
                for name, values in doc.items():
                    samples[side][name].extend(values)
    if len(outputs["base"] | outputs["head"]) != 1:
        print("metrics JSON differs between runs or sides", file=sys.stderr)
        return 1
    report = {
        "environment": environment(),
        "input": f"score-csv prediction file (seed {SEED}, file 0): {SCORE_ROWS} rows x "
                 f"{SCORE_CLASSES} score columns in thousandths + integer truth column",
        "rounds": ROUNDS,
        "calls_per_round": REPEATS,
        "metrics_json_equal": True,
        "summary": {side: {name: quartiles(v) for name, v in s.items()} for side, s in samples.items()},
        "samples_ms": {side: {name: [round(x, 2) for x in v] for name, v in s.items()}
                       for side, s in samples.items()},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name in samples["base"]:
        base, head = (report["summary"][side][name]["median_ms"] for side in ("base", "head"))
        print(f"{name}: base {base:.1f} ms, head {head:.1f} ms")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--measure"]:  # one side's fresh interpreter
        print(json.dumps(measure(*sys.argv[2:4])))
    else:
        raise SystemExit(main())
