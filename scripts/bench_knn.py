"""Time the nearest-neighbour kernels of a base and a head `src/` tree.

    python scripts/bench_knn.py BASE_SRC HEAD_SRC [--out BENCH_knn.json]

BASE_SRC and HEAD_SRC are `src/` directories, for example of a `git archive`
of the parent commit and of this checkout. Two kernels and two full fits are
timed:

- k-means assignment: each of 8,000 rows (D = 16) to its nearest of 40
  centroids, the centroids after 5 Lloyd steps from k-means++ seeds. That is
  the size of the csv-scale benchmark's largest class and its k.
- SMOTE neighbours: each row's 5 nearest other rows of an m-row class
  (D = 16), for m = 1,200 (csv-scale's SMOTE class) and 5,000, and for
  m = 20,000 on the head side only, where the old blocked brute force takes
  minutes.
- `kmeans_fit` to convergence (k-means++ seeds, Lloyd steps, final
  assignment), as regrouping calls it with the distinct-row count given, at
  csv-scale's two class shapes: 8,000 x 16 with k = 40 (12 blobs) and
  1,200 x 16 with k = 6 (3 blobs).

Rows are unit-noise Gaussian blobs around centres drawn from N(0, 1.2^2), as
in the csv-scale workload. A tree with `clustering.k_nearest` is timed
through it; an older tree through `clustering._assign` and
`resampling._nearest_neighbors`. Each round runs one fresh interpreter per
side, alternating which side goes first; each interpreter makes one warm-up
call per kernel before its timed calls. Both sides must return the same ids
and, for the fits, the same centroids, assignments and inertia trace. The
output file holds the environment, every sample, the median and quartiles per
side in milliseconds, and per round (a base/head pair of interpreters) each
side's median, the head's wins and the median of the pairs' speedups.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CSV_CENTRE_SD, CSV_DIM  # noqa: E402

ROUNDS = 10  # fresh interpreters per side, alternating which side goes first
REPEATS = {"kmeans_assign": 20, "smote_1200": 5, "smote_5000": 1, "smote_20000": 1,
           "kmeans_fit_8000": 5, "kmeans_fit_1200": 20}
HEAD_ONLY = ("smote_20000",)
KMEANS_ROWS, KMEANS_K, SMOTE_K = 8_000, 40, 5


def blobs(m: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0xB10B])
    centres = rng.normal(0.0, CSV_CENTRE_SD, size=(count, CSV_DIM))
    return centres[rng.integers(count, size=m)] + rng.standard_normal((m, CSV_DIM))


def measure(src: str) -> dict:
    """Run in a fresh interpreter: time each kernel of `src`'s package."""
    sys.path.insert(0, src)
    from regroupbench import clustering, resampling

    if hasattr(clustering, "k_nearest"):
        def assign(X, C):
            return clustering.k_nearest(X, C, 1)[:, 0]

        def neighbours(rows):
            return clustering.k_nearest(rows, rows, SMOTE_K, exclude_self=True)
    else:
        assign = clustering._assign

        def neighbours(rows):
            return resampling._nearest_neighbors(rows, SMOTE_K)

    X = blobs(KMEANS_ROWS, 12, 1)
    C = clustering.kmeans_fit(X, KMEANS_K, seed=0, max_iter=5).centroids
    calls = {"kmeans_assign": lambda: assign(X, C)}
    for m in (1_200, 5_000, 20_000):
        rows = blobs(m, 3, m)
        calls[f"smote_{m}"] = lambda rows=rows: neighbours(rows)
    if not hasattr(clustering, "k_nearest"):
        for name in HEAD_ONLY:
            del calls[name]
    fits = (("kmeans_fit_8000", X, KMEANS_K), ("kmeans_fit_1200", blobs(1_200, 3, 1_200), 6))
    for name, rows, k in fits:
        distinct = np.unique(rows, axis=0).shape[0]
        calls[name] = lambda rows=rows, k=k, distinct=distinct: clustering.kmeans_fit(
            rows, k, seed=0, _n_distinct=distinct)
    for name in ("kmeans_assign", "smote_1200", "kmeans_fit_1200"):  # warm-ups
        calls[name]()
    samples, digests = {}, {}
    for name, call in calls.items():
        samples[name] = []
        for _ in range(REPEATS[name]):
            t0 = time.perf_counter()
            out = call()
            samples[name].append(1e3 * (time.perf_counter() - t0))
        if isinstance(out, clustering.KMeansModel):  # the model's bits, not just its ids
            out = (out.centroids, out.assignments, np.array(out.inertia_trace))
        else:
            out = (np.asarray(out, dtype=np.int64),)
        digests[name] = hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()
    return {"samples": samples, "digests": digests}


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
    parser.add_argument("--out", default="BENCH_knn.json")
    args = parser.parse_args()
    sides = {"base": str(Path(args.base_src).resolve()), "head": str(Path(args.head_src).resolve())}
    samples = {side: {} for side in sides}
    rounds = {side: {} for side in sides}  # per kernel, each interpreter's median
    digests = {}
    for r in range(ROUNDS):
        for side in (["base", "head"] if r % 2 == 0 else ["head", "base"]):
            cmd = [sys.executable, __file__, "--measure", sides[side]]
            doc = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
            for name, values in doc["samples"].items():
                samples[side].setdefault(name, []).extend(values)
                rounds[side].setdefault(name, []).append(float(np.median(values)))
            for name, digest in doc["digests"].items():
                digests.setdefault(name, set()).add(digest)
    if any(len(d) != 1 for d in digests.values()):
        print("neighbour ids or k-means models differ between runs or sides", file=sys.stderr)
        return 1
    report = {
        "environment": environment(),
        "input": f"Gaussian blobs, D = {CSV_DIM}: k-means assignment of {KMEANS_ROWS} rows "
                 f"(12 blobs) to {KMEANS_K} centroids; SMOTE's {SMOTE_K} nearest other rows "
                 f"of an m-row class (3 blobs); {', '.join(HEAD_ONLY)} only on a tree with k_nearest; "
                 f"kmeans_fit to convergence of 8,000 rows (12 blobs, k = {KMEANS_K}) and "
                 f"1,200 rows (3 blobs, k = 6), seed 0, distinct-row count given",
        "rounds": ROUNDS,
        "calls_per_round": REPEATS,
        "ids_equal": True,
        "summary": {side: {name: quartiles(v) for name, v in s.items()} for side, s in samples.items()},
        "pairs": {name: {
            "base_ms": [round(x, 3) for x in rounds["base"][name]],
            "head_ms": [round(x, 3) for x in head],
            "head_wins": sum(h < b for h, b in zip(head, rounds["base"][name])),
            "median_speedup": round(float(np.median(np.divide(rounds["base"][name], head))), 3),
        } for name, head in rounds["head"].items() if name in rounds["base"]},
        "samples_ms": {side: {name: [round(x, 3) for x in v] for name, v in s.items()}
                       for side, s in samples.items()},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, head in report["summary"]["head"].items():
        base = report["summary"]["base"].get(name, {}).get("median_ms")
        pair = report["pairs"].get(name, {})
        print(f"{name}: base {base} ms, head {head['median_ms']} ms; head faster in "
              f"{pair.get('head_wins')}/{ROUNDS} pairs, median speedup "
              f"{pair.get('median_speedup')}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--measure"]:  # one side's fresh interpreter
        print(json.dumps(measure(sys.argv[2])))
    else:
        raise SystemExit(main())
