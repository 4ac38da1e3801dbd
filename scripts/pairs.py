"""Time one topic in a base revision and in this checkout, in rotating rounds.

    python scripts/pairs.py BASE_REV TOPIC [--out BENCH_<topic>.json]

BASE_REV is any git revision. It is checked out, with no network, into a
detached `git worktree` at `.pairs_work/base`, and its `src/` is the base
side; the head side is a copy of this checkout's `src/`, without
`__pycache__`, at `.pairs_work/head/src`; the self side is a copy of the
base's `src/` at `.pairs_work/self/src`, so base against self is a pair of
identical code that shows how far the machine alone moves a point. The three
paths have one length, as the length of the path a side runs from moves its
peak RSS by megabytes. The topic's input files are written once into
`.pairs_work/` as well, so every side reads the same paths (a grid's
`config_hash` covers its CSV path). The worktree and the work directory are
removed at the end, also when a side fails.

For each of the topic's inputs, each of ROUNDS rounds runs one fresh
interpreter per side, rotating which side goes first (base, head, self; then
head, self, base; then self, base, head; and so on). An interpreter
(`pairs.py --measure TOPIC SRC JOB`) imports the package from SRC, measures
and prints its samples and output digests as JSON. The topics:

- `grid`: the benchmark's desk-overlap, csv-scale and score-csv workloads
  (`perfbench/workloads.py`, workload seed SEED), one interpreter per
  workload. A pass hands every op of the workload, in order, to
  `regroupbench.cli.main` with stdout captured: a `regroupbench run` grid, and
  for score-csv the `regroupbench metrics` calls after its smoke grid. Each
  interpreter runs GRID_PASSES passes. Points per workload: `wall_s`, the
  mean wall time of the passes; `rss_self_mb`, the interpreter's own peak
  resident memory (`VmHWM` in `/proc/self/status`, which starts afresh at
  exec; `RUSAGE_SELF`'s `ru_maxrss`, which the benchmark's `peak_rss_mb`
  reads, a child inherits from the process that started it);
  `rss_children_mb`, the largest peak of the processes it waited for, that
  is of the pool workers that ran the columns. The outputs are each
  run op's `results.csv` without `wall_time_s` and its `summary.txt`, and
  each metrics op's stdout.
- `grid-serial`: the same with every interpreter pinned to one CPU (as
  `taskset -c 0` does), so `run_grid` runs the columns in-process.
- `knn`: the nearest-neighbour kernels, in ms, on unit-noise Gaussian blobs
  around centres drawn from N(0, 1.2^2) (D = 16), as in csv-scale.
  `kmeans_assign` gives each of 8,000 rows its nearest of 40 centroids, the
  centroids after 5 Lloyd steps from k-means++ seeds (csv-scale's largest
  class and its k). `smote_<m>` finds each row's 5 nearest other rows of an
  m-row class. `kmeans_fit_<n>` fits to convergence as regrouping calls it,
  at csv-scale's two class shapes: 8,000 rows with
  k = 40 (12 blobs) and 1,200 rows with k = 6 (3 blobs). The outputs are the
  neighbour ids and the models' centroids, assignments and inertia traces.
- `metrics_cli`: `read_csv_columns`, `per_class_ap` and one `cli.main`
  metrics call, in ms, on score-csv's first prediction file (50,000 rows, 20
  score columns in thousandths, so the block-tie AP path runs). The output is
  the metrics JSON.
- `trainer`: the desk recipe's shapes (n = 800 rows, D = 2, one hidden layer
  of 32, batch 64, CE on one Gaussian blob per class). `step_S{1,8}_C{2,10}`
  is µs per model-step: the wall time of one `train` call of S stacked models
  over TRAINER_EPOCHS epochs, epoch-end divergence checks included, over
  S x steps. `step_S8_C2_one_stops` is the same S = 8, C = 2 fit with one
  model's rows scaled by 1e140, so its logits overflow at an early step and
  it stops while the others train on: the cost of a stack that holds a
  stopped model. `loss_and_grad_512x{2,10}` is one `losses.loss_and_grad`
  call on 512 rows of logits, in µs. The outputs are the trained weights,
  biases, learning rates and step losses (a stopped model's: its message),
  and the loss values and gradients.

The output file holds `environment`, `revisions`, `input`, `rounds`,
`points` and `outputs_equal`. `revisions` holds `base`, the commit BASE_REV
resolves to; `head`, this checkout's HEAD commit; and `src_changed`, whether
this checkout's `src/` differs from HEAD (the head side measures it as it
stands). Per point: its `unit`; `first`, the side that ran first in each of
its rounds, in order (so a point that moves with run order, such as csv-scale's
bimodal RSS, can be traced to it); per side its `samples`, each
interpreter's median (`rounds`) and the median and quartiles of the samples;
`head_wins`, the rounds whose head median is below the base median (ties
count for neither side); `median_speedup`, the median over rounds of
base / head; `self_wins` and `self_median_speedup`, the same for the self
side against the base; and `verdict`, whether the difference counts by the
rule a claimed gain must meet: `faster` when head is lower in at least nine
tenths of the rounds and the median of the base round medians exceeds that
of head's by more than both their interquartile range (q3 - q1 of the base
round medians) and the self-pair's gap (the base median less the self
median, either way), `slower` when the same holds with base and head
swapped, and `unresolved` otherwise. `outputs_equal` says whether every
interpreter of every side gave the same outputs; the run exits 1 if not.
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
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from checks import strip_wall_time  # noqa: E402
from workloads import (CSV_CENTRE_SD, CSV_DIM, SCORE_CLASSES, SCORE_ROWS,  # noqa: E402
                       WORKLOADS, score_matrix, write_prediction_csv)

ROUNDS = 10  # fresh-interpreter rounds per input, rotating which side goes first
SIDES = ("base", "head", "self")
WORK = ROOT / ".pairs_work"
SEED = 1201  # workload seed of the grids and of the metrics_cli prediction file
GRID_PASSES = 2  # grids per interpreter, as the benchmark's minimum passes per run
KNN_REPEATS = {"kmeans_assign": 20, "smote_1200": 5, "smote_5000": 1, "smote_20000": 1,
               "kmeans_fit_8000": 5, "kmeans_fit_1200": 20}
KMEANS_ROWS, KMEANS_K, SMOTE_K = 8_000, 40, 5
METRICS_REPEATS = 3
TRAINER_REPEATS = 5
N, D, HIDDEN, BATCH, TRAINER_EPOCHS, LOSS_ROWS = 800, 2, 32, 64, 20, 512


def clock(call: Callable, repeats: int, scale: float = 1e3) -> tuple[list, object]:
    """`repeats` timed calls of `call`, each in seconds x `scale`, and the last output."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = call()
        samples.append(scale * (time.perf_counter() - t0))
    return samples, out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def grid_inputs(work: Path) -> tuple[str, list[dict]]:
    jobs, seeds = [], {}
    for name in ("desk-overlap", "csv-scale", "score-csv"):
        (work / name).mkdir()
        workload = WORKLOADS[name](SEED, work / name)
        seeds[name] = workload.info["grid_seeds"]
        jobs.append({"workload": name, "ops": [list(op.argv) for op in workload.ops]})
    return (f"perfbench workloads desk-overlap, csv-scale and score-csv, workload seed {SEED}, "
            f"grid seeds {seeds}; every op of the workload per pass, {GRID_PASSES} passes per "
            "interpreter"), jobs


def own_peak_rss_mb() -> float:
    """This process's peak resident memory in MB, `VmHWM` (in kB), which
    starts afresh at exec."""
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024.0


def measure_grid(job: dict) -> dict:
    from regroupbench.cli import main

    walls = []
    for _ in range(GRID_PASSES):
        stdouts = []
        t0 = time.perf_counter()
        for argv in job["ops"]:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(argv)
            if code != 0:
                raise SystemExit(f"regroupbench {argv[0]} exited {code}")
            stdouts.append(out.getvalue())
        walls.append(time.perf_counter() - t0)
    name, digests = job["workload"], {}
    for i, (argv, text) in enumerate(zip(job["ops"], stdouts)):
        if argv[0] == "run":  # the grid's results.csv and summary.txt, not its stdout
            grid_out = Path(argv[argv.index("--out") + 1])
            summary = (grid_out / "summary.txt").read_bytes()
            digests[f"{name} op {i} summary.txt"] = sha256(summary)
            text = strip_wall_time((grid_out / "results.csv").read_text(encoding="utf-8"))
        digests[f"{name} op {i}"] = sha256(text.encode())
    return {
        "points": {
            f"{name} wall_s": ("s", [sum(walls) / len(walls)]),
            f"{name} rss_self_mb": ("MB", [own_peak_rss_mb()]),
            f"{name} rss_children_mb":
                ("MB", [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]),
        },
        "digests": digests,
    }


def knn_blobs(m: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0xB10B])
    centres = rng.normal(0.0, CSV_CENTRE_SD, size=(count, CSV_DIM))
    return centres[rng.integers(count, size=m)] + rng.standard_normal((m, CSV_DIM))


def knn_inputs(work: Path) -> tuple[str, list[dict]]:
    return (f"Gaussian blobs, D = {CSV_DIM}: k-means assignment of {KMEANS_ROWS} rows "
            f"(12 blobs) to {KMEANS_K} centroids; SMOTE's {SMOTE_K} nearest other rows of an "
            f"m-row class (3 blobs); kmeans_fit to convergence of 8,000 rows (12 blobs, "
            f"k = {KMEANS_K}) and 1,200 rows (3 blobs, k = 6), seed 0; calls per "
            f"interpreter {KNN_REPEATS}"), [{}]


def measure_knn(job: dict) -> dict:
    from regroupbench import clustering

    X = knn_blobs(KMEANS_ROWS, 12, 1)
    C = clustering.kmeans_fit(X, KMEANS_K, seed=0, max_iter=5).centroids
    calls = {"kmeans_assign": lambda: clustering.k_nearest(X, C, 1)[:, 0]}
    for m in (1_200, 5_000, 20_000):
        rows = knn_blobs(m, 3, m)
        calls[f"smote_{m}"] = lambda rows=rows: clustering.k_nearest(
            rows, rows, SMOTE_K, exclude_self=True)
    fits = (("kmeans_fit_8000", X, KMEANS_K), ("kmeans_fit_1200", knn_blobs(1_200, 3, 1_200), 6))
    for name, rows, k in fits:
        calls[name] = lambda rows=rows, k=k: clustering.kmeans_fit(rows, k, seed=0)
    for name in ("kmeans_assign", "smote_1200", "kmeans_fit_1200"):  # warm-ups
        calls[name]()
    points, digests = {}, {}
    for name, call in calls.items():
        samples, out = clock(call, KNN_REPEATS[name])
        points[name] = ("ms", samples)
        if isinstance(out, clustering.KMeansModel):  # the model's bits, not just its ids
            out = (out.centroids, out.assignments, np.array(out.inertia_trace))
        else:
            out = (np.asarray(out, dtype=np.int64),)
        digests[name] = sha256(b"".join(a.tobytes() for a in out))
    return {"points": points, "digests": digests}


def metrics_cli_inputs(work: Path) -> tuple[str, list[dict]]:
    pred = work / "pred.csv"
    write_prediction_csv(*score_matrix(SEED, 0), pred)
    return (f"score-csv prediction file (seed {SEED}, file 0): {SCORE_ROWS} rows x "
            f"{SCORE_CLASSES} score columns in thousandths + integer truth column; "
            f"{METRICS_REPEATS} calls per interpreter after one warm-up"), [{"pred": str(pred)}]


def measure_metrics_cli(job: dict) -> dict:
    from regroupbench.cli import main
    from regroupbench.dataset import read_csv_columns
    from regroupbench.metrics import per_class_ap

    def metrics_json():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            main(["metrics", "--pred", job["pred"], "--truth-col", "label"])
        return out.getvalue()

    scores, y = read_csv_columns(job["pred"], "label", int)
    y = np.array(y)
    calls = {"read_csv_columns": lambda: read_csv_columns(job["pred"], "label", int),
             "per_class_ap": lambda: per_class_ap(y, scores),
             "metrics_call": metrics_json}
    points = {}
    for name, call in calls.items():
        call()  # warm-up
        points[name] = ("ms", clock(call, METRICS_REPEATS)[0])
    return {"points": points, "digests": {"metrics_json": sha256(metrics_json().encode())}}


def class_blobs(n: int, C: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, C, 0x7A1])
    y = np.arange(n) % C
    return rng.normal(0.0, 2.0, size=(C, D))[y] + rng.standard_normal((n, D)), y


def trainer_inputs(work: Path) -> tuple[str, list[dict]]:
    return (f"n = {N} rows, D = {D}, hidden {HIDDEN}, batch {BATCH}, {TRAINER_EPOCHS} epochs, "
            "CE; one Gaussian blob per class; step = train() wall / (S x steps), epoch-end "
            f"checks included; loss_and_grad on {LOSS_ROWS} rows; {TRAINER_REPEATS} calls per "
            "interpreter after one warm-up"), [{}]


def measure_trainer(job: dict) -> dict:
    from regroupbench import losses, trainer
    from regroupbench.dataset import Dataset

    def fit(S, C, stops=False):
        datasets = [Dataset(*class_blobs(N, C, s)) for s in range(S)]
        if stops:  # the first model's logits overflow, and it stops
            datasets[0] = Dataset(datasets[0].features * 1e140, datasets[0].labels)
        specs = [trainer.MlpSpec(D, C, (HIDDEN,), init_seed=s) for s in range(S)]
        cfgs = [trainer.TrainConfig(epochs=TRAINER_EPOCHS, batch_size=BATCH, shuffle_seed=s)
                for s in range(S)]

        def call():
            out = []
            for result in trainer.train(datasets, specs, losses.LossSpec("ce"), cfgs):
                if isinstance(result, trainer.TrainingDiverged):
                    out.append(str(result).encode())
                    continue
                model, history = result
                out += [a.tobytes() for a in (*model.weights, *model.biases)]
                out.append(repr((history.learning_rate, history.step_loss)).encode())
            return out
        return call

    def loss_and_grad(C):
        rng = np.random.default_rng([C, 0x1055])
        Z, y = rng.standard_normal((LOSS_ROWS, C)) * 3.0, rng.integers(C, size=LOSS_ROWS)
        spec = losses.LossSpec("ce")
        return lambda: [a.tobytes() for a in losses.loss_and_grad(Z, y, spec)]

    calls, per_call = {}, {}
    for C in (2, 10):
        for S in (1, 8):
            calls[f"step_S{S}_C{C}"] = fit(S, C)
            per_call[f"step_S{S}_C{C}"] = S * TRAINER_EPOCHS * -(-N // BATCH)
        if C == 2:
            calls["step_S8_C2_one_stops"] = fit(8, 2, stops=True)
            per_call["step_S8_C2_one_stops"] = per_call["step_S8_C2"]
        calls[f"loss_and_grad_{LOSS_ROWS}x{C}"] = loss_and_grad(C)
        per_call[f"loss_and_grad_{LOSS_ROWS}x{C}"] = 1
    points, digests = {}, {}
    for name, call in calls.items():
        call()  # warm-up
        samples, out = clock(call, TRAINER_REPEATS, 1e6 / per_call[name])
        points[name] = ("us", samples)
        digests[name] = sha256(b"".join(out))
    return {"points": points, "digests": digests}


class Topic(NamedTuple):
    inputs: Callable  # (work dir) -> (description, one job per interpreter); writes input files
    measure: Callable  # (job) -> {"points": {name: (unit, samples)}, "digests": {name: hex}}
    serial: bool = False  # pin each interpreter to one CPU


TOPICS = {
    "grid": Topic(grid_inputs, measure_grid),
    "grid-serial": Topic(grid_inputs, measure_grid, serial=True),
    "knn": Topic(knn_inputs, measure_knn),
    "metrics_cli": Topic(metrics_cli_inputs, measure_metrics_cli),
    "trainer": Topic(trainer_inputs, measure_trainer),
}


def side(topic: str, src: str, job: dict) -> dict:
    """Measure `job` in one fresh interpreter that imports the package from `src`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--measure", topic, src, json.dumps(job)]
    one_cpu = {min(os.sched_getaffinity(0))}
    pin = partial(os.sched_setaffinity, 0, one_cpu) if TOPICS[topic].serial else None
    proc = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=pin)
    if proc.returncode != 0:
        raise SystemExit(f"{topic} with {src} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


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


def verdict(base: list, head: list, self_: list) -> str:
    """`faster`, `slower` or `unresolved`: head against base by the win and spread rule of
    the module docstring, given each side's per-round medians (self's may be empty)."""
    q1, mid, q3 = np.percentile(base, [25, 50, 75])
    gap = float(mid - np.median(head))
    noise = max(q3 - q1, abs(mid - np.median(self_)) if self_ else 0.0)
    for name, wins, sign in (("faster", sum(h < b for b, h in zip(base, head)), 1),
                             ("slower", sum(h > b for b, h in zip(base, head)), -1)):
        if wins >= 0.9 * len(base) and sign * gap > noise:
            return name
    return "unresolved"


def against_base(base: list, other: list) -> tuple[int, float | None]:
    """The rounds whose `other` median is below the base median, and the median over
    rounds of base / other (None without rounds, or against a reading of 0)."""
    wins = sum(x < b for b, x in zip(base, other))
    if not other or not all(other):
        return wins, None
    return wins, round(float(np.median(np.divide(base, other))), 4)


def summarize(pairs: list[dict]) -> dict:
    """The report's `points` and `outputs_equal` from `pairs`, one
    {side: measure output} per round and input, in run order. As `record` runs
    them, every round holds the same sides (base and head, with self in every
    round or in none), and each side of a round the same points, so each
    point's rounds line up by position; any other shape raises ValueError."""
    points, digests = {}, {}
    for pair in pairs:
        if (set(pair) != set(pairs[0]) or not {"base", "head"} <= set(pair)
                or len({frozenset(doc["points"]) for doc in pair.values()}) > 1):
            raise ValueError(f"a round of sides {sorted(pair)} against {sorted(pairs[0])}: "
                             "every round needs base, head and one set of points")
        first = next(iter(pair))  # record fills each round in run order
        for name, doc in pair.items():
            for point, (unit, samples) in doc["points"].items():
                entry = points.setdefault(point, {"unit": unit, "first": []})
                side = entry.setdefault(name, {"samples": [], "rounds": []})
                side["samples"] += samples
                side["rounds"].append(float(np.median(samples)))
                if name == first:
                    entry["first"].append(name)
            for output, digest in doc["digests"].items():
                digests.setdefault(output, set()).add(digest)
    for entry in points.values():
        base, head, self_ = (entry.get(name, {"rounds": []})["rounds"] for name in SIDES)
        entry["head_wins"], entry["median_speedup"] = against_base(base, head)
        entry["self_wins"], entry["self_median_speedup"] = against_base(base, self_)
        entry["verdict"] = verdict(base, head, self_)
        for name in SIDES:
            if name in entry:
                entry[name] = {"samples": [round(x, 4) for x in entry[name]["samples"]],
                               "rounds": [round(x, 4) for x in entry[name]["rounds"]],
                               **quartiles(entry[name]["samples"])}
    return {"points": points, "outputs_equal": all(len(d) == 1 for d in digests.values())}


def git(*args: str) -> str:
    """The output of one git command in this checkout, stripped."""
    return subprocess.run(["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def record(base_rev: str, topic: str, out: str) -> int:
    """Write the rounds of `topic` between `base_rev`, this checkout and a copy of
    `base_rev` to `out`; 1 if the sides' outputs differ."""
    revisions = {"base": git("rev-parse", "--verify", f"{base_rev}^{{commit}}"),
                 "head": git("rev-parse", "HEAD"),
                 "src_changed": git("status", "--porcelain", "--", "src") != ""}
    base = WORK / "base"
    WORK.mkdir()  # refuses to run over another recorder's work directory
    try:
        git("worktree", "add", "--quiet", "--detach", str(base), revisions["base"])
        for name, src in (("head", ROOT / "src"), ("self", base / "src")):
            shutil.copytree(src, WORK / name / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (WORK / "inputs").mkdir()
        description, jobs = TOPICS[topic].inputs(WORK / "inputs")
        srcs = {name: str(WORK / name / "src") for name in SIDES}  # base: the worktree's
        pairs = []
        for i, job in enumerate(jobs):
            for r in range(ROUNDS):
                order = SIDES[r % 3:] + SIDES[:r % 3]
                pairs.append({name: side(topic, srcs[name], job) for name in order})
                print(f"{topic} input {i} round {r} done", file=sys.stderr)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)],
                       capture_output=True)
        shutil.rmtree(WORK, ignore_errors=True)
    report = {"environment": environment(), "revisions": revisions, "input": description,
              "rounds": ROUNDS, **summarize(pairs)}
    Path(out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for point, entry in report["points"].items():
        print(f"{point}: base {entry['base']['median']} -> head {entry['head']['median']} "
              f"{entry['unit']}; head lower in {entry['head_wins']}/{ROUNDS} rounds, "
              f"median speedup {entry['median_speedup']}; self lower in "
              f"{entry['self_wins']}/{ROUNDS}, self median speedup "
              f"{entry['self_median_speedup']}; {entry['verdict']}")
    print(f"outputs equal: {report['outputs_equal']}")
    return 0 if report["outputs_equal"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", help="git revision of the base side")
    parser.add_argument("topic", choices=TOPICS)
    parser.add_argument("--out", help="output file (default BENCH_<topic>.json)")
    args = parser.parse_args()
    return record(args.base_rev, args.topic, args.out or f"BENCH_{args.topic}.json")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--measure"]:  # one side's fresh interpreter: TOPIC SRC JOB
        topic, src, job = sys.argv[2:5]
        sys.path.insert(0, src)
        print(json.dumps(TOPICS[topic].measure(json.loads(job))))
    else:
        raise SystemExit(main())
