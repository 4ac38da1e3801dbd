"""Runs a workload's passes in a fresh interpreter and writes what it saw.

Usage: python3 perfbench/worker.py PLAN.json

The plan names the checkout root, the operations of one pass, how long to
keep running passes and whether to trace. One client runs the operations in
order, each after the previous one has returned (a closed loop). With
tracing on, passes alternate untraced / traced so the tracing overhead is
measured inside one process. The result JSON holds, per pass, the wall time,
each operation's exit code and output, and for traced passes the per-layer
metrics; the set-up probe times; and the process's peak resident memory.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_shares, summarize

# Untraced runs make at least two passes. Traced runs make at least two
# untraced and two traced passes, so the per-layer counts are compared across
# two traced passes and trace.overhead_frac is a difference of medians.
MIN_PASSES = 2
MIN_PASSES_TRACED = 4
# Set-up probes run in batches: before the first pass, after any pass that
# ends PROBE_GAP_S after the previous batch, and after the last pass. Spread
# over the run like that, their median sees the same machine as the passes.
PROBE_BATCH = 2
PROBE_GAP_S = 5.0


def import_program(root: Path):
    """Import regroupbench from the checkout's src/, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import regroupbench.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"regroupbench imported from {cli.__file__}, not from {src}")
    return cli


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary where its caller resolves the name."""
    from regroupbench import cli, harness, regrouping, trainer

    fit = getattr(regrouping, "kmeans_fit", None)
    param = inspect.signature(fit).parameters.get("max_iter") if fit else None
    max_iter = param.default if param is not None else None

    def enter_cell(t, args, kwargs):
        method, seed = args[1], args[2]
        t.cell = f"{method.name}/{seed}"

    def rows_loaded(counters, ds, args):
        counters["dataset.rows_loaded"] += ds.n

    def rows_out(counters, ds, args):
        counters["resampling.rows_out"] += ds.n

    def plan_counts(counters, result, args):
        plan = result[1]
        counters["regrouping.pseudo_classes"] += plan.pseudo_num_classes
        counters["regrouping.clamp_warnings"] += len(plan.warnings)
        for model in plan.cluster_models.values():
            counters["clustering.lloyd_iters"] += model.iterations_run
            counters["clustering.max_iter_hits"] += int(model.iterations_run == max_iter)

    def ap_rows(counters, result, args):
        counters["metrics.ap_rows"] += len(args[0])

    w = tracer.wrap
    w(cli, "run_grid", "harness.run_grid")
    w(cli, "write_results", "harness.write_results")
    w(harness, "run_experiment", "harness.run_experiment", on_call=enter_cell)
    w(harness, "load_csv_dataset", "dataset.load", on_return=rows_loaded)
    w(harness, "generate_imbalanced_mixture", "dataset.load", on_return=rows_loaded)
    w(harness, "stratified_split", "dataset.split")
    w(harness, "standardize", "dataset.standardize")
    w(harness, "resample", "resampling.resample", on_return=rows_out)
    w(harness, "regroup_binary", "regrouping.regroup", on_return=plan_counts)
    w(harness, "regroup_multiclass", "regrouping.regroup", on_return=plan_counts)
    w(regrouping, "kmeans_fit", "clustering.kmeans_fit")
    w(harness, "collapse_proba_matrix", "regrouping.collapse")
    w(harness, "train", "trainer.train")
    w(harness, "predict_proba", "trainer.predict")
    w(trainer, "batch_loss_values", "losses.values")
    w(trainer, "batch_loss_gradients", "losses.gradients")
    for module in (harness, cli):
        w(module, "per_class_ap", "metrics.per_class_ap", on_return=ap_rows)
        w(module, "confusion_table", "metrics.confusion")
        w(module, "summary_metrics", "metrics.confusion")


def layer_metrics(summary: dict, counters, steps: int, samples: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from span totals and counts."""
    def n(name):
        return summary.get(name, {}).get("n", 0)

    def dur(*names):
        return sum(summary.get(x, {}).get("dur", 0.0) for x in names)

    def own(*names):
        return sum(summary.get(x, {}).get("self", 0.0) for x in names)

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    cells = n("harness.run_experiment")
    fit_s, iters = dur("clustering.kmeans_fit"), counters["clustering.lloyd_iters"]
    loss_s = dur("losses.values", "losses.gradients")
    loss_calls = n("losses.values") + n("losses.gradients")
    return {
        "harness.cells": cells,
        "harness.cell_s": ratio(dur("harness.run_experiment"), cells),
        "harness.self_s": own("harness.run_grid", "harness.run_experiment"),
        "harness.write_s": dur("harness.write_results"),
        "dataset.load_s": dur("dataset.load"),
        "dataset.load_calls": n("dataset.load"),
        "dataset.rows_loaded": counters["dataset.rows_loaded"],
        "dataset.split_s": dur("dataset.split"),
        "dataset.standardize_s": dur("dataset.standardize"),
        "clustering.fit_s": fit_s,
        "clustering.fits": n("clustering.kmeans_fit"),
        "clustering.lloyd_iters": iters,
        "clustering.ms_per_iter": ratio(fit_s, iters, 1e3),
        "clustering.max_iter_hits": counters["clustering.max_iter_hits"],
        "regrouping.self_s": own("regrouping.regroup"),
        "regrouping.pseudo_classes": counters["regrouping.pseudo_classes"],
        "regrouping.clamp_warnings": counters["regrouping.clamp_warnings"],
        "regrouping.collapse_s": dur("regrouping.collapse"),
        "resampling.s": dur("resampling.resample"),
        "resampling.rows_out": counters["resampling.rows_out"],
        "trainer.self_s": own("trainer.train"),
        "trainer.steps": steps,
        "trainer.samples": samples,
        "trainer.step_us": ratio(dur("trainer.train"), steps, 1e6),
        "trainer.predict_s": dur("trainer.predict"),
        "losses.s": loss_s,
        "losses.calls": loss_calls,
        "losses.us_per_call": ratio(loss_s, loss_calls, 1e6),
        "metrics.ap_s": dur("metrics.per_class_ap"),
        "metrics.ap_rows": counters["metrics.ap_rows"],
        "metrics.confusion_s": dur("metrics.confusion"),
        "cli.self_s": own("cli.main"),
    }


def sgd_work(op: dict, results_text: str) -> tuple[int, int]:
    """(steps, samples) of a grid: sum over cells of epochs * ceil(n / batch)
    and epochs * n, with n the train_size column of results.csv."""
    lines = results_text.splitlines()
    if not lines:
        return 0, 0
    col = lines[0].split(",").index("train_size")
    steps = samples = 0
    for line in lines[1:]:
        size = line.split(",")[col]
        if size:
            steps += op["epochs"] * math.ceil(int(size) / op["batch_size"])
            samples += op["epochs"] * int(size)
    return steps, samples


def run_pass(cli, ops: list[dict], tracer: Tracer | None) -> dict:
    wall = cpu = 0.0
    records = []
    steps = samples = 0
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        scope = tracer.span("cli.main", cell=f"op{i}") if tracer else contextlib.nullcontext()
        error = ""
        if op["results_csv"]:
            Path(op["results_csv"]).unlink(missing_ok=True)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with scope:
                    code = cli.main(list(op["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the op failed; record it and go on
                code, error = 1, f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
        rec = {"code": code, "error": error or err.getvalue()[-2000:]}
        if op["results_csv"]:
            path = Path(op["results_csv"])
            rec["results"] = path.read_text(encoding="utf-8") if path.is_file() else ""
            s, n = sgd_work(op, rec["results"])
            steps, samples = steps + s, samples + n
        else:
            lines = out.getvalue().strip().splitlines()
            rec["stdout_last"] = lines[-1] if lines else ""
        records.append(rec)
    result = {"wall_s": wall, "cpu_s": cpu, "traced": tracer is not None, "ops": records}
    if tracer is not None:
        summary = summarize(tracer.spans)
        result["layers"] = layer_metrics(summary, tracer.counters, steps, samples)
        result["shares"] = layer_shares(summary)
        result["absent"] = tracer.absent
    return result


def measure_setup(argv: list[str]) -> list[float]:
    """Seconds each of PROBE_BATCH fresh interpreters spent on set-up."""
    times = []
    for _ in range(PROBE_BATCH):
        proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout.split()[-1]))
    return times


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    cli = import_program(Path(plan["root"]))
    passes, traces = [], []
    min_passes = MIN_PASSES_TRACED if plan["trace"] else MIN_PASSES
    deadline = time.perf_counter() + plan["seconds"]
    setup = measure_setup(plan["probe"])
    last_probe = time.perf_counter()
    done = False
    while not done:
        tracer = None
        if plan["trace"] and len(passes) % 2 == 1:
            tracer = Tracer()
            install(tracer)
        try:
            passes.append(run_pass(cli, plan["ops"], tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
                traces.append((len(passes) - 1, tracer))
        done = len(passes) >= min_passes and time.perf_counter() >= deadline
        if done or time.perf_counter() - last_probe >= PROBE_GAP_S:
            setup += measure_setup(plan["probe"])
            last_probe = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    result = {"passes": passes, "setup_s": setup, "peak_rss_mb": peak_kb / 1024.0}
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    if traces:
        with open(plan["trace_file"], "w", encoding="utf-8") as fh:
            for index, tracer in traces:
                tracer.write_jsonl(fh, index)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
