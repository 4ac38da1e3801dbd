"""Command-line interface: run experiment grids, score prediction files,
and synthesize benchmark datasets."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset import (
    DatasetError,
    generate_imbalanced_mixture,
    mixture_from_dict,
    read_csv_columns,
    save_csv_dataset,
)
from .harness import HarnessError, builtin_mixture, load_config, run_grid, write_results
from .metrics import MetricError, confusion_table, per_class_ap, summary_metrics
from .trainer import FULL_RECIPE


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seeds:
            cfg = replace(cfg, seeds=args.seeds)
    except HarnessError as exc:
        print(f"config {args.config}: {exc}", file=sys.stderr)
        return 2
    if args.out:
        cfg = replace(cfg, output_dir=args.out)
    if args.paper_recipe:
        cfg = replace(cfg, train=FULL_RECIPE)
    rows, aggregates = run_grid(cfg)
    results, summary = write_results(rows, aggregates, cfg.output_dir)
    print(summary.read_text(encoding="utf-8"), end="")
    print(f"wrote {results} and {summary}")
    failed = [r for r in rows if r.error]
    for r in failed:
        print(f"FAILED {r.method} seed={r.seed}: {r.error}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_metrics(args) -> int:
    """Score a prediction CSV: the truth column holds integer labels, every
    other column is a per-class score in class-id order."""
    try:
        scores, y = read_csv_columns(args.pred, args.truth_col, int)
    except DatasetError as exc:
        print(f"prediction CSV {exc}", file=sys.stderr)
        return 2
    pred = np.argmax(scores, axis=1)
    try:
        try:
            y = np.array(y, dtype=np.int64)
        except OverflowError:  # a label past int64 is outside the score columns too
            raise MetricError(f"labels outside 0..{scores.shape[1] - 1}") from None
        report = summary_metrics(confusion_table(y, pred, num_classes=scores.shape[1]))
        aps, macro = per_class_ap(y, scores)
    except MetricError as exc:
        print(f"prediction CSV {args.pred}: {exc}", file=sys.stderr)
        return 2
    report = replace(report, ap_per_class=aps, macro_ap=macro)
    print(report.to_json())
    return 0


def _cmd_synth(args) -> int:
    try:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        if "builtin" in doc:
            spec = builtin_mixture(doc["builtin"])
            if "seed" in doc:
                spec = replace(spec, seed=doc["seed"])
        else:
            spec = mixture_from_dict(doc)
    except (OSError, TypeError, ValueError) as exc:  # HarnessError, DatasetError: ValueErrors
        print(f"spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    ds = generate_imbalanced_mixture(spec)
    save_csv_dataset(ds, args.out)
    print(f"wrote {args.out}: n={ds.n}, D={ds.dim}, class_counts={list(ds.class_counts)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regroupbench",
        description="Imbalanced-classification benchmark: regrouping vs standard baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a method x seed experiment grid")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--seeds", help="comma-separated seed list (overrides config)")
    p_run.add_argument(
        "--paper-recipe",
        action="store_true",
        help="use the full training recipe (300 epochs, batch 256) instead of desk defaults",
    )
    p_run.set_defaults(func=_cmd_run)

    p_metrics = sub.add_parser("metrics", help="score a prediction CSV")
    p_metrics.add_argument("--pred", required=True, help="CSV of per-class scores + truth column")
    p_metrics.add_argument("--truth-col", required=True, help="name of the truth label column")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.add_argument("--spec", required=True, help="JSON mixture spec or builtin family")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.set_defaults(func=_cmd_synth)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
