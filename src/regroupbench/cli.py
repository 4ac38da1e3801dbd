"""Command-line interface: run experiment grids, score prediction files,
and synthesize benchmark datasets."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset import generate_imbalanced_mixture, save_csv_dataset
from .harness import (
    BUILTIN_FAMILIES,
    _mixture_from_dict,
    load_config,
    run_grid,
    write_results,
)
from .metrics import MetricError, confusion_table, per_class_ap, summary_metrics
from .trainer import FULL_RECIPE


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.out:
        cfg = replace(cfg, output_dir=args.out)
    if args.seeds:
        cfg = replace(cfg, seeds=tuple(int(s) for s in args.seeds.split(",")))
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
    lines = Path(args.pred).read_text(encoding="utf-8").strip().splitlines()
    if len(lines) < 2:
        print(f"prediction CSV {args.pred} has no data rows", file=sys.stderr)
        return 2
    header = lines[0].split(",")
    if args.truth_col not in header:
        print(f"truth column {args.truth_col!r} not in header {header}", file=sys.stderr)
        return 2
    truth_idx = header.index(args.truth_col)
    score_idx = [j for j in range(len(header)) if j != truth_idx]
    y, scores = [], []
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells, expected {len(header)}")
            y.append(int(cells[truth_idx]))
            scores.append([float(cells[j]) for j in score_idx])
    except ValueError as exc:
        print(f"prediction CSV {args.pred}, line {lineno}: {exc}", file=sys.stderr)
        return 2
    y = np.array(y)
    scores = np.array(scores)
    pred = np.argmax(scores, axis=1)
    try:
        report = summary_metrics(confusion_table(y, pred, num_classes=scores.shape[1]))
        aps, macro = per_class_ap(y, scores)
    except MetricError as exc:
        print(f"prediction CSV {args.pred}: {exc}", file=sys.stderr)
        return 2
    report = replace(report, ap_per_class=aps, macro_ap=macro)
    print(report.to_json())
    return 0


def _cmd_synth(args) -> int:
    doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    if "builtin" in doc:
        if doc["builtin"] not in BUILTIN_FAMILIES:
            print(f"unknown builtin family {doc['builtin']!r}; expected one of "
                  f"{sorted(BUILTIN_FAMILIES)}", file=sys.stderr)
            return 2
        spec = BUILTIN_FAMILIES[doc["builtin"]]()
        if "seed" in doc:
            spec = replace(spec, seed=int(doc["seed"]))
    else:
        spec = _mixture_from_dict(doc)
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
