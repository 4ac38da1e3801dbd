"""Output checks: an independent AP / balanced-accuracy oracle and the
results.csv invariants every grid pass must satisfy."""
from __future__ import annotations

import csv
import hashlib
import io
import math

import numpy as np

AP_TOLERANCE = 1e-12


def block_tie_ap_oracle(indicator, scores) -> float:
    """Step-interpolated AP where every run of equal scores enters the
    ranking as one block: sum over blocks of (block positives / all
    positives) * (precision after the block). Written from the definition
    with np.unique, not from the program's argsort-based routine."""
    y = np.asarray(indicator, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    values, inverse = np.unique(s, return_inverse=True)  # ascending
    pos = np.bincount(inverse, weights=y, minlength=len(values))[::-1]
    cnt = np.bincount(inverse, minlength=len(values))[::-1]
    n_pos = float(pos.sum())
    if n_pos == 0:
        raise ValueError("no positive samples")
    tp, seen = 0.0, 0
    terms = []
    for p, k in zip(pos.tolist(), cnt.tolist()):
        tp += p
        seen += k
        if p:
            terms.append((p / n_pos) * (tp / seen))
    return math.fsum(terms)


def balanced_accuracy_oracle(y_true, scores) -> float:
    """Mean recall over the classes present, predicting the first argmax."""
    y = np.asarray(y_true, dtype=np.int64)
    pred = np.argmax(np.asarray(scores, dtype=np.float64), axis=1)
    recalls = [float(np.mean(pred[y == c] == c)) for c in np.unique(y)]
    return math.fsum(recalls) / len(recalls)


def strip_wall_time(results_text: str) -> str:
    """results.csv with the wall_time_s column removed: the bytes that the
    determinism contract says must repeat."""
    lines = results_text.splitlines()
    col = lines[0].split(",").index("wall_time_s")
    out = []
    for line in lines:
        cells = line.split(",")
        out.append(",".join(cells[:col] + cells[col + 1:]))
    return "\n".join(out) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def parse_results(results_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(results_text)))


def check_grid_rows(rows: list[dict], num_classes: int) -> list[str]:
    """Every successful cell has one AP per class, each in [0, 1]."""
    problems = []
    for r in rows:
        if r["error"]:
            continue
        cell = f"{r['method']} seed={r['seed']}"
        aps = r["ap_per_class"].split(";")
        if len(aps) != num_classes:
            problems.append(f"{cell}: {len(aps)} AP entries for {num_classes} classes")
            continue
        for a in aps:
            if a == "" or not 0.0 <= float(a) <= 1.0:
                problems.append(f"{cell}: AP entry {a!r} outside [0, 1]")
    return problems


def check_metrics_report(report: dict, expected: dict) -> list[str]:
    """The printed AP of every class and the balanced accuracy agree with the
    oracle to AP_TOLERANCE."""
    problems = []
    got = report.get("ap_per_class") or []
    want = expected["ap_per_class"]
    if len(got) != len(want):
        return [f"{len(got)} AP entries, expected {len(want)}"]
    for c, (g, w) in enumerate(zip(got, want)):
        if g is None or abs(g - w) > AP_TOLERANCE:
            problems.append(f"class {c}: AP {g!r} != oracle {w!r}")
    ba = report.get("balanced_accuracy")
    if ba is None or abs(ba - expected["balanced_accuracy"]) > AP_TOLERANCE:
        problems.append(f"balanced accuracy {ba!r} != oracle {expected['balanced_accuracy']!r}")
    return problems
