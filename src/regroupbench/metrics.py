"""Threshold metrics (confusion table, accuracy, balanced accuracy, per-class
precision/recall/F1) and threshold-free average precision.

AP uses step interpolation with block tie handling: all samples sharing a
score enter the ranking together and precision/recall are evaluated after
the whole block, so the result does not depend on the ordering among ties.
per_class_ap scores every class one-vs-rest; average_precision itself takes
an explicit 0/1 indicator where 1 marks a positive.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np


class MetricError(ValueError):
    """Raised for malformed metric inputs."""


@dataclass(frozen=True)
class ConfusionTable:
    """C x C count matrix; entry [i, j] counts true class i predicted as j."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.int64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise MetricError(f"confusion matrix must be square with C >= 2, got {m.shape}")
        if np.any(m < 0):
            raise MetricError("negative counts")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def num_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def total(self) -> int:
        return int(self.matrix.sum())


@dataclass(frozen=True)
class MetricReport:
    """Summary metrics; None marks an undefined value (e.g. precision with
    no predicted positives), which is excluded from aggregates except F1
    where undefined precision counts as 0."""

    accuracy: float
    balanced_accuracy: float
    precision: tuple[float | None, ...]
    recall: tuple[float | None, ...]
    f1: tuple[float | None, ...]
    ap_per_class: tuple[float | None, ...] | None = None
    macro_ap: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def confusion_table(y_true, y_pred, num_classes: int | None = None) -> ConfusionTable:
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise MetricError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise MetricError("empty label vectors")
    C = num_classes if num_classes is not None else int(max(t.max(), p.max())) + 1
    C = max(C, 2)
    if t.min() < 0 or p.min() < 0 or t.max() >= C or p.max() >= C:
        raise MetricError(f"labels outside 0..{C - 1}")
    m = np.zeros((C, C), dtype=np.int64)
    np.add.at(m, (t, p), 1)
    return ConfusionTable(m)


def summary_metrics(ct: ConfusionTable) -> MetricReport:
    """Accuracy = trace/n; balanced accuracy = mean per-class recall over
    classes present in y_true; per-class precision/recall/F1 with undefined
    values flagged as None (undefined precision counts as 0 inside F1)."""
    m = ct.matrix
    n = ct.total
    if n == 0:
        raise MetricError("empty confusion table")
    accuracy = float(np.trace(m)) / n
    precision, recall, f1 = [], [], []
    for c in range(ct.num_classes):
        col = int(m[:, c].sum())
        row = int(m[c, :].sum())
        tp = int(m[c, c])
        prec = tp / col if col > 0 else None
        rec = tp / row if row > 0 else None
        precision.append(prec)
        recall.append(rec)
        if rec is None:
            f1.append(None)
        else:
            p_eff = 0.0 if prec is None else prec
            f1.append(0.0 if p_eff + rec == 0 else 2 * p_eff * rec / (p_eff + rec))
    defined_recalls = [r for r in recall if r is not None]
    balanced = float(np.mean(defined_recalls))
    return MetricReport(accuracy, balanced, tuple(precision), tuple(recall), tuple(f1))


def average_precision(y_true, scores) -> float:
    """Step-interpolated AP over descending score blocks (ties enter as one
    block). y_true is a 0/1 indicator with 1 marking positives."""
    y = np.asarray(y_true, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1 or y.size == 0:
        raise MetricError(f"shape mismatch: {y.shape} vs {s.shape}")
    if not np.all(np.isfinite(s)):
        raise MetricError("non-finite scores")
    if not np.all((y == 0) | (y == 1)):
        raise MetricError("y_true must be a 0/1 indicator")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise MetricError("no positive samples")

    order = np.argsort(-s)  # tp and pp are read at block ends, so order within a block is moot
    s_sorted, y_sorted = s[order], y[order]
    block_end = np.flatnonzero(np.r_[s_sorted[:-1] != s_sorted[1:], True])
    tp = np.cumsum(y_sorted)[block_end]
    pp = block_end + 1
    delta_tp = np.diff(np.r_[0, tp])
    return float(np.sum((delta_tp / n_pos) * (tp / pp)))


def per_class_ap(y_true, proba) -> tuple[tuple[float | None, ...], float]:
    """One-vs-rest AP per class from an (n, C) score matrix, plus the
    unweighted macro mean. A class absent from y_true gets AP None and is
    excluded from the macro with a warning; MetricError if every class is absent."""
    y = np.asarray(y_true, dtype=np.int64)
    P = np.asarray(proba, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != y.shape[0]:
        raise MetricError(f"probability matrix shape {P.shape} mismatches {y.shape[0]} labels")
    if not np.any((y >= 0) & (y < P.shape[1])):
        raise MetricError(f"none of the {P.shape[1]} score columns' classes occurs in y_true")
    aps: list[float | None] = []
    for c, scores in enumerate(np.ascontiguousarray(P.T)):
        indicator = (y == c).astype(np.int64)
        if indicator.sum() == 0:
            warnings.warn(f"class {c} absent from y_true; AP undefined, excluded from macro")
            aps.append(None)
        else:
            aps.append(average_precision(indicator, scores))
    defined = [a for a in aps if a is not None]
    macro = float(np.mean(defined))
    return tuple(aps), macro
