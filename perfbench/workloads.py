"""Workload input generators.

Each generator takes the workload seed and a work directory, writes every
input the program reads into that directory, and returns a Workload: the CLI
operations one pass runs, in order, plus what the output checks need. The
program sees only these files; the seed never reaches it directly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import balanced_accuracy_oracle, block_tie_ap_oracle

METHODS = ("CE", "WCE", "Focal", "LDAM", "ROS+CE", "RUS+CE", "SMOTE+CE", "RG+CE")

# desk-overlap: grid seeds per pass. The overlap family's minority AP moves a
# lot from one data draw to the next, so the pass averages over eight draws
# to keep minority_ap_mean steady across workload seeds.
DESK_GRID_SEEDS = 8

# csv-scale: class sizes, Gaussian blobs per class, feature dimension. The
# blob centres come from a fixed layout seed, so every workload seed poses
# the same problem with fresh samples (as the builtin families do); with
# seeded centres the minority blob's overlap, and so its AP, swung from 0.45
# to 0.89 between workload seeds.
CSV_CLASS_COUNTS = (250, 1500, 10000)
CSV_BLOBS = (1, 3, 12)
CSV_DIM = 16
CSV_CENTRE_SD = 1.2
CSV_LAYOUT_SEED = 0
CSV_GRID_SEEDS = 3

# score-csv: prediction files per pass, rows per file, classes per file.
# A one-epoch smoke grid on the rg-favorable family runs first, so that every
# layer records spans on this workload too and its per-layer times are
# measured rather than a constant 0; it takes about 1% of the pass and is
# left out of the quality means.
SCORE_FILES = 6
SCORE_ROWS = 50_000
SCORE_CLASSES = 20
SCORE_SIGNAL = 3.0


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: the argv handed to regroupbench.cli.main."""

    argv: tuple[str, ...]
    num_classes: int
    scored: bool = True              # counts toward the quality means
    results_csv: str | None = None   # run ops: the results.csv the grid writes
    epochs: int = 0                  # run ops: to count SGD steps from train_size
    batch_size: int = 0
    expected: dict | None = None     # metrics ops: oracle AP and balanced accuracy


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    configs: tuple[str, ...] = ()    # experiment configs loaded during set-up
    info: dict = field(default_factory=dict)


def grid_seeds(seed: int, count: int) -> list[int]:
    """Grid seeds drawn from the workload seed, distinct within a pass."""
    rng = np.random.default_rng([seed, 0x5EED])
    return sorted(int(s) for s in rng.choice(1_000_000, size=count, replace=False))


def _run_op(work: Path, doc: dict, num_classes: int, scored: bool = True) -> tuple[Op, str]:
    config = work / "experiment.json"
    config.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    out = work / "out"
    argv = ("run", "--config", str(config), "--out", str(out))
    train = doc.get("train", {})
    op = Op(
        argv,
        num_classes,
        scored,
        results_csv=str(out / "results.csv"),
        epochs=int(train.get("epochs", 100)),
        batch_size=int(train.get("batch_size", 64)),
    )
    return op, str(config)


def desk_overlap(seed: int, work: Path) -> Workload:
    """All eight methods on the builtin overlap family with the desk recipe."""
    doc = {
        "dataset": {"builtin": "overlap"},
        "methods": [{"name": m} for m in METHODS],
        "seeds": grid_seeds(seed, DESK_GRID_SEEDS),
        "hidden_dims": [32],
        "train": {"lr_max": 0.01, "epochs": 100, "batch_size": 64},
    }
    op, config = _run_op(work, doc, 2)
    return Workload("desk-overlap", (op,), (config,), {"grid_seeds": doc["seeds"]})


def blob_dataset(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Three overlapping classes, each a union of Gaussian blobs with centres
    drawn from N(0, CSV_CENTRE_SD^2) and unit noise; rows shuffled."""
    layout = np.random.default_rng([CSV_LAYOUT_SEED, 0xC5F])
    rng = np.random.default_rng([seed, 0xC5F])
    feats, labels = [], []
    for c, (n, blobs) in enumerate(zip(CSV_CLASS_COUNTS, CSV_BLOBS)):
        centres = layout.normal(0.0, CSV_CENTRE_SD, size=(blobs, CSV_DIM))
        which = rng.integers(blobs, size=n)
        feats.append(centres[which] + rng.standard_normal((n, CSV_DIM)))
        labels.append(np.full(n, c, dtype=np.int64))
    order = rng.permutation(sum(CSV_CLASS_COUNTS))
    return np.vstack(feats)[order], np.concatenate(labels)[order]


def write_dataset_csv(X: np.ndarray, y: np.ndarray, path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{j}" for j in range(X.shape[1])] + ["label"]) + "\n")
        for row, label in zip(X.tolist(), y.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",{label}\n")


def csv_scale(seed: int, work: Path) -> Workload:
    """All eight methods, three epochs of batch 256, on a written 3-class CSV."""
    X, y = blob_dataset(seed)
    data = work / "blobs.csv"
    write_dataset_csv(X, y, data)
    doc = {
        "dataset": {"csv": str(data), "label_column": "label"},
        "methods": [{"name": m} for m in METHODS],
        "seeds": grid_seeds(seed, CSV_GRID_SEEDS),
        "hidden_dims": [32],
        "train": {"lr_max": 0.01, "epochs": 3, "batch_size": 256},
    }
    op, config = _run_op(work, doc, 3)
    return Workload("csv-scale", (op,), (config,), {"grid_seeds": doc["seeds"]})


def score_matrix(seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Truth labels and (rows, classes) scores in thousandths. Class 0 is rare
    (about 1 row in 20 * (C - 1)); scores are a softmax with extra mass on
    the true class, rounded to three decimals so many scores tie."""
    rng = np.random.default_rng([seed, index, 0xA9])
    C = SCORE_CLASSES
    p_rare = 1.0 / (20 * (C - 1))
    probs = np.r_[p_rare, np.full(C - 1, (1.0 - p_rare) / (C - 1))]
    y = rng.choice(C, size=SCORE_ROWS, p=probs)
    y[0] = 0  # class 0 must be present for its AP to be defined
    logits = rng.standard_normal((SCORE_ROWS, C))
    logits[np.arange(SCORE_ROWS), y] += SCORE_SIGNAL
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    thousandths = np.rint(1000.0 * e / e.sum(axis=1, keepdims=True)).astype(np.int64)
    return y, thousandths


_THOUSANDTHS = [f"{k / 1000:.3f}" for k in range(1001)]


def write_prediction_csv(y: np.ndarray, thousandths: np.ndarray, path: Path) -> None:
    C = thousandths.shape[1]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"p{c}" for c in range(C)] + ["label"]) + "\n")
        for row, label in zip(thousandths.tolist(), y.tolist()):
            fh.write(",".join(_THOUSANDTHS[k] for k in row) + f",{label}\n")


def score_csv(seed: int, work: Path) -> Workload:
    """`regroupbench metrics` on written prediction CSVs, one call per file,
    after a one-epoch smoke grid."""
    smoke = {
        "dataset": {"builtin": "rg-favorable"},
        "methods": [{"name": m} for m in METHODS],
        "seeds": grid_seeds(seed, 1),
        "hidden_dims": [32],
        "train": {"lr_max": 0.01, "epochs": 1, "batch_size": 64},
    }
    op, config = _run_op(work, smoke, 2, scored=False)
    ops = [op]
    for i in range(SCORE_FILES):
        y, thousandths = score_matrix(seed, i)
        path = work / f"pred{i}.csv"
        write_prediction_csv(y, thousandths, path)
        # k / 1000.0 is the double nearest the written "%.3f" text, i.e.
        # exactly what float() parses back.
        scores = thousandths / 1000.0
        expected = {
            "ap_per_class": [
                block_tie_ap_oracle((y == c).astype(int), scores[:, c])
                for c in range(SCORE_CLASSES)
            ],
            "balanced_accuracy": balanced_accuracy_oracle(y, scores),
        }
        argv = ("metrics", "--pred", str(path), "--truth-col", "label")
        ops.append(Op(argv, SCORE_CLASSES, expected=expected))
    return Workload("score-csv", tuple(ops), (config,), {"grid_seeds": smoke["seeds"]})


WORKLOADS = {"desk-overlap": desk_overlap, "csv-scale": csv_scale, "score-csv": score_csv}
