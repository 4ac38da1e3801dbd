"""Labeled feature-vector datasets: construction, CSV I/O, synthesis, splitting.

Synthetic mixtures label the minority 0 and the majority 1; regrouping and
the harness's aggregates find the minority by count, whatever its id.
"""
from __future__ import annotations

import numbers
import operator
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Raised when a dataset violates its invariants or cannot be parsed."""


def integer(name: str, value, error: type[ValueError]) -> int:
    """`value` as an int; `error` naming `name` for a bool or any other non-integer."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise error(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def number(name: str, value, error: type[ValueError]) -> float:
    """`value` as a float; `error` naming `name` for a bool, a text or any other non-number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Dataset:
    """An (n, D) float64 feature matrix plus length-n integer labels.

    Invariants (checked at construction): n >= 1, D >= 1, all features
    finite, labels in 0..C-1 with every class present at least once.
    Arrays are frozen after construction and safe to share.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        y = np.asarray(self.labels, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DatasetError(f"feature matrix must be 2-D and nonempty, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            bad = np.argwhere(~np.isfinite(X))[0]
            raise DatasetError(f"non-finite feature value at row {bad[0]}, column {bad[1]}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise DatasetError(f"labels length {y.shape} does not match {X.shape[0]} rows")
        if y.min() < 0:
            raise DatasetError("negative class id")
        counts = np.bincount(y)
        if np.any(counts == 0):
            missing = int(np.argmin(counts))
            raise DatasetError(f"class {missing} has no samples")
        if self.class_names is not None and len(self.class_names) != len(counts):
            raise DatasetError("class_names length does not match number of classes")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "_class_counts", tuple(int(c) for c in counts))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self._class_counts)

    @property
    def class_counts(self) -> tuple[int, ...]:
        return self._class_counts

    def subset(self, idx: np.ndarray) -> "Dataset":
        """Row subset keeping the given order (all classes must survive)."""
        return Dataset(self.features[idx], self.labels[idx], self.class_names)

    def with_labels(self, labels: np.ndarray, class_names=None) -> "Dataset":
        return Dataset(self.features, labels, class_names)


@dataclass(frozen=True)
class GaussianComponent:
    """Isotropic Gaussian: mean vector, scalar stddev, sample count."""

    mean: tuple[float, ...]
    stddev: float
    count: int

    def __post_init__(self):
        if integer("count", self.count, DatasetError) < 1:
            raise DatasetError("component count must be >= 1")
        if not number("stddev", self.stddev, DatasetError) > 0:
            raise DatasetError("component stddev must be > 0")
        if not isinstance(self.mean, (list, tuple)):  # tuple("12") would read as (1.0, 2.0)
            raise DatasetError(f"mean must be a list of numbers, got {self.mean!r}")
        object.__setattr__(self, "mean", tuple(number("mean entry", v, DatasetError)
                                               for v in self.mean))
        object.__setattr__(self, "stddev", float(self.stddev))


@dataclass(frozen=True)
class MixtureSpec:
    """Synthetic binary problem: one minority Gaussian vs a majority mixture."""

    minority: GaussianComponent
    majority_components: tuple[GaussianComponent, ...]
    seed: int = 0

    def __post_init__(self):
        comps = tuple(self.majority_components)
        integer("seed", self.seed, DatasetError)
        if not comps:
            raise DatasetError("at least one majority component required")
        dim = len(self.minority.mean)
        for c in comps:
            if len(c.mean) != dim:
                raise DatasetError(
                    f"component dimension {len(c.mean)} != minority dimension {dim}"
                )
        object.__setattr__(self, "majority_components", comps)


def mixture_from_dict(d: dict) -> MixtureSpec:
    """Parse a JSON mixture spec: {"minority": component,
    "majority_components": [component, ...], "seed": int (optional)}, each
    component {"mean": [...], "stddev": s, "count": n}. DatasetError names
    a missing key or a malformed value."""
    def comp(c):
        return GaussianComponent(c["mean"], c["stddev"], c["count"])

    try:
        return MixtureSpec(
            comp(d["minority"]),
            tuple(comp(c) for c in d["majority_components"]),
            seed=d.get("seed", 0),
        )
    except KeyError as exc:
        raise DatasetError(f"mixture spec is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"malformed mixture spec: {exc}") from None


def generate_imbalanced_mixture(spec: MixtureSpec) -> Dataset:
    """Sample the mixture. Minority rows come first with label 0, then the
    majority components in order with label 1. PCG64-seeded, so identical
    spec+seed gives bit-identical output across platforms."""
    rng = np.random.default_rng(spec.seed)
    dim = len(spec.minority.mean)
    blocks, labels = [], []
    for label, comp in [(0, spec.minority)] + [(1, c) for c in spec.majority_components]:
        pts = np.asarray(comp.mean) + comp.stddev * rng.standard_normal((comp.count, dim))
        blocks.append(pts)
        labels.append(np.full(comp.count, label, dtype=np.int64))
    return Dataset(np.vstack(blocks), np.concatenate(labels))


def stratified_split(ds: Dataset, test_fraction: float, seed: int):
    """Split into (train, test) with per-class test counts
    round-half-to-even(fraction * count), clamped to [1, count - 1].

    Deterministic given the seed; train and test partition the rows.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError(f"test_fraction must be in (0, 1), got {test_fraction}")
    for c, count in enumerate(ds.class_counts):
        if count < 2:
            raise DatasetError(f"class {c} has {count} sample(s); need >= 2 to split")
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(ds.n, dtype=bool)
    for c, count in enumerate(ds.class_counts):
        n_test = min(max(1, round(test_fraction * count)), count - 1)
        idx = np.flatnonzero(ds.labels == c)
        chosen = rng.permutation(idx)[:n_test]
        test_mask[chosen] = True
    train = ds.subset(np.flatnonzero(~test_mask))
    test = ds.subset(np.flatnonzero(test_mask))
    return train, test


def standardize(train: Dataset, others: list[Dataset] = ()):
    """Center/scale every dataset with the train columns' mean and
    population (1/n) stddev. Constant train columns are only centered.

    Returns (standardized train, list of standardized others, mean, stddev).
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)  # ddof=0, population convention
    scale = np.where(std > 0, std, 1.0)

    def apply(ds: Dataset) -> Dataset:
        return Dataset((ds.features - mean) / scale, ds.labels, ds.class_names)

    return apply(train), [apply(ds) for ds in others], mean, std


def save_csv_dataset(ds: Dataset, path):
    """Write the dataset as UTF-8 CSV: header f0..f{D-1},label; features with
    17 significant digits (exact float64 round-trip)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{j}" for j in range(ds.dim)] + ["label"]) + "\n")
        for row, y in zip(ds.features, ds.labels):
            name = ds.class_names[y] if ds.class_names is not None else str(int(y))
            fh.write(",".join(np.format_float_scientific(v, precision=16) for v in row))
            fh.write(f",{name}\n")


_NOT_SPACE = re.compile(r"\S")  # \s: what str.isspace() and str.strip() take as whitespace


def read_csv_columns(path, label_column: str | int, label_type=str):
    """Read a headered CSV into ((n, D) float64 features, n labels). The
    label column, named or given by index, is converted with label_type and
    every other column with float(). Blank lines are skipped; DatasetError
    names the physical line and the column of a bad cell.
    Fast path: np.loadtxt in C on the file, labels as objects (U<n> would
    truncate them) or, for label_type int, as int64. The row scan takes over
    on U+001C..U+001F (loadtxt strips them; float() and int() reject them),
    on a non-ASCII file with int labels (loadtxt reads any Unicode digit d as
    ord(d) - 48), and on a ValueError: ragged or whitespace-only rows, bad
    cells, int labels outside int64. So an int label reaches int64 only as an
    optional sign and ASCII digits amid ASCII whitespace, with int()'s value
    (`1_0` goes to the scan). That loadtxt takes no cell float() or int()
    rejects, and no row of another width, was checked on numpy 2.4.6 only.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"{path}: no such file")
    text = path.read_text(encoding="utf-8")
    head = _NOT_SPACE.search(text)  # the header is the first line that is not blank
    start = text.rfind("\n", 0, head.start()) + 1 if head else 0
    end = text.find("\n", start)
    if head is None or end < 0 or not _NOT_SPACE.search(text, end):
        raise DatasetError(f"{path} has no data rows")
    header, first = text[start:end].split(","), text.count("\n", 0, start)
    if isinstance(label_column, int):
        label_idx = label_column
    else:
        label_idx = header.index(label_column) if label_column in header else -1
    if not 0 <= label_idx < len(header):
        raise DatasetError(f"{path}: column {label_column!r} not in header {header}")
    if len(header) < 2:  # also keeps a blank line from passing as a one-cell row
        raise DatasetError(f"{path}: no column besides {header[label_idx]!r}")
    feat_idx = [j for j in range(len(header)) if j != label_idx]

    typed = label_type is int
    label_field = np.int64 if typed else object
    fields = [(f"c{j}", label_field if j == label_idx else float) for j in range(len(header))]
    try:
        if not any(c in text for c in "\x1c\x1d\x1e\x1f") and (text.isascii() or not typed):
            table = np.loadtxt(path, delimiter=",", comments=None, skiprows=first + 1,
                               encoding="utf-8", dtype=fields, ndmin=1)  # no list of lines
            labels = table[f"c{label_idx}"].tolist()
            if typed:  # every field is 8 bytes: the rows are one (n, columns) float64 block
                block = table.view(np.float64).reshape(len(table), -1)
                return np.delete(block, label_idx, axis=1), labels  # a C-contiguous copy
            features = np.column_stack([table[f"c{j}"] for j in feat_idx])
            return features, list(map(label_type, labels))
    except ValueError:
        pass  # the row scan names the bad cell, or takes cells only float() or int() accepts
    rows, labels = [], []
    try:
        for lineno, line in enumerate(text.split("\n")[first + 1:], first + 2):
            cells = line.split(",")
            if len(cells) != len(header):
                if not line.strip():
                    continue
                raise ValueError(f"{len(cells)} cells, expected {len(header)}")
            labels.append(label_type(cells[label_idx]))
            rows.append([float(cells[j]) for j in feat_idx])
    except ValueError as exc:
        where = ""
        if len(cells) == len(header):  # name the cell that failed to convert
            for j in [label_idx, *feat_idx]:
                try:
                    (label_type if j == label_idx else float)(cells[j])
                except ValueError:
                    where = f" in column {header[j]!r}"
                    break
        raise DatasetError(f"{path}, line {lineno}: {exc}{where}") from None
    return np.array(rows, dtype=np.float64), labels


def load_csv_dataset(path, label_column: str | int = "label") -> Dataset:
    """Load a headered CSV into a Dataset (see `read_csv_columns`).

    Integer label values forming a contiguous 0-based range are kept
    verbatim (so integer-labeled datasets round-trip exactly); any other
    labels get class ids by first appearance, recorded in class_names.
    """
    features, raw_labels = read_csv_columns(path, label_column)
    distinct = list(dict.fromkeys(raw_labels))
    try:
        as_int = [int(s) for s in distinct]
        contiguous = sorted(as_int) == list(range(len(as_int)))
    except ValueError:
        contiguous = False
    if contiguous:
        labels = np.array([int(s) for s in raw_labels], dtype=np.int64)
        names = tuple(str(c) for c in range(len(distinct)))
    else:
        mapping = {s: c for c, s in enumerate(distinct)}
        labels = np.array([mapping[s] for s in raw_labels], dtype=np.int64)
        names = tuple(distinct)
    return Dataset(features, labels, class_names=names)
