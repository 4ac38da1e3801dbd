"""Labeled feature-vector datasets: construction, CSV I/O, synthesis, splitting.

Synthetic mixtures label the minority 0 and the majority 1; regrouping and
the harness's aggregates find the minority by count, whatever its id.
"""
from __future__ import annotations

import operator
import re
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import partial
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Raised when a dataset violates its invariants or cannot be parsed."""


_TYPES = {  # annotation: (noun, plural, classes, conversion); a bool is no int and no float
    "int": ("an integer", "integers", (int, np.integer), operator.index),
    "float": ("a number", "numbers", (int, float, np.integer, np.floating), float),
    "bool": ("true or false", "booleans", bool, bool),
    "str": ("a text", "texts", str, str),
}


def from_object(cls, value, name: str, error: type[ValueError]):
    """`value` if it is a `cls`, else the dataclass `cls` built from the keys of `value`, a
    JSON object. `error` names `name` and the key for a value that is not an object, an
    unknown key or a missing key (a field without a default)."""
    if isinstance(value, cls):
        return value
    if not isinstance(value, dict):
        raise error(f"{name} must be an object, got {value!r}")
    known = [f.name for f in fields(cls)]
    unknown = [k for k in value if k not in known]
    if unknown:
        raise error(f"{name} has unknown keys {unknown}; expected some of {known}")
    for f in fields(cls):
        if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
            raise error(f"{name} is missing key {f.name!r}")
    return cls(**value)


def typed(obj, error: type[ValueError]) -> None:
    """Convert each field of the dataclass `obj` in place by its annotation: `int` (no bool
    or float), `float` (an int becomes a float), `bool`, `str`, a dataclass of `obj`'s
    module (built from a JSON object by `from_object`), and `tuple[X, ...]` from a list or
    tuple, its entries converted as X; each of these also with `| None`. A field of any
    other annotation is left as given. `error` names the field, or "<field> entry", and
    the value it rejects."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        many = kind.startswith("tuple[") and kind.endswith(", ...]")
        kind, name = (kind[6:-6], f"{f.name} entry") if many else (kind, f.name)
        row = _TYPES.get(kind)
        if row is None:  # past the table: a dataclass of obj's module, or left as given
            cls = vars(sys.modules[type(obj).__module__]).get(kind)
            if not is_dataclass(cls):
                continue
            convert = partial(from_object, cls, name=name, error=error)
            row = "an object", "objects", (cls, dict), convert
        noun, plural, classes, convert = row
        if many and not isinstance(value, (list, tuple)):  # a text is no list of its letters
            raise error(f"{f.name} must be a list of {plural}, got {value!r}")
        out = []
        for v in value if many else (value,):
            if isinstance(v, classes) and (classes is bool or not isinstance(v, bool)):
                try:
                    out.append(convert(v))
                    continue
                except OverflowError:  # an int too large for a float
                    pass
            raise error(f"{name} must be {noun}, got {v!r}")
        object.__setattr__(obj, f.name, tuple(out) if many else out[0])


@dataclass(frozen=True)
class Dataset:
    """An (n, D) float64 feature matrix plus length-n class ids (no class names).

    Invariants (checked at construction): n >= 1, D >= 1, all features
    finite, labels in 0..C-1 with every class present at least once.
    Arrays are frozen after construction and safe to share.
    """

    features: np.ndarray
    labels: np.ndarray

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


@dataclass(frozen=True)
class GaussianComponent:
    """Isotropic Gaussian: mean vector, scalar stddev, sample count."""

    mean: tuple[float, ...]
    stddev: float
    count: int

    def __post_init__(self):
        typed(self, DatasetError)
        if self.count < 1:
            raise DatasetError("component count must be >= 1")
        if not self.mean or not np.isfinite(self.mean).all():
            raise DatasetError(f"component mean must be finite and nonempty, got {list(self.mean)}")
        if not 0 < self.stddev < np.inf:
            raise DatasetError(f"component stddev must be finite and > 0, got {self.stddev}")


@dataclass(frozen=True)
class MixtureSpec:
    """Synthetic binary problem: one minority Gaussian vs a majority mixture."""

    minority: GaussianComponent
    majority_components: tuple[GaussianComponent, ...]
    seed: int = 0

    def __post_init__(self):
        typed(self, DatasetError)
        if self.seed < 0:
            raise DatasetError(f"seed must be >= 0, got {self.seed}")
        if not self.majority_components:
            raise DatasetError("majority_components needs at least one component")
        dim = len(self.minority.mean)
        for c in self.majority_components:
            if len(c.mean) != dim:
                raise DatasetError(f"majority_components mean dimension {len(c.mean)} "
                                   f"!= minority mean dimension {dim}")


def generate_imbalanced_mixture(spec: MixtureSpec) -> Dataset:
    """Sample the mixture. Minority rows come first with label 0, then the
    majority components in order with label 1. PCG64-seeded, so identical
    spec+seed gives bit-identical output across platforms."""
    rng = np.random.default_rng(spec.seed)
    dim = len(spec.minority.mean)
    blocks, labels = [], []
    for label, comp in [(0, spec.minority)] + [(1, c) for c in spec.majority_components]:
        with np.errstate(over="ignore"):  # Dataset's finiteness check reports an overflow
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
    return tuple(Dataset(ds.features[mask], ds.labels[mask]) for mask in (~test_mask, test_mask))


def standardize(train: Dataset, others: list[Dataset] = ()):
    """Center/scale every dataset with the train columns' mean and
    population (1/n) stddev. Constant train columns are only centered.

    Returns (standardized train, list of standardized others, mean, stddev).
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)  # ddof=0, population convention
    scale = np.where(std > 0, std, 1.0)

    def apply(ds: Dataset) -> Dataset:
        X = ds.features - mean  # one allocation: the same bits as (features - mean) / scale
        X /= scale
        return Dataset(X, ds.labels)

    return apply(train), [apply(ds) for ds in others], mean, std


def save_csv_dataset(ds: Dataset, path):
    """Write the dataset as UTF-8 CSV: header f0..f{D-1},label; features with
    17 significant digits (exact float64 round-trip), labels as class ids."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{j}" for j in range(ds.dim)] + ["label"]) + "\n")
        for row, y in zip(ds.features, ds.labels):
            fh.write(",".join(np.format_float_scientific(v, precision=16) for v in row))
            fh.write(f",{y}\n")


_NOT_SPACE = re.compile(r"\S")  # \s: what str.isspace() and str.strip() take as whitespace


def read_csv_columns(path, label_column: str | int, label_type=str):
    """Read a headered CSV into ((n, D) float64 features, n labels). The
    label column, named or given by index, is converted with label_type, str
    or int, and every other column with float(). Blank lines and a leading BOM
    are skipped; DatasetError names the physical line and the column of a bad
    cell. Fast path: np.loadtxt in C on the file, labels as its str objects
    (U<n> would truncate them) or, for int, as int64. The row scan takes over
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
        raise DatasetError(f"{path}: {'not a regular file' if path.exists() else 'no such file'}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise DatasetError(f"{path}, line {line}: not UTF-8 ({exc.reason})") from None
    except OSError as exc:
        raise DatasetError(f"{path}: {exc.strerror}") from None
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
            # a second read of the file, yet faster than loadtxt on StringIO(text) or its lines
            table = np.loadtxt(path, delimiter=",", comments=None, skiprows=first + 1,
                               encoding="utf-8", dtype=fields, ndmin=1)
            labels = table[f"c{label_idx}"].tolist()
            if typed:  # every field is 8 bytes: the rows are one (n, columns) float64 block
                block = table.view(np.float64).reshape(len(table), -1)
                return np.delete(block, label_idx, axis=1), labels  # a C-contiguous copy
            return np.column_stack([table[f"c{j}"] for j in feat_idx]), labels  # str labels
    except ValueError:
        pass  # the row scan names the bad cell, or takes cells only float() or int() accepts
    rows, labels = [], []
    for lineno, line in enumerate(text.split("\n")[first + 1:], first + 2):
        cells = line.split(",")
        if len(cells) != len(header):
            if not line.strip():
                continue
            raise DatasetError(f"{path}, line {lineno}: {len(cells)} cells, expected {len(header)}")
        try:  # the label, then the features left to right: j is the cell being converted
            labels.append(label_type(cells[(j := label_idx)]))
            rows.append([float(cells[(j := k)]) for k in feat_idx])
        except ValueError as exc:
            raise DatasetError(f"{path}, line {lineno}: {exc} in column {header[j]!r}") from None
    return np.array(rows, dtype=np.float64), labels


def load_csv_dataset(path, label_column: str | int = "label") -> Dataset:
    """Load a headered CSV into a Dataset (see `read_csv_columns`).

    Integer label values forming a contiguous 0-based range are kept
    verbatim (so integer-labeled datasets round-trip exactly); any other
    labels get class ids by first appearance, and their texts are dropped.
    """
    features, raw_labels = read_csv_columns(path, label_column)
    distinct = list(dict.fromkeys(raw_labels))
    ids = range(len(distinct))  # by first appearance
    try:
        as_int = [int(s) for s in distinct]
        if sorted(as_int) == list(ids):
            ids = as_int
    except ValueError:
        pass
    mapping = dict(zip(distinct, ids))
    return Dataset(features, np.array([mapping[s] for s in raw_labels], dtype=np.int64))
