"""Experiment runner: configure a dataset and a set of methods, run a seeded
method x seed grid, and persist per-run metric rows plus an aggregate table.

Pipeline per seed, shared by every method: load/generate -> stratified
split -> standardize with train statistics. Per cell: method-specific
transform (resample or regroup) -> train -> predict on test -> metrics.
Test data never influences any fitted statistic before final evaluation.

A method's cells are prepared for every seed first, then trained in one
`train` call, which stacks the seeds it can, with per-seed results
bit-identical to training them one by one.
A CSV is parsed once per grid; method columns run in parallel.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath  # linked to the OpenBLAS numpy loaded

from .dataset import (
    Dataset,
    GaussianComponent,
    MixtureSpec,
    from_object,
    generate_imbalanced_mixture,
    load_csv_dataset,
    standardize,
    stratified_split,
    typed,
)
from .losses import COUNTED_KINDS, LossSpec
from .metrics import confusion_table, per_class_ap, summary_metrics
from .regrouping import RegroupPlan, collapse_proba_matrix, group_counts, regroup_multiclass
from .resampling import TARGET, ResampleSpec, resample
from .trainer import MlpSpec, TrainConfig, predict_proba, train

_BLAS_PIN = "scipy_openblas_set_num_threads64_"  # numpy's OpenBLAS thread-count setter
METHODS = {  # name -> (loss kind, train-set transform or None, the MethodKind fields it uses)
    "CE": ("ce", None, ()), "WCE": ("wce", None, ()), "Focal": ("focal", None, ("gamma",)),
    "LDAM": ("ldam", None, ("margin_scale", "logit_scale")), "ROS+CE": ("ce", "ros", ()),
    "RUS+CE": ("ce", "rus", ()), "SMOTE+CE": ("ce", "smote", ("k_neighbors",)),
    "RG+CE": ("ce", "regroup", ("k_override",)),
}

RESULTS_HEADER = (
    "method,seed,accuracy,balanced_accuracy,macro_ap,ap_per_class,K,train_size,"
    "config_hash,wall_time_s,error"
)
SUMMARY_COLUMNS = ("minority AP", "macro AP", "bal. acc", "accuracy")


class HarnessError(ValueError):
    """Raised for invalid experiment configuration."""


@dataclass(frozen=True)
class MethodKind:
    name: str
    gamma: float = LossSpec.gamma
    margin_scale: float = LossSpec.margin_scale
    logit_scale: float = LossSpec.logit_scale
    k_neighbors: int = ResampleSpec.k_neighbors
    k_override: int | None = None  # forced K, binary sources only

    def __post_init__(self):
        typed(self, HarnessError)
        if self.name not in METHODS:
            raise HarnessError(f"unknown method {self.name!r}; expected one of {tuple(METHODS)}")
        unused = [f.name for f in fields(self)[1:] if f.name not in METHODS[self.name][2]
                  and getattr(self, f.name) != f.default]
        if unused:  # a typo'd pairing would otherwise be silent and change config_hash
            raise HarnessError(f"method {self.name} does not use {', '.join(unused)}")
        if self.k_override is not None and self.k_override < 1:
            raise HarnessError(f"k_override must be >= 1, got {self.k_override}")
        self.loss_spec((1,))  # the specs' own checks reject a bad hyperparameter here
        if METHODS[self.name][1] in TARGET:
            ResampleSpec(METHODS[self.name][1], k_neighbors=self.k_neighbors)

    def loss_spec(self, class_counts: tuple[int, ...]) -> LossSpec:
        """The loss this method trains with, for a train split's class counts.
        A hyperparameter the method does not use sits at its default."""
        kind = METHODS[self.name][0]
        return LossSpec(kind, class_counts if kind in COUNTED_KINDS else None, self.gamma,
                        self.margin_scale, self.logit_scale)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: Source
    methods: tuple[MethodKind, ...]
    seeds: tuple[int, ...]
    test_fraction: float = 0.2
    standardize: bool = True
    hidden_dims: tuple[int, ...] = (32,)
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str = "out"

    def __post_init__(self):
        typed(self, HarnessError)
        seeds = self.seeds
        if not self.methods or not seeds:
            raise HarnessError("need at least one entry in methods and in seeds")
        if min(seeds) < 0:
            raise HarnessError(f"seeds must be >= 0, got {min(seeds)}")
        if len(set(seeds)) < len(seeds):  # a repeated seed would count twice in the aggregates
            raise HarnessError(f"seed {max(seeds, key=seeds.count)} is listed more than once")
        if self.train.shuffle_seed:
            raise HarnessError("a config cannot set train.shuffle_seed; each grid seed sets it")
        names = [m.name for m in self.methods]  # rows and summary lines are keyed by name
        if len(set(names)) < len(names):
            raise HarnessError(f"method {max(names, key=names.count)} is listed more than once")
        if any(d < 1 for d in self.hidden_dims):
            raise HarnessError(f"hidden_dims entries must be >= 1, got {list(self.hidden_dims)}")
        if not 0.0 < self.test_fraction < 1.0:
            raise HarnessError(f"test_fraction must be in (0, 1), got {self.test_fraction}")


@dataclass(frozen=True)
class ResultRow:
    method: str
    seed: int
    accuracy: float | None
    balanced_accuracy: float | None
    macro_ap: float | None
    ap_per_class: tuple[float | None, ...]
    k_groups: int | None
    train_size: int | None
    config_hash: str
    wall_time_s: float
    error: str = ""

    def to_csv_line(self) -> str:
        def fmt(v, kind=float):
            return "" if v is None else repr(kind(v))

        return ",".join([
            self.method, str(self.seed), fmt(self.accuracy), fmt(self.balanced_accuracy),
            fmt(self.macro_ap), ";".join(map(fmt, self.ap_per_class)), fmt(self.k_groups, int),
            fmt(self.train_size, int), self.config_hash, f"{self.wall_time_s:.6f}",
            self.error.replace(",", ";").replace("\n", " "),
        ])


def _majority_ring() -> tuple[GaussianComponent, ...]:
    """Five majority blobs of 180 points, evenly spaced on a circle of radius 3."""
    ring = []
    for j in range(5):
        angle = 2.0 * math.pi * j / 5
        ring.append(
            GaussianComponent((3.0 * math.cos(angle), 3.0 * math.sin(angle)), 0.5, 180)
        )
    return tuple(ring)


def rg_favorable_mixture(seed: int = 0) -> MixtureSpec:
    """Minority blob at the center of a ring of 5 majority blobs: the
    majority is a latent mixture, the setting regrouping is built for."""
    return MixtureSpec(GaussianComponent((0.0, 0.0), 0.5, 100), _majority_ring(), seed=seed)


def overlap_mixture(seed: int = 0) -> MixtureSpec:
    """Heavy-overlap variant: the minority blob sits inside one majority
    mode, so recall-oriented methods trade precision away."""
    minority = GaussianComponent((3.0, 0.0), 0.5, 100)  # on top of component 0
    return MixtureSpec(minority, _majority_ring(), seed=seed)


BUILTIN_FAMILIES = {"rg-favorable": rg_favorable_mixture, "overlap": overlap_mixture}


@dataclass(frozen=True)
class Source:
    """Where a grid's data comes from: exactly one of a CSV file, with its label column
    (a header name or a column index; "label" when not given, and stored as not given),
    a built-in family, or an inline mixture spec."""

    csv: str | None = None
    label_column: str | int | None = None  # a text or an index: typed leaves it as given
    builtin: str | None = None
    mixture: MixtureSpec | None = None

    def __post_init__(self):
        typed(self, HarnessError)
        kinds = [k for k in ("csv", "builtin", "mixture") if getattr(self, k) is not None]
        if len(kinds) != 1:
            raise HarnessError(f"dataset takes one of csv, builtin or mixture, got "
                               f"{', '.join(kinds) or 'none'}")
        column = self.label_column
        if column is not None and self.csv is None:
            raise HarnessError(f"dataset takes label_column only beside csv, not {kinds[0]}")
        if isinstance(column, bool) or not isinstance(column, (str, int, type(None))):
            raise HarnessError(f"label_column must be a column name or index, got {column!r}")
        if isinstance(column, int) and column < 0:
            raise HarnessError(f"label_column index must be >= 0, got {column}")
        if self.builtin is not None and self.builtin not in BUILTIN_FAMILIES:
            raise HarnessError(f"unknown builtin family {self.builtin!r}; "
                               f"expected one of {sorted(BUILTIN_FAMILIES)}")
        if column == "label":  # the default written out: one source, one config_hash
            object.__setattr__(self, "label_column", None)

    def mixture_spec(self) -> MixtureSpec | None:
        """The mixture a synthetic source samples; None for a CSV."""
        return BUILTIN_FAMILIES[self.builtin]() if self.builtin else self.mixture


def _split_sources(cfg: ExperimentConfig, seeds) -> dict:
    """Each seed's (train, test) split, standardized with the train statistics when
    cfg says so, or the exception that stopped it. A CSV is parsed once for all seeds;
    a synthetic source's grid seed offsets its mixture seed, so each seed draws anew."""
    spec, csv = cfg.dataset.mixture_spec(), None
    if spec is None:
        column = "label" if cfg.dataset.label_column is None else cfg.dataset.label_column
        try:
            csv = load_csv_dataset(cfg.dataset.csv, column)
        except Exception as exc:  # every cell reports it
            return dict.fromkeys(seeds, exc)
    splits = {}
    for seed in seeds:
        try:
            ds = csv if spec is None else generate_imbalanced_mixture(
                replace(spec, seed=spec.seed + seed))
            train_ds, test_ds = stratified_split(ds, cfg.test_fraction, seed)
            if cfg.standardize:
                train_ds, (test_ds,), _, _ = standardize(train_ds, [test_ds])
            splits[seed] = train_ds, test_ds
        except Exception as exc:  # every cell of this seed reports it
            splits[seed] = exc
    return splits


def config_hash(cfg: ExperimentConfig) -> str:
    """16 hex digits of the built config's SHA-256, output_dir and the source keys the
    source does not set left out: a default written out hashes as if left out."""
    doc = asdict(cfg)
    del doc["output_dir"]
    doc["dataset"] = {k: v for k, v in doc["dataset"].items() if v is not None}
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class _Cell:
    """A grid cell prepared for training: its fit and test data, model
    spec, loss and train config, the plan its test probabilities collapse
    through (one group per class unless RG+CE regroups), and the seconds
    spent preparing it."""

    seed: int
    fit_ds: Dataset
    test_ds: Dataset
    spec: MlpSpec
    loss: LossSpec
    train_cfg: TrainConfig
    plan: RegroupPlan
    k_groups: int | None
    seconds: float


def _prepare(cfg: ExperimentConfig, method: MethodKind, seed: int, train_ds, test_ds) -> _Cell:
    """Resample or regroup one cell's train split."""
    start = time.perf_counter()
    counts, transform = train_ds.class_counts, METHODS[method.name][1]
    fit_ds, plan, k_groups = train_ds, RegroupPlan((1,) * len(counts)), None
    if transform == "regroup":
        fit_ds, plan = regroup_multiclass(train_ds, seed + 2, method.k_override)
        # K as trained, clamps applied: the larger class's groups if binary, else all pseudo-classes
        k_groups = max(plan.group_counts) if len(counts) == 2 else plan.pseudo_num_classes
    elif transform:
        fit_ds = resample(train_ds, ResampleSpec(transform, seed + 2, method.k_neighbors))

    spec = MlpSpec(train_ds.dim, fit_ds.num_classes, cfg.hidden_dims, init_seed=seed)
    train_cfg = replace(cfg.train, shuffle_seed=seed + 1)
    # a counted loss weighs the classes the model fits: a regrouped split's pseudo-classes
    loss = method.loss_spec(fit_ds.class_counts)
    return _Cell(seed, fit_ds, test_ds, spec, loss, train_cfg, plan, k_groups,
                 time.perf_counter() - start)


def _evaluate(method: MethodKind, cell: _Cell, model, chash: str, train_s: float) -> ResultRow:
    """Score a trained cell on its test split; train_s is its share of training time.
    Every cell predicts the argmax of its plan's collapsed test probabilities."""
    start = time.perf_counter()
    test_ds = cell.test_ds
    pred, scores = collapse_proba_matrix(predict_proba(model, test_ds.features), cell.plan)
    ct = confusion_table(test_ds.labels, pred, num_classes=test_ds.num_classes)
    report = summary_metrics(ct)
    aps, macro = per_class_ap(test_ds.labels, scores)
    return ResultRow(
        method=method.name,
        seed=cell.seed,
        accuracy=report.accuracy,
        balanced_accuracy=report.balanced_accuracy,
        macro_ap=macro,
        ap_per_class=aps,
        k_groups=cell.k_groups,
        train_size=cell.fit_ds.n,
        config_hash=chash,
        wall_time_s=cell.seconds + train_s + time.perf_counter() - start,
    )


def _run_column(cfg: ExperimentConfig, method: MethodKind, splits: dict) -> list:
    """One method over the seeds of `splits`, in their order: a ResultRow or the
    exception each cell failed with. The prepared cells train in one `train`
    call, and each takes an equal share of its time."""
    chash = config_hash(cfg)
    state = dict(splits)  # per seed: its split, its _Cell, then its row, or an exception
    for seed, split in state.items():
        if not isinstance(split, Exception):
            try:
                state[seed] = _prepare(cfg, method, seed, *split)
            except Exception as exc:  # record and continue
                state[seed] = exc
    cells = [cell for cell in state.values() if isinstance(cell, _Cell)]
    start = time.perf_counter()
    try:
        fitted = train([c.fit_ds for c in cells], [c.spec for c in cells],
                       [c.loss for c in cells], [c.train_cfg for c in cells])
    except Exception as exc:
        fitted = [exc] * len(cells)
    train_s = (time.perf_counter() - start) / max(len(cells), 1)
    for cell, result in zip(cells, fitted):
        try:
            state[cell.seed] = result if isinstance(result, Exception) else _evaluate(
                method, cell, result[0], chash, train_s)
        except Exception as exc:
            state[cell.seed] = exc
    return list(state.values())


def _column_weight(cfg: ExperimentConfig, method: MethodKind, train_ds: Dataset) -> float:
    """Expected training work of a column: epochs x fit rows x sum of fan_in * fan_out."""
    train = train_ds.class_counts
    transform = METHODS[method.name][1]
    rows = len(train) * TARGET[transform](train) if transform in TARGET else sum(train)
    if transform == "regroup":  # a k_override beside more than two classes fails the cells
        heads = sum(group_counts(train, method.k_override if len(train) == 2 else None))
    else:
        heads = len(train)
    dims = (train_ds.dim, *cfg.hidden_dims, heads)
    return cfg.train.epochs * rows * sum(a * b for a, b in zip(dims, dims[1:]))


# Below this expected work the fork pool's start-up, its imports included, costs more
# than the parallel columns save in a fresh process: calibrated from pooled and
# in-process grid times (README).
_POOL_MIN_WORK = 1e7
_worker_splits: dict = {}  # filled in pool workers only: the splits they inherit


def _init_worker(splits: dict) -> None:
    _worker_splits.update(splits)


def _worker_column(cfg: ExperimentConfig, method: MethodKind) -> list:
    return _run_column(cfg, method, _worker_splits)


def _first_split(splits: dict) -> tuple[Dataset, Dataset] | None:
    return next((s for s in splits.values() if not isinstance(s, Exception)), None)


def _run_columns(cfg: ExperimentConfig, splits: dict) -> list[list]:
    """Each method's `_run_column` results, config order: heaviest first on a fork pool of
    one worker per CPU, or in-process (one CPU or method, no OpenBLAS to pin, or less
    expected work, seeds x summed column weights, than _POOL_MIN_WORK)."""
    pin = getattr(ctypes.CDLL(_multiarray_umath.__file__), _BLAS_PIN, None)
    workers = min(len(os.sched_getaffinity(0)), len(cfg.methods))
    split = _first_split(splits)
    weight = {m: _column_weight(cfg, m, split[0]) for m in cfg.methods} if split else {}
    if (pin is None or workers < 2 or not weight
            or len(cfg.seeds) * sum(weight.values()) < _POOL_MIN_WORK):
        return [_run_column(cfg, m, splits) for m in cfg.methods]
    import concurrent.futures
    import multiprocessing

    import numpy.ma  # noqa: F401  np.unique imports it lazily: once here, not per worker

    pin.argtypes, pin.restype = [ctypes.c_int], None
    # one BLAS thread per worker, as the workers already fill the CPUs. Pinned here, not in
    # each worker: a pin after the fork starts an OpenBLAS server thread there that spins
    # while the columns start. Not restored, so the next pooled grid forks pinned too.
    pin(1)
    fork = multiprocessing.get_context("fork")  # the workers inherit the splits unpickled
    with concurrent.futures.ProcessPoolExecutor(workers, fork, _init_worker, (splits,)) as pool:
        futures = {m: pool.submit(_worker_column, cfg, m)
                   for m in sorted(cfg.methods, key=lambda m: -weight[m])}
    return [[futures[m].exception()] * len(cfg.seeds) if futures[m].exception()
            else futures[m].result() for m in cfg.methods]  # exception: BrokenProcessPool


def run_experiment(cfg: ExperimentConfig, method: MethodKind, seed: int) -> ResultRow:
    """One grid cell; deterministic in (cfg, method, seed) except wall time.
    Raises what the cell fails with."""
    (result,) = _run_column(cfg, method, _split_sources(cfg, (seed,)))
    if isinstance(result, Exception):
        raise result
    return result


@dataclass(frozen=True)
class AggregateLine:
    method: str
    n_runs: int
    stats: tuple[tuple[float, float], ...]  # (mean, population std) per SUMMARY_COLUMNS entry


def aggregate(rows: list[ResultRow], methods: tuple[MethodKind, ...],
              minority: int = 0) -> list[AggregateLine]:
    """Mean and population std over seeds of each SUMMARY_COLUMNS column, per method,
    config order; minority AP is class `minority`'s. Failed cells are skipped;
    methods with no successful run are omitted."""
    lines = []
    for m in methods:
        ok = [r for r in rows if r.method == m.name and not r.error]
        if not ok:
            continue
        values = [(r.ap_per_class[minority], r.macro_ap, r.balanced_accuracy, r.accuracy)
                  for r in ok]
        # one 1-D reduction per column: a 2-D axis=0 mean sums in another order from 8 rows
        stats = tuple((float(np.mean(c)), float(np.std(c))) for c in zip(*values))
        lines.append(AggregateLine(m.name, len(ok), stats))
    return lines


def run_grid(cfg: ExperimentConfig):
    """Run the full method x seed grid; rows in config order. Failed cells
    are recorded with their error string and the grid continues. The
    aggregates' minority is the source's smallest class (ties: lowest id).

    A grid whose columns run on the fork pool first pins the calling
    process's OpenBLAS to one thread, and leaves it pinned: the next pooled
    grid in the process must fork pinned again."""
    rows = []
    chash = config_hash(cfg)
    splits = _split_sources(cfg, cfg.seeds)
    columns = _run_columns(cfg, splits)
    for method, column in zip(cfg.methods, columns):
        for seed, result in zip(cfg.seeds, column):
            if isinstance(result, Exception):
                result = ResultRow(
                    method.name, seed, None, None, None, (), None, None, chash, 0.0,
                    error=f"{type(result).__name__}: {result}",
                )
            rows.append(result)
    split = _first_split(splits)  # None: every cell failed, and nothing aggregates
    # a split partitions the source's rows: train + test counts are the source's
    minority = int(np.argmin(np.add(split[0].class_counts, split[1].class_counts))) if split else 0
    return rows, aggregate(rows, cfg.methods, minority)


def write_results(rows, aggregates, out_dir) -> tuple[Path, Path]:
    """Persist results.csv (one row per cell) and a human-readable
    summary.txt with the mean +- std table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = out / "results.csv"
    with results.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for r in rows:
            fh.write(r.to_csv_line() + "\n")

    summary = out / "summary.txt"
    with summary.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{'method':<10} {'runs':>4}"
                 + "".join(f" {title:>16}" for title in SUMMARY_COLUMNS) + "\n")
        for a in aggregates:
            fh.write(f"{a.method:<10} {a.n_runs:>4}"
                     + "".join(f" {mean:.4f} +- {std:.4f}" for mean, std in a.stats) + "\n")
    return results, summary


def load_config(path) -> ExperimentConfig:
    """Read an experiment config from a JSON object with keys matching ExperimentConfig
    fields. HarnessError names the first problem found: an unreadable file, or any
    problem `from_object` or ExperimentConfig finds."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read config: {exc}") from None
    try:
        return from_object(ExperimentConfig, doc, "config", HarnessError)
    except (TypeError, ValueError) as exc:  # HarnessError, DatasetError, TrainingError, ...
        raise HarnessError(str(exc)) from None
