"""Experiment runner: configure a dataset and a set of methods, run a seeded
method x seed grid, and persist per-run metric rows plus an aggregate table.

Pipeline per cell: load/generate -> stratified split -> standardize with
train statistics -> method-specific transform (resample or regroup) ->
train -> predict on test -> metrics. Test data never influences any fitted
statistic before final evaluation.

A method's cells are prepared for every seed first; those that agree on
train size, layer dims and loss are trained as one seed stack (one `train`
call), with per-seed results bit-identical to training them one by one.
Each source is loaded once per grid; method columns run in parallel.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath  # linked to the OpenBLAS numpy loaded

from .dataset import (
    Dataset,
    GaussianComponent,
    MixtureSpec,
    generate_imbalanced_mixture,
    integer,
    load_csv_dataset,
    mixture_from_dict,
    number,
    standardize,
    stratified_split,
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


class HarnessError(ValueError):
    """Raised for invalid experiment configuration."""


@dataclass(frozen=True)
class MethodKind:
    name: str
    gamma: float = 2.0
    margin_scale: float = 0.5
    logit_scale: float = 30.0
    k_neighbors: int = 5
    k_override: int | None = None  # forced K, binary sources only

    def __post_init__(self):
        if self.name not in METHODS:
            raise HarnessError(f"unknown method {self.name!r}; expected one of {tuple(METHODS)}")
        unused = [f.name for f in fields(self)[1:] if f.name not in METHODS[self.name][2]
                  and getattr(self, f.name) != f.default]
        if unused:  # a typo'd pairing would otherwise be silent and change config_hash
            raise HarnessError(f"method {self.name} does not use {', '.join(unused)}")
        k = self.k_override
        if k is not None and integer("k_override", k, HarnessError) < 1:
            raise HarnessError(f"k_override must be >= 1, got {k}")
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
    dataset: dict                       # {"builtin": ...} | {"csv": ...} | {"mixture": ...}
    methods: tuple[MethodKind, ...]     # or plain dicts, as a JSON config holds them
    seeds: tuple[int, ...]              # or a comma-separated string, as --seeds gives it
    test_fraction: float = 0.2
    standardize: bool = True
    hidden_dims: tuple[int, ...] = (32,)
    train: TrainConfig = field(default_factory=TrainConfig)  # or a plain dict
    output_dir: str = "out"

    def __post_init__(self):
        if not self.methods or not self.seeds:
            raise HarnessError("need at least one method and one seed")
        try:  # int() reads the --seeds text only; a list takes integers
            seeds = (tuple(map(int, self.seeds.split(","))) if isinstance(self.seeds, str)
                     else tuple(integer("seeds", s, HarnessError) for s in self.seeds))
        except (TypeError, ValueError):
            raise HarnessError(f"seeds must be integers, got {self.seeds!r}") from None
        object.__setattr__(self, "methods", tuple(
            m if isinstance(m, MethodKind) else MethodKind(**m) for m in self.methods))
        object.__setattr__(self, "seeds", seeds)
        if not isinstance(self.train, TrainConfig):
            object.__setattr__(self, "train", TrainConfig(**self.train))
        if self.train.shuffle_seed:
            raise HarnessError("a config cannot set train.shuffle_seed; each grid seed sets it")
        names = [m.name for m in self.methods]  # rows and summary lines are keyed by name
        if len(set(names)) < len(names):
            raise HarnessError(f"method {max(names, key=names.count)} is listed more than once")
        if not isinstance(self.hidden_dims, (list, tuple)):
            raise HarnessError(f"hidden_dims must be a list of integers, got {self.hidden_dims!r}")
        object.__setattr__(self, "hidden_dims", tuple(
            integer("hidden_dims entry", d, HarnessError) for d in self.hidden_dims))
        if any(d < 1 for d in self.hidden_dims):
            raise HarnessError(f"hidden_dims entries must be >= 1, got {list(self.hidden_dims)}")
        object.__setattr__(self, "test_fraction",
                           number("test_fraction", self.test_fraction, HarnessError))
        if not 0.0 < self.test_fraction < 1.0:
            raise HarnessError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not isinstance(self.standardize, bool):
            raise HarnessError(f"standardize must be true or false, got {self.standardize!r}")
        _source_mixture(self.dataset)


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


def builtin_mixture(name: str) -> MixtureSpec:
    """The named built-in family's mixture; HarnessError for an unknown name."""
    if name not in BUILTIN_FAMILIES:
        raise HarnessError(
            f"unknown builtin family {name!r}; expected one of {sorted(BUILTIN_FAMILIES)}"
        )
    return BUILTIN_FAMILIES[name]()


def _source_mixture(source: dict) -> MixtureSpec | None:
    """The mixture a synthetic source samples, or None for a CSV source.
    Raises HarnessError or DatasetError for a source that does not name
    exactly one dataset, has a key its kind does not use, or a bad spec."""
    kinds = [k for k in ("csv", "builtin", "mixture") if isinstance(source, dict) and k in source]
    if not kinds:
        raise HarnessError(f"dataset source must have csv, builtin, or mixture key: {source}")
    if set(source) - ({"csv", "label_column"} if kinds == ["csv"] else {kinds[0]}):
        raise HarnessError(f"dataset source takes one of csv, builtin or mixture, and "
                           f"label_column only beside csv; got keys {sorted(source)}")
    if kinds == ["csv"]:
        return None
    if "builtin" in source:
        return builtin_mixture(source["builtin"])
    return mixture_from_dict(source["mixture"])


def load_source(source: dict, seed: int) -> Dataset:
    """Materialize the configured dataset. For synthetic sources the run
    seed offsets the mixture seed so different seeds draw fresh data."""
    spec = _source_mixture(source)
    if spec is None:
        return load_csv_dataset(source["csv"], source.get("label_column", "label"))
    return generate_imbalanced_mixture(replace(spec, seed=spec.seed + seed))


def config_hash(cfg: ExperimentConfig) -> str:
    doc = {
        "dataset": cfg.dataset,
        "methods": [vars(m) for m in cfg.methods],
        "seeds": list(cfg.seeds),
        "test_fraction": cfg.test_fraction,
        "standardize": cfg.standardize,
        "hidden_dims": list(cfg.hidden_dims),
        "train": vars(cfg.train),
    }
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class _Cell:
    """A grid cell prepared for training: its fit and test data, model
    spec, loss and train config, the regroup plan (RG+CE), and the seconds
    spent preparing it."""

    seed: int
    fit_ds: Dataset
    test_ds: Dataset
    spec: MlpSpec
    loss: LossSpec
    train_cfg: TrainConfig
    plan: RegroupPlan | None
    k_groups: int | None
    seconds: float


def _prepare(cfg: ExperimentConfig, method: MethodKind, seed: int, ds: Dataset) -> _Cell:
    """Split, standardize and resample or regroup one cell's source data."""
    start = time.perf_counter()
    train_ds, test_ds = stratified_split(ds, cfg.test_fraction, seed)
    if cfg.standardize:
        train_ds, (test_ds,), _, _ = standardize(train_ds, [test_ds])

    counts, transform = train_ds.class_counts, METHODS[method.name][1]
    loss, fit_ds, plan, k_groups = method.loss_spec(counts), train_ds, None, None
    if transform == "regroup":
        if method.k_override is not None and ds.num_classes != 2:
            raise HarnessError(f"k_override needs a binary source, got {ds.num_classes} classes")
        fit_ds, plan = regroup_multiclass(train_ds, seed + 2, method.k_override)
        # K: the requested majority groups of a binary source, else all pseudo-classes
        k_groups = (max(group_counts(counts, method.k_override)) if ds.num_classes == 2
                    else plan.pseudo_num_classes)
    elif transform:
        fit_ds = resample(train_ds, ResampleSpec(transform, seed + 2, method.k_neighbors))

    spec = MlpSpec(train_ds.dim, fit_ds.num_classes, cfg.hidden_dims, init_seed=seed)
    train_cfg = replace(cfg.train, shuffle_seed=seed + 1)
    return _Cell(seed, fit_ds, test_ds, spec, loss, train_cfg, plan, k_groups,
                 time.perf_counter() - start)


def _evaluate(method: MethodKind, cell: _Cell, model, chash: str, train_s: float) -> ResultRow:
    """Score a trained cell on its test split; train_s is its share of training time."""
    start = time.perf_counter()
    test_ds = cell.test_ds
    proba = predict_proba(model, test_ds.features)
    if cell.plan is not None:
        pred, scores = collapse_proba_matrix(proba, cell.plan)
    else:
        pred, scores = np.argmax(proba, axis=1), proba

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


def _load_sources(source: dict, seeds) -> dict:
    """Each seed's source dataset, or the exception loading it raised. A
    CSV does not depend on the seed, so it is parsed once for all seeds."""

    def load(seed):
        try:
            return load_source(source, seed)
        except Exception as exc:  # every cell of this seed reports it
            return exc

    if "csv" in source:
        shared = load(seeds[0])
        return {seed: shared for seed in seeds}
    return {seed: load(seed) for seed in seeds}


def _run_column(cfg: ExperimentConfig, method: MethodKind, seeds, sources: dict) -> list:
    """One method over the given seeds, in order: a ResultRow or the
    exception each cell failed with. Prepared cells that agree on train size,
    layer dims and loss train together as one stack."""
    chash = config_hash(cfg)
    out: list = [None] * len(seeds)
    cells = {}
    for i, seed in enumerate(seeds):
        if isinstance(sources[seed], Exception):
            out[i] = sources[seed]
            continue
        try:
            cells[i] = _prepare(cfg, method, seed, sources[seed])
        except Exception as exc:  # record and continue
            out[i] = exc
    stacks: dict = {}
    for i, cell in cells.items():
        stacks.setdefault((cell.fit_ds.n, cell.spec.layer_dims, cell.loss), []).append(i)
    for members in stacks.values():
        group = [cells[i] for i in members]
        start = time.perf_counter()
        try:
            fitted = train([c.fit_ds for c in group], [c.spec for c in group], group[0].loss,
                           [c.train_cfg for c in group])
        except Exception as exc:
            fitted = [exc] * len(group)
        train_s = (time.perf_counter() - start) / len(group)
        for i, cell, result in zip(members, group, fitted):
            if isinstance(result, Exception):
                out[i] = result
                continue
            try:
                out[i] = _evaluate(method, cell, result[0], chash, train_s)
            except Exception as exc:
                out[i] = exc
    return out


def _column_weight(cfg: ExperimentConfig, method: MethodKind, ds: Dataset) -> float:
    """Expected training work of a column: epochs x fit rows x sum of fan_in * fan_out."""
    train = [c * (1.0 - cfg.test_fraction) for c in ds.class_counts]
    transform = METHODS[method.name][1]
    rows = len(train) * TARGET[transform](train) if transform in TARGET else sum(train)
    if transform == "regroup":  # a k_override beside more than two classes fails the cells
        heads = sum(group_counts(train, method.k_override if len(train) == 2 else None))
    else:
        heads = len(train)
    dims = (ds.dim, *cfg.hidden_dims, heads)
    return cfg.train.epochs * rows * sum(a * b for a, b in zip(dims, dims[1:]))


# Below this expected work the fork pool's start-up costs more than the parallel
# columns save: calibrated from pooled and in-process grid times (README).
_POOL_MIN_WORK = 3e7
_worker_sources: dict = {}  # filled in pool workers only: the sources they inherit


def _init_worker(pin, sources: dict) -> None:
    pin(1)  # one BLAS thread per worker: the workers already fill the CPUs
    _worker_sources.update(sources)


def _worker_column(cfg: ExperimentConfig, method: MethodKind) -> list:
    return _run_column(cfg, method, cfg.seeds, _worker_sources)


def _first_dataset(sources: dict) -> Dataset | None:
    return next((d for d in sources.values() if isinstance(d, Dataset)), None)


def _run_columns(cfg: ExperimentConfig, sources: dict) -> list[list]:
    """Each method's `_run_column` results, config order: heaviest first on a fork pool of
    one worker per CPU, or in-process (one CPU or method, no OpenBLAS to pin, or less
    expected work, seeds x summed column weights, than _POOL_MIN_WORK)."""
    pin = getattr(ctypes.CDLL(_multiarray_umath.__file__), _BLAS_PIN, None)
    workers = min(len(os.sched_getaffinity(0)), len(cfg.methods))
    ds = _first_dataset(sources)
    weight = {m: _column_weight(cfg, m, ds) for m in cfg.methods} if ds is not None else {}
    if (pin is None or workers < 2 or not weight
            or len(cfg.seeds) * sum(weight.values()) < _POOL_MIN_WORK):
        return [_run_column(cfg, m, cfg.seeds, sources) for m in cfg.methods]
    import concurrent.futures
    import multiprocessing

    import numpy.ma  # noqa: F401  np.unique imports it lazily: once here, not per worker

    pin.argtypes, pin.restype = [ctypes.c_int], None
    fork = multiprocessing.get_context("fork")  # the workers inherit the sources unpickled
    with concurrent.futures.ProcessPoolExecutor(workers, fork, _init_worker, (pin, sources)) as pool:
        futures = {m: pool.submit(_worker_column, cfg, m)
                   for m in sorted(cfg.methods, key=lambda m: -weight[m])}
    return [[futures[m].exception()] * len(cfg.seeds) if futures[m].exception()
            else futures[m].result() for m in cfg.methods]  # exception: BrokenProcessPool


def run_experiment(cfg: ExperimentConfig, method: MethodKind, seed: int) -> ResultRow:
    """One grid cell; deterministic in (cfg, method, seed) except wall time.
    Raises what the cell fails with."""
    (result,) = _run_column(cfg, method, (seed,), _load_sources(cfg.dataset, (seed,)))
    if isinstance(result, Exception):
        raise result
    return result


@dataclass(frozen=True)
class AggregateLine:
    method: str
    n_runs: int
    mean_minority_ap: float
    std_minority_ap: float
    mean_macro_ap: float
    std_macro_ap: float
    mean_ba: float
    std_ba: float
    mean_accuracy: float
    std_accuracy: float


def aggregate(rows: list[ResultRow], methods: tuple[MethodKind, ...],
              minority: int = 0) -> list[AggregateLine]:
    """Mean and population std over seeds, per method, config order; minority
    AP is class `minority`'s. Failed cells are skipped; methods with no
    successful run are omitted."""
    lines = []
    for m in methods:
        ok = [r for r in rows if r.method == m.name and not r.error]
        if not ok:
            continue

        def stats(vals):
            a = np.array(vals, dtype=np.float64)
            return float(a.mean()), float(a.std())

        min_ap = stats([r.ap_per_class[minority] for r in ok])
        mac = stats([r.macro_ap for r in ok])
        ba = stats([r.balanced_accuracy for r in ok])
        acc = stats([r.accuracy for r in ok])
        lines.append(AggregateLine(m.name, len(ok), *min_ap, *mac, *ba, *acc))
    return lines


def run_grid(cfg: ExperimentConfig):
    """Run the full method x seed grid; rows in config order. Failed cells
    are recorded with their error string and the grid continues. The
    aggregates' minority is the source's smallest class (ties: lowest id)."""
    rows = []
    chash = config_hash(cfg)
    sources = _load_sources(cfg.dataset, cfg.seeds)
    columns = _run_columns(cfg, sources)
    for method, column in zip(cfg.methods, columns):
        for seed, result in zip(cfg.seeds, column):
            if isinstance(result, Exception):
                result = ResultRow(
                    method.name, seed, None, None, None, (), None, None, chash, 0.0,
                    error=f"{type(result).__name__}: {result}",
                )
            rows.append(result)
    ds = _first_dataset(sources)  # None: every cell failed, and nothing aggregates
    minority = ds.class_counts.index(min(ds.class_counts)) if ds is not None else 0
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
        fh.write(
            f"{'method':<10} {'runs':>4} {'minority AP':>16} {'macro AP':>16} "
            f"{'bal. acc':>16} {'accuracy':>16}\n"
        )
        for a in aggregates:
            fh.write(
                f"{a.method:<10} {a.n_runs:>4}"
                f" {a.mean_minority_ap:.4f} +- {a.std_minority_ap:.4f}"
                f" {a.mean_macro_ap:.4f} +- {a.std_macro_ap:.4f}"
                f" {a.mean_ba:.4f} +- {a.std_ba:.4f}"
                f" {a.mean_accuracy:.4f} +- {a.std_accuracy:.4f}\n"
            )
    return results, summary


def load_config(path) -> ExperimentConfig:
    """Read an experiment config from JSON with keys matching
    ExperimentConfig fields. HarnessError names the first problem found: an
    unreadable file, a missing or unknown key, or any problem
    ExperimentConfig finds."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read config: {exc}") from None
    if not isinstance(doc, dict):
        raise HarnessError("config must be a JSON object")
    known = fields(ExperimentConfig)
    unknown = sorted(set(doc) - {f.name for f in known})
    if unknown:
        raise HarnessError(f"unknown keys {unknown}; expected some of {[f.name for f in known]}")
    missing = [f.name for f in known if f.name not in doc and f.default is f.default_factory]
    if missing:  # no default: default and default_factory are both MISSING
        raise HarnessError(f"missing key {missing[0]!r}")
    try:
        return ExperimentConfig(**doc)
    except (TypeError, ValueError) as exc:  # HarnessError, DatasetError, TrainingError, ...
        raise HarnessError(str(exc)) from None
