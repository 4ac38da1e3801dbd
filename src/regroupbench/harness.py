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
    load_csv_dataset,
    mixture_from_dict,
    standardize,
    stratified_split,
)
from .losses import LossSpec
from .metrics import confusion_table, per_class_ap, summary_metrics
from .regrouping import (
    RegroupPlan,
    collapse_proba_matrix,
    compute_k,
    regroup_binary,
    regroup_multiclass,
)
from .resampling import ResampleSpec, resample
from .trainer import MlpSpec, TrainConfig, predict_proba, train

_BLAS_PIN = "scipy_openblas_set_num_threads64_"  # numpy's OpenBLAS thread-count setter
METHOD_NAMES = ("CE", "WCE", "Focal", "LDAM", "ROS+CE", "RUS+CE", "SMOTE+CE", "RG+CE")
_RESAMPLERS = {"ROS+CE": "ros", "RUS+CE": "rus", "SMOTE+CE": "smote"}

RESULTS_HEADER = (
    "method,seed,accuracy,balanced_accuracy,macro_ap,ap_per_class,K,train_size,"
    "config_hash,wall_time_s,error"
)


class HarnessError(ValueError):
    """Raised for invalid experiment configuration."""


@dataclass(frozen=True)
class MethodKind:
    name: str
    gamma: float = field(default=2.0, metadata={"method": "Focal"})
    margin_scale: float = field(default=0.5, metadata={"method": "LDAM"})
    logit_scale: float = field(default=30.0, metadata={"method": "LDAM"})
    k_neighbors: int = field(default=5, metadata={"method": "SMOTE+CE"})
    k_override: int | None = field(default=None, metadata={"method": "RG+CE"})  # forced K

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise HarnessError(f"unknown method {self.name!r}; expected one of {METHOD_NAMES}")
        unused = [f.name for f in fields(self) if f.metadata.get("method", self.name) != self.name
                  and getattr(self, f.name) != f.default]
        if unused:  # a typo'd pairing would otherwise be silent and change config_hash
            raise HarnessError(f"method {self.name} does not use {', '.join(unused)}")
        if self.k_override is not None and self.k_override < 1:
            raise HarnessError(f"k_override must be >= 1, got {self.k_override}")
        self.loss_spec((1,))  # the specs' own checks reject a bad hyperparameter here
        if self.name in _RESAMPLERS:
            ResampleSpec(_RESAMPLERS[self.name], k_neighbors=self.k_neighbors)

    def loss_spec(self, class_counts: tuple[int, ...]) -> LossSpec:
        """The loss this method trains with, for a train split's class counts."""
        if self.name == "WCE":
            return LossSpec("wce", class_counts=class_counts)
        if self.name == "Focal":
            return LossSpec("focal", gamma=self.gamma)
        if self.name == "LDAM":
            return LossSpec("ldam", class_counts=class_counts, margin_scale=self.margin_scale,
                            logit_scale=self.logit_scale)
        return LossSpec("ce")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict                       # {"builtin": ...} | {"csv": ...} | {"mixture": ...}
    methods: tuple[MethodKind, ...]
    seeds: tuple[int, ...]              # or a comma-separated string, as --seeds gives it
    test_fraction: float = 0.2
    standardize: bool = True
    hidden_dims: tuple[int, ...] = (32,)
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str = "out"

    def __post_init__(self):
        if not self.methods or not self.seeds:
            raise HarnessError("need at least one method and one seed")
        seeds = self.seeds.split(",") if isinstance(self.seeds, str) else self.seeds
        try:
            seeds = tuple(int(s) for s in seeds)
        except (TypeError, ValueError):
            raise HarnessError(f"seeds must be integers, got {self.seeds!r}") from None
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if any(d < 1 for d in self.hidden_dims):
            raise HarnessError(f"hidden_dims entries must be >= 1, got {list(self.hidden_dims)}")
        if not 0.0 < self.test_fraction < 1.0:
            raise HarnessError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not isinstance(self.standardize, bool):
            raise HarnessError(f"standardize must be true or false, got {self.standardize!r}")


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
        def fmt(v):
            return "" if v is None else repr(float(v))

        ap_cell = ";".join("" if a is None else repr(float(a)) for a in self.ap_per_class)
        return ",".join(
            [
                self.method,
                str(self.seed),
                fmt(self.accuracy),
                fmt(self.balanced_accuracy),
                fmt(self.macro_ap),
                ap_cell,
                "" if self.k_groups is None else str(self.k_groups),
                "" if self.train_size is None else str(self.train_size),
                self.config_hash,
                f"{self.wall_time_s:.6f}",
                self.error.replace(",", ";").replace("\n", " "),
            ]
        )


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
    Raises HarnessError or DatasetError for a source that names none."""
    if "csv" in source:
        return None
    if "builtin" in source:
        return builtin_mixture(source["builtin"])
    if "mixture" in source:
        return mixture_from_dict(source["mixture"])
    raise HarnessError(f"dataset source must have csv, builtin, or mixture key: {source}")


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

    counts = train_ds.class_counts
    loss, fit_ds, plan, k_groups = method.loss_spec(counts), train_ds, None, None
    if method.name in _RESAMPLERS:
        resampling = ResampleSpec(_RESAMPLERS[method.name], seed + 2, method.k_neighbors)
        fit_ds = resample(train_ds, resampling)
    elif method.name == "RG+CE":
        if ds.num_classes == 2:
            K = compute_k(counts[1], counts[0]) if method.k_override is None else method.k_override
            fit_ds, plan = regroup_binary(train_ds, K, seed + 2)
            k_groups = K
        else:
            fit_ds, plan = regroup_multiclass(train_ds, seed + 2)
            k_groups = plan.pseudo_num_classes

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
    fit = {"ROS+CE": max(train), "SMOTE+CE": max(train), "RUS+CE": min(train)}
    rows = len(train) * fit[method.name] if method.name in fit else sum(train)
    heads = sum(round(c / min(train)) for c in train) if method.name == "RG+CE" else len(train)
    dims = (ds.dim, *cfg.hidden_dims, heads)
    return cfg.train.epochs * rows * sum(a * b for a, b in zip(dims, dims[1:]))


_worker_sources: dict = {}  # filled in pool workers only: the sources they inherit


def _init_worker(pin, sources: dict) -> None:
    pin(1)  # one BLAS thread per worker: the workers already fill the CPUs
    _worker_sources.update(sources)


def _worker_column(cfg: ExperimentConfig, method: MethodKind) -> list:
    return _run_column(cfg, method, cfg.seeds, _worker_sources)


def _run_columns(cfg: ExperimentConfig, sources: dict) -> list[list]:
    """Each method's `_run_column` results, config order: heaviest first on a fork pool of
    one worker per CPU, or in-process (one CPU or method, or no OpenBLAS to pin)."""
    pin = getattr(ctypes.CDLL(_multiarray_umath.__file__), _BLAS_PIN, None)
    workers = min(len(os.sched_getaffinity(0)), len(cfg.methods))
    ds = next((d for d in sources.values() if isinstance(d, Dataset)), None)
    if pin is None or workers < 2 or ds is None:
        return [_run_column(cfg, m, cfg.seeds, sources) for m in cfg.methods]
    import concurrent.futures
    import multiprocessing

    import numpy.ma  # noqa: F401  np.unique imports it lazily: once here, not per worker

    pin.argtypes, pin.restype = [ctypes.c_int], None
    fork = multiprocessing.get_context("fork")  # the workers inherit the sources unpickled
    with concurrent.futures.ProcessPoolExecutor(workers, fork, _init_worker, (pin, sources)) as pool:
        futures = {m: pool.submit(_worker_column, cfg, m)
                   for m in sorted(cfg.methods, key=lambda m: -_column_weight(cfg, m, ds))}
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


def aggregate(rows: list[ResultRow], methods: tuple[MethodKind, ...]) -> list[AggregateLine]:
    """Mean and population std over seeds, per method, config order.
    Failed cells are skipped; methods with no successful run are omitted."""
    lines = []
    for m in methods:
        ok = [r for r in rows if r.method == m.name and not r.error]
        if not ok:
            continue

        def stats(vals):
            a = np.array(vals, dtype=np.float64)
            return float(a.mean()), float(a.std())

        min_ap = stats([r.ap_per_class[0] for r in ok])
        mac = stats([r.macro_ap for r in ok])
        ba = stats([r.balanced_accuracy for r in ok])
        acc = stats([r.accuracy for r in ok])
        lines.append(AggregateLine(m.name, len(ok), *min_ap, *mac, *ba, *acc))
    return lines


def run_grid(cfg: ExperimentConfig):
    """Run the full method x seed grid; rows in config order. Failed cells
    are recorded with their error string and the grid continues."""
    rows = []
    chash = config_hash(cfg)
    columns = _run_columns(cfg, _load_sources(cfg.dataset, cfg.seeds))
    for method, column in zip(cfg.methods, columns):
        for seed, result in zip(cfg.seeds, column):
            if isinstance(result, Exception):
                result = ResultRow(
                    method.name, seed, None, None, None, (), None, None, chash, 0.0,
                    error=f"{type(result).__name__}: {result}",
                )
            rows.append(result)
    return rows, aggregate(rows, cfg.methods)


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
    unreadable file, a missing or unknown key, a bad value, or a dataset
    source that names no dataset."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read config: {exc}") from None
    if not isinstance(doc, dict):
        raise HarnessError("config must be a JSON object")
    known = [f.name for f in fields(ExperimentConfig)]
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise HarnessError(f"unknown keys {unknown}; expected some of {known}")
    try:
        cfg = ExperimentConfig(
            dataset=doc["dataset"],
            methods=tuple(MethodKind(**m) for m in doc["methods"]),
            seeds=doc["seeds"],
            test_fraction=float(doc.get("test_fraction", 0.2)),
            standardize=doc.get("standardize", True),
            hidden_dims=tuple(doc.get("hidden_dims", [32])),
            train=TrainConfig(**doc.get("train", {})),
            output_dir=doc.get("output_dir", "out"),
        )
        _source_mixture(cfg.dataset)
    except KeyError as exc:
        raise HarnessError(f"missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # HarnessError, DatasetError, TrainingError
        raise HarnessError(str(exc)) from None
    return cfg
