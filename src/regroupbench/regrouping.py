"""Pseudo-label regrouping: split majority classes into clusters so an
imbalanced problem becomes a near-balanced multiclass one.

Each class owns a block of pseudo ids, in class order; a split class's
clusters take its block in canonical (lexicographic-centroid) order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusteringError, KMeansModel, kmeans_fit
from .dataset import Dataset


class RegroupError(ValueError):
    """Raised for invalid regrouping inputs."""


def compute_k(n_majority: int, n_minority: int) -> int:
    """Number of majority clusters = imbalance ratio, round-half-to-even,
    floored at 1."""
    if n_majority < 1 or n_minority < 1:
        raise RegroupError("class counts must be >= 1")
    return max(1, round(n_majority / n_minority))


@dataclass(frozen=True)
class RegroupPlan:
    """One group count per original class. Class c owns the pseudo ids
    [sum(group_counts[:c]), sum(group_counts[:c + 1])), so the blocks follow
    class order; classes split into more than one group carry the k-means
    model that produced the split.
    """

    group_counts: tuple[int, ...]
    cluster_models: dict[int, KMeansModel] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if any(g < 1 for g in self.group_counts):
            raise RegroupError("every group count must be >= 1")

    @property
    def pseudo_num_classes(self) -> int:
        return int(sum(self.group_counts))


def group_counts(class_counts, k_override=None) -> list[int]:
    """Groups per class: compute_k(count_c, min count), which is 1 for the
    smallest class. For two classes, k_override replaces the count of the class
    other than the minority (the smaller class; class 0 on a tie)."""
    counts = list(class_counts)
    smallest = min(counts)
    groups = [compute_k(c, smallest) for c in counts]
    if k_override is not None:
        if len(counts) != 2:
            raise RegroupError(f"k_override needs 2 classes, got {len(counts)}")
        groups[1 - counts.index(smallest)] = k_override
    return groups


def regroup_multiclass(train: Dataset, seed: int,
                       k_override: int | None = None) -> tuple[Dataset, RegroupPlan]:
    """Every class c gets its `group_counts` groups, split by k-means seeded
    seed + c; a group count exceeding the class's distinct-row count is
    clamped with a warning recorded in the plan."""
    if train.num_classes < 2:
        raise RegroupError("need >= 2 classes")
    models: dict[int, KMeansModel] = {}
    warnings: list[str] = []
    groups: list[int] = []
    pseudo = np.empty(train.n, dtype=np.int64)
    for c, g in enumerate(group_counts(train.class_counts, k_override)):
        idx = np.flatnonzero(train.labels == c)
        rows, offset = train.features[idx], sum(groups)
        while g > 1 and c not in models:  # a g above the distinct rows: clamp it, refit
            try:
                models[c] = kmeans_fit(rows, g, seed=seed + c)
            except ClusteringError as err:
                warnings.append(f"class {c}: requested {g} groups but only "
                                f"{err.distinct_rows} distinct rows; clamped")
                g = err.distinct_rows
        pseudo[idx] = offset + models[c].assignments if c in models else offset
        groups.append(g)
    plan = RegroupPlan(tuple(groups), models, tuple(warnings))
    return Dataset(train.features, pseudo), plan


def regroup_binary(train: Dataset, K: int, seed: int) -> tuple[Dataset, RegroupPlan]:
    """The minority keeps one group; the other class is split into K clusters."""
    return regroup_multiclass(train, seed, K)


def collapse_proba_matrix(pseudo_proba: np.ndarray, plan: RegroupPlan):
    """Vectorized collapse of an (n, pseudo_C) probability matrix: a class's
    score sums its block of pseudo columns (a one-group class's is its column).

    Returns (predicted original labels, (n, original_C) score matrix).
    """
    P = np.asarray(pseudo_proba, dtype=np.float64)
    counts = np.asarray(plan.group_counts)
    pred = np.repeat(np.arange(counts.size), counts)[np.argmax(P, axis=1)]
    return pred, np.add.reduceat(P, np.cumsum(counts) - counts, axis=1)
