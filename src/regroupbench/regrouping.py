"""Pseudo-label regrouping: split majority classes into clusters so an
imbalanced problem becomes a near-balanced multiclass one.

Each class owns a block of pseudo ids, in class order; a split class's
clusters take its block in canonical (lexicographic-centroid) order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import KMeansModel, kmeans_fit
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
    """Bidirectional map between original classes and pseudo-label ids.

    Original class c owns the contiguous pseudo id block
    [offset_c, offset_c + group_counts[c]); classes split into more than one
    group carry the k-means model that produced the split.
    """

    group_counts: tuple[int, ...]
    cluster_models: dict[int, KMeansModel] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if any(g < 1 for g in self.group_counts):
            raise RegroupError("every group count must be >= 1")
        offsets = np.concatenate([[0], np.cumsum(self.group_counts)])
        original = np.concatenate(
            [np.full(g, c, dtype=np.int64) for c, g in enumerate(self.group_counts)]
        )
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_original_of", original)

    @property
    def original_num_classes(self) -> int:
        return len(self.group_counts)

    @property
    def pseudo_num_classes(self) -> int:
        return int(self._offsets[-1])

    def pseudo_ids_of(self, original_class: int) -> range:
        lo = int(self._offsets[original_class])
        return range(lo, lo + self.group_counts[original_class])


def group_counts(class_counts, k_override=None) -> list[int]:
    """Groups per class: max(1, round-half-to-even(count_c / min count)). For
    two classes that is 1 for the minority (the smaller class; class 0 on a
    tie) and compute_k for the other class, whose count k_override replaces."""
    counts = list(class_counts)
    smallest = min(counts)
    groups = [max(1, round(c / smallest)) for c in counts]
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
        rows = train.features[idx]
        if g > 1:
            n_distinct = np.unique(rows, axis=0).shape[0]
            if g > n_distinct:
                warnings.append(
                    f"class {c}: requested {g} groups but only {n_distinct} distinct rows; clamped"
                )
                g = n_distinct
        offset = sum(groups)
        if g > 1:
            model = kmeans_fit(rows, g, seed=seed + c, _n_distinct=n_distinct)
            models[c] = model
            pseudo[idx] = offset + model.assignments
        else:
            pseudo[idx] = offset
        groups.append(g)
    plan = RegroupPlan(tuple(groups), models, tuple(warnings))
    return train.with_labels(pseudo), plan


def regroup_binary(train: Dataset, K: int, seed: int) -> tuple[Dataset, RegroupPlan]:
    """The minority keeps one group; the other class is split into K clusters."""
    return regroup_multiclass(train, seed, K)


def collapse_proba_matrix(pseudo_proba: np.ndarray, plan: RegroupPlan):
    """Vectorized collapse of an (n, pseudo_C) probability matrix.

    Returns (predicted original labels, (n, original_C) score matrix).
    """
    P = np.asarray(pseudo_proba, dtype=np.float64)
    pred = plan._original_of[np.argmax(P, axis=1)]
    scores = np.column_stack(
        [P[:, list(plan.pseudo_ids_of(c))].sum(axis=1) for c in range(plan.original_num_classes)]
    )
    return pred, scores
