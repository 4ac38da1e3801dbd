"""Class-rebalancing by resampling: ROS, RUS, and SMOTE."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import k_nearest
from .dataset import Dataset, typed

TARGET = {"ros": max, "rus": min, "smote": max}  # kind -> each class's count after, of the counts


class ResampleError(ValueError):
    """Raised for invalid resampling configuration."""


@dataclass(frozen=True)
class ResampleSpec:
    kind: str  # a key of TARGET
    seed: int = 0
    k_neighbors: int = 5  # smote only

    def __post_init__(self):
        typed(self, ResampleError)
        if self.kind not in TARGET:
            raise ResampleError(f"unknown resampling kind {self.kind!r}")
        if self.kind == "smote" and self.k_neighbors < 1:
            raise ResampleError("k_neighbors must be >= 1")


def resample(train: Dataset, spec: ResampleSpec) -> Dataset:
    """Rebalance the training set.

    ros: every class upsampled with replacement to the max class count.
    rus: every class downsampled without replacement to the min class count.
    smote: classes below the max count are topped up with synthetic points
    x + u * (x_nn - x), u ~ U(0,1), x_nn one of the k nearest same-class
    neighbors of x. Deterministic given the seed.
    """
    if train.num_classes < 2:
        raise ResampleError("need >= 2 classes")
    rng = np.random.default_rng(spec.seed)
    counts = train.class_counts
    target = TARGET[spec.kind](counts)

    feat_parts, label_parts = [], []
    for c, count in enumerate(counts):
        idx = np.flatnonzero(train.labels == c)
        if spec.kind == "rus":
            keep = rng.permutation(idx)[:target]
            feat_parts.append(train.features[np.sort(keep)])
        elif spec.kind == "ros":
            extra = rng.choice(idx, size=target - count, replace=True)
            feat_parts.append(train.features[np.concatenate([idx, extra])])
        else:  # smote
            rows = train.features[idx]
            deficit = target - count
            if deficit > 0 and count < 2:
                raise ResampleError(f"smote: class {c} has a single sample, no neighbor")
            parts = [rows]
            if deficit > 0:
                k = min(spec.k_neighbors, count - 1)
                neighbors = k_nearest(rows, rows, k, exclude_self=True)
                base = rng.integers(count, size=deficit)
                pick = neighbors[base, rng.integers(k, size=deficit)]
                u = rng.random(deficit)
                parts.append(rows[base] + u[:, None] * (rows[pick] - rows[base]))
            feat_parts.append(np.vstack(parts))
        label_parts.append(np.full(len(feat_parts[-1]), c, dtype=np.int64))
    return Dataset(np.vstack(feat_parts), np.concatenate(label_parts))
