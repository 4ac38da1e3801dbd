"""Deterministic k-means (k-means++ seeding, Lloyd iterations).

Determinism contract: a fixed (X, k, seed) always produces the same model,
and converged clusters are renumbered by lexicographic centroid order so
cluster ids are stable across runs and platforms.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ClusteringError(ValueError):
    """Raised for invalid k or mismatched dimensions."""


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray       # (k, D)
    assignments: np.ndarray     # (n,) ids in 0..k-1, argmin distance, ties -> lowest id
    inertia: float              # sum of squared distances to assigned centroids
    iterations_run: int
    inertia_trace: tuple[float, ...] = ()  # inertia after each Lloyd assignment step
    converged: bool = True  # False when the fit stopped at max_iter still moving >= tol

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        a = np.asarray(self.assignments, dtype=np.int64)
        c.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "assignments", a)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _sq_dists(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances."""
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _assign(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.argmin(_sq_dists(X, centroids), axis=1)  # argmin breaks ties low


def _plusplus_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, the rest drawn with
    probability proportional to squared distance to the nearest chosen
    center. Draws resolve ties at the lowest index."""
    n = X.shape[0]
    centers = [int(rng.integers(n))]
    closest = np.sum((X - X[centers[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = closest.sum()
        if total <= 0:  # all remaining points coincide with chosen centers
            candidates = np.setdiff1d(np.arange(n), np.array(centers))
            centers.append(int(candidates[0]))
        else:
            u = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), u, side="right"))
            centers.append(min(idx, n - 1))
        closest = np.minimum(closest, np.sum((X - X[centers[-1]]) ** 2, axis=1))
    return X[np.array(centers)].copy()


def kmeans_fit(X, k: int, seed: int, max_iter: int = 100, tol: float = 1e-6) -> KMeansModel:
    """Lloyd's algorithm from k-means++ seeds.

    Stops when the max squared centroid displacement drops below tol
    (converged) or max_iter is reached (not converged). Empty clusters are
    reseeded at the point farthest from its assigned centroid, which keeps
    all k ids in use and preserves the non-increasing inertia trace.
    """
    X = np.asarray(X, dtype=np.float64)
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    n_distinct = np.unique(X, axis=0).shape[0]
    if k > n_distinct:
        raise ClusteringError(f"k={k} exceeds {n_distinct} distinct rows")

    rng = np.random.default_rng(seed)
    centroids = _plusplus_init(X, k, rng)
    trace = []
    assignments = None
    iterations, converged = 0, False
    for iterations in range(1, max_iter + 1):
        assignments = _assign(X, centroids)
        # empty-cluster repair: reseed at the worst-fit point
        for cid in range(k):
            if not np.any(assignments == cid):
                dists = np.sum((X - centroids[assignments]) ** 2, axis=1)
                worst = int(np.argmax(dists))
                centroids[cid] = X[worst]
                assignments[worst] = cid
        trace.append(float(np.sum((X - centroids[assignments]) ** 2)))
        new_centroids = np.vstack(
            [X[assignments == cid].mean(axis=0) for cid in range(k)]
        )
        movement = np.max(np.sum((new_centroids - centroids) ** 2, axis=1))
        centroids = new_centroids
        if movement < tol:
            converged = True
            break

    # canonical ordering: renumber clusters lexicographically by centroid
    order = np.lexsort(centroids.T[::-1])
    centroids = centroids[order]
    assignments = _assign(X, centroids)
    inertia = float(np.sum((X - centroids[assignments]) ** 2))
    return KMeansModel(centroids, assignments, inertia, iterations, tuple(trace), converged)


def kmeans_assign(model: KMeansModel, X) -> np.ndarray:
    """Nearest-centroid ids for new points (ties -> lowest centroid index)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.centroids.shape[1]:
        raise ClusteringError(
            f"point dimension {X.shape} incompatible with centroids {model.centroids.shape}"
        )
    return _assign(X, model.centroids)


def save_centroids_csv(model: KMeansModel, path):
    """Dump centroids in the dataset CSV layout, no label column."""
    path = Path(path)
    dim = model.centroids.shape[1]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"f{j}" for j in range(dim)) + "\n")
        for row in model.centroids:
            fh.write(",".join(np.format_float_scientific(v, precision=16) for v in row) + "\n")
