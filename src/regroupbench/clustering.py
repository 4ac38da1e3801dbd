"""Deterministic k-means (k-means++ seeding, Lloyd iterations).

Determinism contract: a fixed (X, k, seed) always produces the same model,
and converged clusters are renumbered by lexicographic centroid order so
cluster ids are stable across runs and platforms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BLOCK = 64  # rows per block of the exact fallback kernel
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny


class ClusteringError(ValueError):
    """Raised for a k below 1 or above the number of distinct rows."""


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray       # (k, D)
    assignments: np.ndarray     # (n,) ids in 0..k-1, argmin distance, ties -> lowest id
    inertia: float              # sum of squared distances to assigned centroids
    iterations_run: int
    inertia_trace: tuple[float, ...] = ()  # inertia after each Lloyd assignment step
    converged: bool = True  # False when the fit stopped at max_iter still moving >= tol
    final_shift: float = 0.0  # max squared centroid displacement of the last Lloyd step

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        a = np.asarray(self.assignments, dtype=np.int64)
        c.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "assignments", a)


def _sq_dists(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances: the exact kernel whose argmin
    `_assign` returns. It builds an (n, k, D) tensor, so `_assign` calls it
    on row blocks only."""
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _assign(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid ids, ties -> lowest id: exactly
    ``np.argmin(_sq_dists(X, centroids), axis=1)`` in O(n·k) memory.

    Screen: G = ||c||^2 - 2 x.c from one matmul; it is the squared distance
    less ||x||^2, which is the same along a row and cannot move the argmin.
    G (up to that constant) and `_sq_dists` each lie within
    b = gamma_{D+4} (||x|| + max||c||)^2 of the true squared distance
    (underflow adds at most a few tiny). When a row's two smallest G values
    differ by more than tol = 2 * 4b, the exact kernel has the same unique
    winner: 4b covers both values under both forms, and the factor 2 covers
    the rounding of gap, tol and the norms. The other rows (near-ties, and
    rows where G or tol overflowed or went NaN) are recomputed with
    `_sq_dists`, _BLOCK rows at a time.
    """
    n = X.shape[0]
    cc = np.einsum("kd,kd->k", centroids, centroids)
    G = X @ (-2.0 * centroids.T)
    G += cc
    rows = np.arange(n)
    best = np.argmin(G, axis=1)
    first = G[rows, best]
    G[rows, best] = np.inf
    gap = np.min(G, axis=1) - first
    d = X.shape[1] + 4
    gamma = d * _UNIT_ROUNDOFF / (1.0 - d * _UNIT_ROUNDOFF)
    scale = np.sqrt(np.einsum("nd,nd->n", X, X)) + np.sqrt(cc.max())
    tol = 8.0 * gamma * scale * scale + 4.0 * _TINY
    unsure = np.flatnonzero(~((gap > tol) & (gap < np.inf)))  # NaN gaps are unsure
    for start in range(0, unsure.size, _BLOCK):
        idx = unsure[start:start + _BLOCK]
        best[idx] = np.argmin(_sq_dists(X[idx], centroids), axis=1)  # argmin breaks ties low
    return best


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
    (converged) or max_iter is reached (not converged); the last step's
    displacement is the model's final_shift. Empty clusters are
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
    iterations, converged, movement = 0, False, np.inf
    for iterations in range(1, max_iter + 1):
        assignments = _assign(X, centroids)
        counts = np.bincount(assignments, minlength=k)
        if not counts.all():
            # empty-cluster repair in id order: reseed at the worst-fit point
            for cid in range(k):
                if counts[cid] == 0:
                    dists = np.sum((X - centroids[assignments]) ** 2, axis=1)
                    worst = int(np.argmax(dists))
                    counts[assignments[worst]] -= 1
                    counts[cid] = 1
                    centroids[cid] = X[worst]
                    assignments[worst] = cid
        trace.append(float(np.sum((X - centroids[assignments]) ** 2)))
        # each cluster's rows in index order, averaged as X[assignments == cid].mean(axis=0);
        # the narrowest id dtype lets the stable sort be a radix sort
        ids = assignments.astype(np.min_scalar_type(k - 1))
        members = X[np.argsort(ids, kind="stable")]
        new_centroids = np.vstack(
            [part.mean(axis=0) for part in np.split(members, np.cumsum(counts)[:-1])]
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
    return KMeansModel(
        centroids, assignments, inertia, iterations, tuple(trace), converged, float(movement)
    )
