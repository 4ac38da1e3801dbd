"""Exact k-nearest search; deterministic k-means (k-means++ seeds, Lloyd).

Determinism contract: a fixed (X, k, seed) always produces the same model,
and converged clusters are renumbered by lexicographic centroid order so
cluster ids are stable across runs and platforms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CELLS = 1 << 18  # cells per k_nearest block: (rows, m) screen, (rows, m, D) exact kernel
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


def _sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances, the exact kernel `k_nearest` ranks
    by; it builds an (n, m, D) tensor, so `k_nearest` calls it on row blocks."""
    diff = X[:, None, :] - C[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def k_nearest(X: np.ndarray, C: np.ndarray, k: int, exclude_self: bool = False) -> np.ndarray:
    """(n, k) ids of each X row's k nearest C rows, nearest first, ties ->
    lowest id: exactly ``np.argsort(_sq_dists(X, C), axis=1, kind="stable")[:, :k]``
    with NaN ranked first (k=1 is np.argmin) and, if exclude_self (X is C), an
    inf diagonal. A block of rows holds about _CELLS distances.

    Screen: G = ||c||^2 - 2 x.c is the squared distance less the row constant
    ||x||^2; k+1 argmin passes (all but the last setting the winner to inf) give
    a row's k+1 smallest G, ties low. G + ||x||^2 and `_sq_dists` each lie within
    b = gamma_{D+4} (||x|| + max||c||)^2 (plus a few tiny) of the true value.
    If each consecutive gap of the k+1 exceeds tol = 2 * 4b, the exact kernel
    ranks the same k rows first, in order, untied: 4b covers both ends of a gap
    under both forms, every other row is at or above the (k+1)-th, and the 2
    covers rounding in gap, tol and the norms. Other rows (near-ties, under k+1
    finite values, overflow, NaN) are recomputed by `_sq_dists` + stable argsort.
    """
    cc = np.einsum("kd,kd->k", C, C)
    neg2ct = -2.0 * C.T
    u = (X.shape[1] + 4) * _UNIT_ROUNDOFF
    nearest = np.empty((len(X), k), dtype=np.intp)
    sure = np.empty(len(X), dtype=bool)
    step = max(1, _CELLS // len(C))
    for start in range(0, len(X), step):
        x = X[start:start + step]
        rows = np.arange(len(x))
        G = x @ neg2ct
        G += cc
        if exclude_self:
            G[rows, start + rows] = np.inf
        values = np.empty((len(x), k + 1))
        for j in range(k):
            best = np.argmin(G, axis=1)
            nearest[start:start + step, j] = best
            values[:, j] = G[rows, best]
            G[rows, best] = np.inf
        values[:, k] = G[rows, np.argmin(G, axis=1)]  # faster than np.min along short rows
        scale = np.sqrt(np.einsum("nd,nd->n", x, x)) + np.sqrt(cc.max())
        tol = 8.0 * u / (1.0 - u) * scale * scale + 4.0 * _TINY
        gaps = np.diff(values, axis=1)  # NaN gaps are unsure
        sure[start:start + step] = np.all((gaps > tol[:, None]) & (gaps < np.inf), axis=1)
    unsure = np.flatnonzero(~sure)
    step = max(1, _CELLS // C.size)
    for idx in np.split(unsure, np.arange(step, unsure.size, step)):
        d2 = _sq_dists(X[idx], C)
        d2[np.isnan(d2)] = -np.inf  # NaN ranks nearest, as in np.argmin
        if exclude_self:
            d2[np.arange(idx.size), idx] = np.inf
        nearest[idx] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return nearest


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

    centroids = _plusplus_init(X, k, np.random.default_rng(seed))
    trace = []
    iterations, converged, movement = 0, False, np.inf
    for iterations in range(1, max_iter + 1):
        assignments = k_nearest(X, centroids, 1)[:, 0]
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
    assignments = k_nearest(X, centroids, 1)[:, 0]
    inertia = float(np.sum((X - centroids[assignments]) ** 2))
    return KMeansModel(
        centroids, assignments, inertia, iterations, tuple(trace), converged, float(movement)
    )
