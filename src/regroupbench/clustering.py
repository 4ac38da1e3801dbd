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
    """Raised for a k below 1 or above the number of distinct rows, which
    `distinct_rows` then holds."""

    def __init__(self, message: str, distinct_rows: int | None = None):
        super().__init__(message)
        self.distinct_rows = distinct_rows


def _check_k(X: np.ndarray, k: int) -> None:
    """Raise ClusteringError unless 1 <= k <= X's distinct rows. One column's
    distinct values bound the rows from below; they are counted only when that
    bound is below k, and the error then carries their count."""
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    if k > np.unique(X[:, 0]).shape[0]:
        n_distinct = np.unique(X, axis=0).shape[0]
        if k > n_distinct:
            raise ClusteringError(f"k={k} exceeds {n_distinct} distinct rows", n_distinct)


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


def _tolerance(xx: np.ndarray, cc_max: float, d: int) -> np.ndarray:
    """`k_nearest`'s tol = 2 * 4b for rows of squared norms xx, max ||c||^2 = cc_max."""
    u = (d + 4) * _UNIT_ROUNDOFF
    return 8.0 * u / (1.0 - u) * (np.sqrt(xx) + np.sqrt(cc_max)) ** 2 + 4.0 * _TINY


def _search(X: np.ndarray, C: np.ndarray, k: int, xx: np.ndarray, exclude_self: bool = False):
    """`k_nearest` for rows X of squared norms xx, with the screen's G and its sure mask."""
    cc = np.einsum("kd,kd->k", C, C)
    neg2ct = -2.0 * C.T
    nearest = np.empty((len(X), k), dtype=np.intp)
    values = np.empty((len(X), k + 1))
    tol = _tolerance(xx, cc.max(), X.shape[1])
    step = max(1, _CELLS // len(C))
    for start in range(0, len(X), step):
        x, v = X[start:start + step], values[start:start + step]
        rows = np.arange(len(x))
        G = x @ neg2ct
        G += cc
        if exclude_self:
            G[rows, start + rows] = np.inf
        for j in range(k):
            best = np.argmin(G, axis=1)
            nearest[start:start + step, j] = best
            v[:, j] = G[rows, best]
            G[rows, best] = np.inf
        v[:, k] = G[rows, np.argmin(G, axis=1)]  # faster than np.min along short rows
    gaps = np.diff(values, axis=1)  # NaN gaps are unsure
    sure = np.all((gaps > tol[:, None]) & (gaps < np.inf), axis=1)
    unsure = np.flatnonzero(~sure)
    step = max(1, _CELLS // C.size)
    for idx in np.split(unsure, np.arange(step, unsure.size, step)):
        d2 = _sq_dists(X[idx], C)
        d2[np.isnan(d2)] = -np.inf  # NaN ranks nearest, as in np.argmin
        if exclude_self:
            d2[np.arange(idx.size), idx] = np.inf
        nearest[idx] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return nearest, values, sure


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
    return _search(X, C, k, np.einsum("nd,nd->n", X, X), exclude_self)[0]


def _row_sq_dists(X: np.ndarray, XT: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``np.sum((X - c) ** 2, axis=1)`` bit for bit, from XT = X.T made contiguous.

    Up to 128 columns numpy sums each row pairwise: under 8 left to right, else
    into 8 accumulators that combine as ((0+1)+(2+3))+((4+5)+(6+7)) before the
    leftover columns add left to right. Here each term is a whole row of XT, and
    the 8 accumulators are 8 rows updated as one block, so the same additions
    run as a few vector operations. Wider rows take numpy's expression.
    """
    d = XT.shape[0]
    if d > 128:
        return np.sum((X - c) ** 2, axis=1)
    sq = XT - c[:, None]
    np.multiply(sq, sq, out=sq)  # row j: column j's squared differences
    if d < 8:
        acc, head = sq[0], 1
    else:
        head, r = d - d % 8, sq[:8]
        for i in range(8, head, 8):
            r += sq[i:i + 8]
        r = r[0::2] + r[1::2]  # 0+1, 2+3, 4+5, 6+7
        acc = r[0] + r[1]
        acc += r[2] + r[3]
    for j in range(head, d):
        acc += sq[j]
    return acc


def _plusplus_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, the rest drawn with
    probability proportional to squared distance to the nearest chosen
    center. Draws resolve ties at the lowest index."""
    n, XT = X.shape[0], np.ascontiguousarray(X.T)
    centers = [int(rng.integers(n))]
    closest = _row_sq_dists(X, XT, X[centers[0]])
    for _ in range(1, k):
        total = closest.sum()
        if total <= 0:  # all remaining points coincide with chosen centers
            candidates = np.setdiff1d(np.arange(n), np.array(centers))
            centers.append(int(candidates[0]))
        else:
            u = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), u, side="right"))
            centers.append(min(idx, n - 1))
        np.minimum(closest, _row_sq_dists(X, XT, X[centers[-1]]), out=closest)
    return X[np.array(centers)].copy()


def kmeans_fit(X, k: int, seed: int, max_iter: int = 100, tol: float = 1e-6) -> KMeansModel:
    """Lloyd's algorithm from k-means++ seeds.

    Stops when the max squared centroid displacement drops below tol
    (converged) or max_iter is reached (not converged); the last step's
    displacement is the model's final_shift. Empty clusters are
    reseeded at the point farthest from its assigned centroid, which keeps
    all k ids in use and preserves the non-increasing inertia trace.

    Bit for bit the plain loop: rows whose Hamerly (2010) bounds, grown by each
    update's shifts, still clear skip the screen; only changed clusters get new means.
    """
    X = np.asarray(X, dtype=np.float64)
    _check_k(X, k)

    (n, d), xx = X.shape, np.einsum("nd,nd->n", X, X)
    tol_fit = _tolerance(xx, xx.max(), d)  # every centroid is a row or a mean of rows
    centroids = _plusplus_init(X, k, np.random.default_rng(seed))
    assignments, upper, lower = np.zeros(n, dtype=np.intp), np.full(n, np.inf), np.zeros(n)
    fresh = np.zeros(k, dtype=bool)  # centroid is the mean of its cluster's current rows
    trace, resid = [], np.empty_like(X)  # resid: (X - centroids[assignments]) ** 2
    iterations, converged, movement = 0, False, np.inf
    for iterations in range(1, max_iter + 1):
        rows = np.flatnonzero(~(upper * upper + tol_fit < lower * lower))
        ids, values, sure = _search(X.take(rows, axis=0), centroids, 1, xx[rows])
        moved = ids[:, 0] != assignments[rows]
        fresh[assignments[rows[moved]]] = False  # clusters that lose or gain a row
        fresh[ids[moved, 0]] = False
        assignments[rows] = ids[:, 0]
        upper[rows], lower[rows] = np.inf, 0.0
        rows, values = rows[sure], values[sure]
        upper[rows] = np.sqrt(values[:, 0] + xx[rows] + tol_fit[rows])
        lower[rows] = np.sqrt(np.maximum(values[:, 1] + xx[rows] - tol_fit[rows], 0.0))
        counts = np.bincount(assignments, minlength=k)
        if not counts.all():
            # empty-cluster repair in id order: reseed at the worst-fit point
            for cid in range(k):
                if counts[cid] == 0:
                    dists = np.sum((X - centroids[assignments]) ** 2, axis=1)
                    dists[counts[assignments] < 2] = -np.inf  # never empty another cluster
                    worst = int(np.argmax(dists))
                    counts[assignments[worst]] -= 1
                    counts[cid] = 1
                    centroids[cid] = X[worst]
                    assignments[worst] = cid
            upper[:], lower[:], fresh[:] = np.inf, 0.0, False
        np.subtract(X, np.take(centroids, assignments, axis=0, out=resid, mode="clip"), out=resid)
        trace.append(float(np.sum(np.square(resid, out=resid))))
        # each stale cluster's rows in index order, summed and divided as .mean(axis=0)
        # does; the narrowest id dtype lets the stable sort be a radix sort
        stale, new_centroids, fresh[:] = ~fresh, centroids.copy(), True
        rows = np.flatnonzero(stale[assignments])
        ids = assignments[rows].astype(np.min_scalar_type(k - 1))
        members = X.take(rows[np.argsort(ids, kind="stable")], axis=0)
        sums = [np.add.reduce(p, axis=0) for p in np.split(members, np.cumsum(counts[stale])[:-1])]
        new_centroids[stale] = np.vstack(sums) / counts[stale, None]
        shift2 = np.sum((new_centroids - centroids) ** 2, axis=1)
        movement = np.max(shift2)
        centroids = new_centroids
        # bounds move by upper bounds on the true shifts (rounding, underflow), rounded outward
        shift = np.sqrt(shift2) * (1.0 + 2.0 * (d + 4) * _UNIT_ROUNDOFF) + np.sqrt(d * _TINY)
        top, (second, first) = np.argmax(shift), np.sort(np.append(shift, 0.0))[-2:]
        upper = (upper + shift[assignments]) * (1.0 + 4.0 * _UNIT_ROUNDOFF)
        lower = (lower - np.where(assignments == top, second, first)) * (1.0 - 4.0 * _UNIT_ROUNDOFF)
        np.maximum(lower, 0.0, out=lower)
        if movement < tol:
            converged = True
            break

    # canonical ordering: renumber clusters lexicographically by centroid
    order = np.lexsort(centroids.T[::-1])
    centroids = centroids[order]
    assignments = k_nearest(X, centroids, 1)[:, 0]
    inertia = float(np.sum((X - centroids.take(assignments, axis=0)) ** 2))
    return KMeansModel(
        centroids, assignments, inertia, iterations, tuple(trace), converged, float(movement)
    )
