import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regroupbench import clustering
from regroupbench.clustering import (
    ClusteringError,
    KMeansModel,
    _plusplus_init,
    _sq_dists,
    k_nearest,
    kmeans_fit,
)

FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


def three_blobs(seed=0, std=0.1, n_each=200):
    rng = np.random.default_rng(seed)
    means = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    X = np.vstack([m + std * rng.standard_normal((n_each, 2)) for m in means])
    labels = np.repeat([0, 1, 2], n_each)
    return X, labels


class TestFit:
    def test_two_cluster_optimum(self):
        model = kmeans_fit(FOUR_POINTS, 2, seed=0)
        np.testing.assert_allclose(model.centroids, [[0.0, 0.5], [10.0, 0.5]])
        assert model.inertia == pytest.approx(1.0)
        np.testing.assert_array_equal(model.assignments, [0, 0, 1, 1])

    def test_k1_is_column_mean(self):
        model = kmeans_fit(FOUR_POINTS, 1, seed=3)
        np.testing.assert_allclose(model.centroids, [[5.0, 0.5]])
        assert np.all(model.assignments == 0)

    def test_k_equals_n_zero_inertia(self):
        model = kmeans_fit(FOUR_POINTS, 4, seed=1)
        assert model.inertia == pytest.approx(0.0)
        assert sorted(model.assignments) == [0, 1, 2, 3]

    def test_k_too_large(self):
        X = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(ClusteringError, match="distinct"):
            kmeans_fit(X, 3, seed=0)

    def test_k_below_one(self):
        with pytest.raises(ClusteringError):
            kmeans_fit(FOUR_POINTS, 0, seed=0)

    def test_converged_flag(self):
        X, _ = three_blobs(1, std=1.5)
        full = kmeans_fit(X, 3, seed=0)
        assert full.converged and 1 < full.iterations_run < 100
        capped = kmeans_fit(X, 3, seed=0, max_iter=1)
        assert not capped.converged and capped.iterations_run == 1
        # same seeding, so the one step taken is the full fit's first step
        assert capped.inertia_trace == full.inertia_trace[:1]
        exact = kmeans_fit(X, 3, seed=0, max_iter=full.iterations_run)
        assert exact.converged and exact.inertia_trace == full.inertia_trace
        np.testing.assert_array_equal(exact.centroids, full.centroids)

    def test_final_shift(self):
        X, _ = three_blobs(1, std=1.5)
        full = kmeans_fit(X, 3, seed=0)
        assert 0.0 <= full.final_shift < 1e-6
        capped = kmeans_fit(X, 3, seed=0, max_iter=1)
        assert capped.final_shift >= 1e-6
        # the first step's shift, from the same k-means++ seeding
        seeds = _plusplus_init(X, 3, np.random.default_rng(0))
        first = np.argmin(_sq_dists(X, seeds), axis=1)
        moved = np.vstack([X[first == c].mean(axis=0) for c in range(3)])
        assert capped.final_shift == np.max(np.sum((moved - seeds) ** 2, axis=1))
        loose = kmeans_fit(X, 3, seed=0, max_iter=1, tol=capped.final_shift * 2)
        assert loose.converged and loose.final_shift == capped.final_shift
        # a model built without it keeps working
        assert KMeansModel(full.centroids, full.assignments, 0.0, 1).final_shift == 0.0

    def test_determinism(self):
        X, _ = three_blobs(5)
        a = kmeans_fit(X, 3, seed=42)
        b = kmeans_fit(X, 3, seed=42)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    def test_canonical_ordering(self):
        X, _ = three_blobs(2)
        for seed in range(5):
            model = kmeans_fit(X, 3, seed=seed)
            order = np.lexsort(model.centroids.T[::-1])
            np.testing.assert_array_equal(order, np.arange(3))

    def test_all_ids_used(self):
        X, _ = three_blobs(1)
        model = kmeans_fit(X, 5, seed=9)
        assert set(model.assignments) == set(range(5))

    def test_repair_empties_no_cluster_when_distances_underflow(self):
        # every squared distance is 0, so each row ties for the worst fit
        X = np.random.default_rng(0).standard_normal((3, 2)) * 1e-200
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # mean of an empty cluster
            model = kmeans_fit(X, 3, seed=0, max_iter=2)
        assert np.unique(model.centroids, axis=0).shape == (3, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_inertia_trace_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((120, 3))
        model = kmeans_fit(X, 6, seed=seed)
        trace = np.array(model.inertia_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_recovers_separated_gaussians(self):
        X, labels = three_blobs(0)
        model = kmeans_fit(X, 3, seed=0)
        # exact recovery up to label permutation
        for c in range(3):
            assigned = model.assignments[labels == c]
            assert len(set(assigned)) == 1
        assert set(model.assignments) == {0, 1, 2}

    def test_assignments_are_argmin(self):
        X, _ = three_blobs(4)
        model = kmeans_fit(X, 3, seed=7)
        d = np.linalg.norm(X[:, None, :] - model.centroids[None], axis=2)
        np.testing.assert_array_equal(model.assignments, np.argmin(d, axis=1))

    def test_inertia_recomputable(self):
        X, _ = three_blobs(6)
        model = kmeans_fit(X, 3, seed=1)
        recomputed = np.sum((X - model.centroids[model.assignments]) ** 2)
        assert model.inertia == pytest.approx(recomputed, rel=1e-9)


class TestAssign:
    def test_centroid_maps_to_itself(self):
        model = kmeans_fit(FOUR_POINTS, 2, seed=0)
        assert k_nearest(model.centroids[1][None, :], model.centroids, 1)[0, 0] == 1

    def test_tie_goes_to_lowest_id(self):
        model = kmeans_fit(FOUR_POINTS, 2, seed=0)
        midpoint = np.array([[5.0, 0.5]])
        np.testing.assert_array_equal(k_nearest(midpoint, model.centroids, 2), [[0, 1]])

    def test_self_consistency(self):
        X, _ = three_blobs(3)
        model = kmeans_fit(X, 3, seed=2)
        np.testing.assert_array_equal(k_nearest(X, model.centroids, 1)[:, 0], model.assignments)


def sample_points(rng, n, d, mode, exponent):
    """Points that stress the k-nearest screen: exact ties on an integer
    lattice, duplicated rows, extreme scales, and overflow or NaN."""
    if mode == "lattice":
        X = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
    elif mode == "halves":  # centroids of lattice points land on half-integers
        X = rng.integers(-6, 7, size=(n, d)) / 2.0
    else:
        X = rng.standard_normal((n, d))
    X *= 10.0**exponent
    if mode == "nonfinite":
        X.flat[rng.integers(X.size)] = rng.choice([np.inf, -np.inf, np.nan])
    return X


def reference_k_nearest(X, C, k, exclude_self=False):
    d2 = _sq_dists(X, C)
    d2[np.isnan(d2)] = -np.inf  # as np.argmin ranks NaN
    if exclude_self:
        np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def reference_assign(X, centroids):
    return np.argmin(_sq_dists(X, centroids), axis=1)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 150),
    m=st.integers(1, 6),
    k=st.integers(1, 6),
    d=st.integers(1, 5),
    mode=st.sampled_from(["gauss", "lattice", "halves", "nonfinite"]),
    exponent=st.sampled_from([0, 0, 0, -300, -160, -150, 150, 155, 160, 300]),
    duplicate=st.booleans(),
    from_data=st.booleans(),
    exclude_self=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_k_nearest_equals_stable_argsort(
    n, m, k, d, mode, exponent, duplicate, from_data, exclude_self, data_seed
):
    rng = np.random.default_rng(data_seed)
    X = sample_points(rng, n, d, mode, exponent)
    if exclude_self:  # C is X: each row's neighbours among the other rows
        if duplicate and n > 1:
            X[-1] = X[0]
        C = X
        k = min(k, max(1, n - 1))
    else:
        if from_data:  # C on data points: distance-0 and lattice ties
            C = X[rng.integers(n, size=m)].copy()
        else:
            C = sample_points(rng, m, d, "gauss" if mode == "nonfinite" else mode, exponent)
        if duplicate and m > 1:
            C[-1] = C[0]
        k = min(k, m)
    with np.errstate(all="ignore"):
        got = k_nearest(X, C, k, exclude_self=exclude_self)
        want = reference_k_nearest(X, C, k, exclude_self)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_screened_assign_blocks_the_fallback(monkeypatch):
    """All-tied rows fall back to the exact kernel across several blocks."""
    monkeypatch.setattr(clustering, "_CELLS", 24)  # screen: 6 rows, fallback: 2 rows per block
    X = np.zeros((200, 3))
    C = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, 0, 0]])
    np.testing.assert_array_equal(k_nearest(X, C, 1)[:, 0], np.zeros(200, dtype=np.intp))
    X[150:] = [0.0, 2.0, 0.0]
    np.testing.assert_array_equal(k_nearest(X, C, 3), reference_k_nearest(X, C, 3))
    X = np.random.default_rng(0).integers(-1, 2, size=(50, 2)) * 1.0
    np.testing.assert_array_equal(k_nearest(X, X, 4, exclude_self=True),
                                  reference_k_nearest(X, X, 4, exclude_self=True))


def reference_kmeans_fit(X, k, seed, max_iter=100, tol=1e-6):
    """The Lloyd loop with the full (n, k, D) kernel and per-cluster masks,
    kept as the bit reference for kmeans_fit."""
    rng = np.random.default_rng(seed)
    centroids = _plusplus_init(X, k, rng)
    trace = []
    iterations, converged, movement = 0, False, np.inf
    for iterations in range(1, max_iter + 1):
        assignments = reference_assign(X, centroids)
        for cid in range(k):
            if not np.any(assignments == cid):
                dists = np.sum((X - centroids[assignments]) ** 2, axis=1)
                dists[np.bincount(assignments, minlength=k)[assignments] < 2] = -np.inf
                worst = int(np.argmax(dists))
                centroids[cid] = X[worst]
                assignments[worst] = cid
        trace.append(float(np.sum((X - centroids[assignments]) ** 2)))
        new_centroids = np.vstack([X[assignments == cid].mean(axis=0) for cid in range(k)])
        movement = np.max(np.sum((new_centroids - centroids) ** 2, axis=1))
        centroids = new_centroids
        if movement < tol:
            converged = True
            break
    order = np.lexsort(centroids.T[::-1])
    centroids = centroids[order]
    assignments = reference_assign(X, centroids)
    inertia = float(np.sum((X - centroids[assignments]) ** 2))
    return centroids, assignments, inertia, iterations, tuple(trace), converged, float(movement)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 90),
    k=st.integers(1, 7),
    d=st.integers(1, 4),
    mode=st.sampled_from(["gauss", "lattice", "halves"]),
    exponent=st.sampled_from([0, 0, -150, -200, 150]),  # -200: all distances underflow to 0
    max_iter=st.sampled_from([1, 2, 5, 100]),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 1000),
)
def test_fit_bits_equal_reference_loop(n, k, d, mode, exponent, max_iter, data_seed, seed):
    X = sample_points(np.random.default_rng(data_seed), n, d, mode, exponent)
    k = min(k, np.unique(X, axis=0).shape[0])
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error", RuntimeWarning)  # no cluster is left empty
        model = kmeans_fit(X, k, seed=seed, max_iter=max_iter)
        centroids, assignments, inertia, iterations, trace, converged, shift = (
            reference_kmeans_fit(X, k, seed=seed, max_iter=max_iter)
        )
    assert model.centroids.tobytes() == centroids.tobytes()
    assert model.assignments.tobytes() == assignments.astype(np.int64).tobytes()
    assert np.array(model.inertia).tobytes() == np.array(inertia).tobytes()
    assert np.array(model.inertia_trace).tobytes() == np.array(trace).tobytes()
    assert (model.iterations_run, model.converged) == (iterations, converged)
    assert np.array(model.final_shift).tobytes() == np.array(shift).tobytes()
    assert model.converged == (model.final_shift < 1e-6)


def test_fit_memory_is_bounded():
    # the old kernel's (n, k, D) tensor here was 5,000 * 50 * 20 * 8 B = 40 MB
    X = np.random.default_rng(0).standard_normal((5000, 20))
    tracemalloc.start()
    try:
        kmeans_fit(X, 50, seed=0, max_iter=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 6),
    per_blob=st.integers(2, 40),
    dim=st.integers(1, 4),
    data_seed=st.integers(0, 2**32 - 1),
    fit_seed=st.integers(0, 2**32 - 1),
)
def test_fit_on_separated_blobs_ignores_row_order(k, per_blob, dim, data_seed, fit_seed):
    # k-means++ draws by row index and means sum rows in order, so bits may
    # move; the partition may not, and the centroids only by rounding
    rng = np.random.default_rng(data_seed)
    means = 20.0 * rng.permutation(k)[:, None] + np.zeros(dim)
    X = np.repeat(means, per_blob, axis=0) + 1e-3 * rng.standard_normal((k * per_blob, dim))
    perm = rng.permutation(len(X))
    a = kmeans_fit(X, k, seed=fit_seed)
    b = kmeans_fit(X[perm], k, seed=fit_seed)
    np.testing.assert_array_equal(b.assignments, a.assignments[perm])
    np.testing.assert_allclose(b.centroids, a.centroids, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(a.assignments, np.repeat(np.argsort(np.argsort(means[:, 0])),
                                                           per_blob))
