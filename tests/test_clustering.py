import numpy as np
import pytest

from regroupbench.clustering import (
    ClusteringError,
    kmeans_assign,
    kmeans_fit,
    save_centroids_csv,
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
        assert kmeans_assign(model, model.centroids[1][None, :])[0] == 1

    def test_tie_goes_to_lowest_id(self):
        model = kmeans_fit(FOUR_POINTS, 2, seed=0)
        midpoint = np.array([[5.0, 0.5]])
        assert kmeans_assign(model, midpoint)[0] == 0

    def test_self_consistency(self):
        X, _ = three_blobs(3)
        model = kmeans_fit(X, 3, seed=2)
        np.testing.assert_array_equal(kmeans_assign(model, X), model.assignments)

    def test_dimension_mismatch(self):
        model = kmeans_fit(FOUR_POINTS, 2, seed=0)
        with pytest.raises(ClusteringError):
            kmeans_assign(model, np.ones((2, 3)))


def test_centroid_csv_dump(tmp_path):
    model = kmeans_fit(FOUR_POINTS, 2, seed=0)
    p = tmp_path / "centroids.csv"
    save_centroids_csv(model, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "f0,f1"
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(back, model.centroids)
