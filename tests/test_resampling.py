import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regroupbench.clustering import k_nearest
from regroupbench.dataset import Dataset, generate_imbalanced_mixture
from regroupbench.harness import rg_favorable_mixture
from regroupbench.resampling import ResampleError, ResampleSpec, resample


@pytest.fixture
def imbalanced():
    return generate_imbalanced_mixture(rg_favorable_mixture(0))  # counts (100, 900)


def rows_as_set(X):
    return set(map(tuple, X))


class TestRos:
    def test_counts_and_rows(self, imbalanced):
        out = resample(imbalanced, ResampleSpec("ros", seed=0))
        assert out.class_counts == (900, 900)
        orig0 = rows_as_set(imbalanced.features[imbalanced.labels == 0])
        assert rows_as_set(out.features[out.labels == 0]) <= orig0

    def test_majority_untouched(self, imbalanced):
        out = resample(imbalanced, ResampleSpec("ros", seed=1))
        np.testing.assert_array_equal(
            np.sort(out.features[out.labels == 1], axis=0),
            np.sort(imbalanced.features[imbalanced.labels == 1], axis=0),
        )


class TestRus:
    def test_counts_and_subset(self, imbalanced):
        out = resample(imbalanced, ResampleSpec("rus", seed=0))
        assert out.class_counts == (100, 100)
        orig1 = rows_as_set(imbalanced.features[imbalanced.labels == 1])
        kept1 = out.features[out.labels == 1]
        assert rows_as_set(kept1) <= orig1
        assert len(rows_as_set(kept1)) == 100  # without replacement


class TestSmote:
    def test_counts(self, imbalanced):
        out = resample(imbalanced, ResampleSpec("smote", seed=0, k_neighbors=5))
        assert out.class_counts == (900, 900)

    def test_synthetic_points_on_segments(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.standard_normal((20, 3)), rng.standard_normal((60, 3)) + 5])
        ds = Dataset(X, np.repeat([0, 1], [20, 60]))
        out = resample(ds, ResampleSpec("smote", seed=7, k_neighbors=4))
        orig = ds.features[ds.labels == 0]
        new_rows = out.features[out.labels == 0][20:]  # originals kept first
        for p in new_rows:
            best = np.inf
            for i in range(len(orig)):
                for j in range(len(orig)):
                    if i == j:
                        continue
                    a, b = orig[i], orig[j]
                    t = np.clip(np.dot(p - a, b - a) / np.dot(b - a, b - a), 0, 1)
                    best = min(best, np.linalg.norm(p - (a + t * (b - a))))
            assert best < 1e-9

    def test_single_sample_class_errors(self):
        X = np.vstack([[0.0, 0.0], np.ones((5, 2)) + np.arange(5)[:, None]])
        ds = Dataset(X, np.array([0, 1, 1, 1, 1, 1]))
        with pytest.raises(ResampleError, match="single sample"):
            resample(ds, ResampleSpec("smote", seed=0))


class TestCommon:
    @pytest.mark.parametrize("kind", ["ros", "rus", "smote"])
    def test_determinism(self, imbalanced, kind):
        a = resample(imbalanced, ResampleSpec(kind, seed=9))
        b = resample(imbalanced, ResampleSpec(kind, seed=9))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_spec_validation(self):
        with pytest.raises(ResampleError):
            ResampleSpec("bootstrap")
        with pytest.raises(ResampleError):
            ResampleSpec("smote", k_neighbors=0)


def reference_smote(train, spec):
    """SMOTE with the full (m, m, D) neighbour search, kept as the bit reference."""
    rng = np.random.default_rng(spec.seed)
    target = max(train.class_counts)
    feats = []
    for c, count in enumerate(train.class_counts):
        rows = train.features[train.labels == c]
        parts = [rows]
        deficit = target - count
        if deficit > 0:
            k = min(spec.k_neighbors, count - 1)
            d2 = np.sum((rows[:, None, :] - rows[None, :, :]) ** 2, axis=2)
            np.fill_diagonal(d2, np.inf)
            neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]
            base = rng.integers(count, size=deficit)
            pick = neighbors[base, rng.integers(k, size=deficit)]
            u = rng.random(deficit)
            parts.append(rows[base] + u[:, None] * (rows[pick] - rows[base]))
        feats.append(np.vstack(parts))
    return np.vstack(feats)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(2, 200), min_size=2, max_size=3),
    dim=st.integers(1, 4),
    lattice=st.booleans(),  # integer points: many tied neighbour distances
    k_neighbors=st.integers(1, 6),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 1000),
)
def test_blocked_smote_bits_equal_full_matrix(counts, dim, lattice, k_neighbors, data_seed, seed):
    rng = np.random.default_rng(data_seed)
    n = sum(counts)
    X = rng.integers(-2, 3, size=(n, dim)) * 1.0 if lattice else rng.standard_normal((n, dim))
    labels = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    ds = Dataset(X, labels)
    spec = ResampleSpec("smote", seed=seed, k_neighbors=k_neighbors)
    out = resample(ds, spec)
    assert out.features.tobytes() == reference_smote(ds, spec).tobytes()


def test_smote_memory_is_bounded():
    # the old search's (m, m, D) tensor here was 2,000 * 2,000 * 4 * 8 B = 128 MB
    rng = np.random.default_rng(0)
    X = np.vstack([rng.standard_normal((2000, 4)), rng.standard_normal((2100, 4)) + 3])
    ds = Dataset(X, np.repeat([0, 1], [2000, 2100]))
    tracemalloc.start()
    try:
        out = resample(ds, ResampleSpec("smote", seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.class_counts == (2100, 2100)
    assert peak < 16 * 2**20


def reference_nearest_neighbors(rows, k, block=64):
    """The former SMOTE search: (m, k) ids of each row's k nearest other rows
    (stable: ties -> lowest id), brute force in blocks of 64 rows."""
    m = rows.shape[0]
    neighbors = np.empty((m, k), dtype=np.intp)
    for start in range(0, m, block):
        part = rows[start:start + block]
        d2 = np.sum((part[:, None, :] - rows[None, :, :]) ** 2, axis=2)
        own = np.arange(part.shape[0])
        d2[own, start + own] = np.inf
        neighbors[start:start + part.shape[0]] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return neighbors


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(2, 300),
    dim=st.integers(1, 16),
    mode=st.sampled_from(["gauss", "lattice", "duplicates"]),
    k=st.integers(1, 8),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_smote_neighbours_equal_brute_force(m, dim, mode, k, data_seed):
    rng = np.random.default_rng(data_seed)
    if mode == "lattice":  # many tied distances
        rows = rng.integers(-2, 3, size=(m, dim)) * 1.0
    else:
        rows = rng.standard_normal((m, dim))
        if mode == "duplicates":  # distance-0 neighbours
            rows = rows[rng.integers(max(1, m // 3), size=m)]
    k = min(k, m - 1)
    np.testing.assert_array_equal(k_nearest(rows, rows, k, exclude_self=True),
                                  reference_nearest_neighbors(rows, k))


def test_smote_neighbours_equal_brute_force_at_csv_scale():
    # the size of the csv-scale benchmark's 1,200-row SMOTE class (D = 16)
    rows = np.random.default_rng(7).standard_normal((1200, 16))
    np.testing.assert_array_equal(k_nearest(rows, rows, 5, exclude_self=True),
                                  reference_nearest_neighbors(rows, 5))
