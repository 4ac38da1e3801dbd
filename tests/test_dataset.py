import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from regroupbench.dataset import (
    Dataset,
    DatasetError,
    GaussianComponent,
    MixtureSpec,
    generate_imbalanced_mixture,
    load_csv_dataset,
    mixture_from_dict,
    read_csv_columns,
    save_csv_dataset,
    standardize,
    stratified_split,
)


def small_spec(seed=0):
    return MixtureSpec(
        GaussianComponent((0.0, 0.0), 1.0, 100),
        (
            GaussianComponent((5.0, 0.0), 1.0, 300),
            GaussianComponent((0.0, 5.0), 1.0, 300),
            GaussianComponent((-5.0, 0.0), 1.0, 300),
        ),
        seed=seed,
    )


class TestDatasetInvariants:
    def test_class_counts(self):
        ds = Dataset(np.zeros((4, 2)) + np.arange(4)[:, None], [0, 0, 1, 1])
        assert ds.class_counts == (2, 2)
        assert ds.n == 4 and ds.dim == 2

    def test_rejects_nan(self):
        X = np.ones((3, 2))
        X[1, 0] = np.nan
        with pytest.raises(DatasetError, match="row 1"):
            Dataset(X, [0, 0, 1])

    def test_rejects_missing_class(self):
        with pytest.raises(DatasetError, match="class 1"):
            Dataset(np.ones((3, 1)), [0, 0, 2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DatasetError):
            Dataset(np.ones((3, 1)), [0, 1])

    def test_immutable(self):
        ds = Dataset(np.ones((2, 1)), [0, 1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0


class TestCsv:
    def test_first_appearance_labels(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n0,0,A\n1,1,A\n2,2,B\n")
        ds = load_csv_dataset(p)
        assert ds.n == 3 and ds.dim == 2
        assert ds.class_counts == (2, 1)
        assert ds.class_names == ("A", "B")
        np.testing.assert_array_equal(ds.labels, [0, 0, 1])

    def test_ragged_row_reports_location(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n0,0,A\n1,1\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_csv_dataset(p)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n0,oops,A\n1,1,B\n")
        with pytest.raises(DatasetError, match="'f1'"):
            load_csv_dataset(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such file"):
            load_csv_dataset(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label\n")
        with pytest.raises(DatasetError, match="has no data rows"):
            load_csv_dataset(p)

    def test_label_column_by_index(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,f0\n0,1.5\n1,2.5\n")
        ds = load_csv_dataset(p, label_column=0)
        np.testing.assert_array_equal(ds.labels, [0, 1])
        np.testing.assert_allclose(ds.features[:, 0], [1.5, 2.5])

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        ds = generate_imbalanced_mixture(small_spec(seed))
        ds = Dataset(ds.features * rng.uniform(0.01, 100), ds.labels)
        p = tmp_path / "rt.csv"
        save_csv_dataset(ds, p)
        back = load_csv_dataset(p)
        np.testing.assert_allclose(back.features, ds.features, atol=1e-12, rtol=0)
        np.testing.assert_array_equal(back.labels, ds.labels)


    def test_blank_lines_skipped_and_errors_name_the_physical_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n \nf0,label\n1.5,0\n\n2.5,1\n  \n")
        ds = load_csv_dataset(p)
        np.testing.assert_array_equal(ds.features[:, 0], [1.5, 2.5])
        p.write_text("f0,f1,label\n0,0,A\n\n1,1,B\n2,x,A\n")
        with pytest.raises(DatasetError, match=r"line 5: could not convert .* in column 'f1'"):
            load_csv_dataset(p)

    def test_label_conversion_errors_name_line_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,y\n0.5,1\n\n0.5,one\n")
        with pytest.raises(DatasetError, match=r"line 4: invalid literal for int.* in column 'y'"):
            read_csv_columns(p, "y", int)
        features, labels = read_csv_columns(p, "y")  # raw label strings by default
        assert labels == ["1", "one"]
        np.testing.assert_array_equal(features, [[0.5], [0.5]])

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1\n0,1\n")
        with pytest.raises(DatasetError, match="column 'label' not in header"):
            load_csv_dataset(p)


csv_features = st.integers(1, 4).flatmap(
    lambda d: arrays(np.float64, st.tuples(st.integers(2, 12), st.just(d)),
                     elements=st.floats(allow_nan=False, allow_infinity=False))
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(X=csv_features, names=st.one_of(st.none(), st.lists(
    st.text("abxyz_-", min_size=1, max_size=4), min_size=2, max_size=4, unique=True)),
    seed=st.integers(0, 2**32 - 1))
def test_csv_round_trip_is_bit_exact(tmp_path, X, names, seed):
    # integer labels keep their ids; named labels keep each row's name
    C = 2 if names is None else len(names)
    if X.shape[0] < C:
        X = np.vstack([X] * C)
    labels = np.random.default_rng(seed).integers(0, C, size=X.shape[0])
    labels[:C] = np.arange(C)  # every class present, first appearing in id order
    ds = Dataset(X, labels, None if names is None else tuple(names))
    p = tmp_path / "rt.csv"
    save_csv_dataset(ds, p)
    back = load_csv_dataset(p)
    assert back.features.tobytes() == ds.features.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)
    if names is not None:
        assert back.class_names == ds.class_names


class TestMixture:
    def test_counts_and_labels(self):
        ds = generate_imbalanced_mixture(small_spec())
        assert ds.n == 1000
        assert ds.class_counts == (100, 900)

    def test_determinism(self):
        a = generate_imbalanced_mixture(small_spec(7))
        b = generate_imbalanced_mixture(small_spec(7))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_draw(self):
        a = generate_imbalanced_mixture(small_spec(1))
        b = generate_imbalanced_mixture(small_spec(2))
        assert not np.array_equal(a.features, b.features)

    def test_tight_components_stay_near_their_means(self):
        spec = MixtureSpec(
            GaussianComponent((0.0, 0.0), 0.01, 50),
            (GaussianComponent((10.0, 0.0), 0.01, 50), GaussianComponent((0.0, 10.0), 0.01, 50)),
            seed=3,
        )
        ds = generate_imbalanced_mixture(spec)
        means = np.array([[0, 0], [10, 0], [0, 10]], dtype=float)
        own = np.repeat([0, 1, 2], 50)
        d = np.linalg.norm(ds.features[:, None, :] - means[None], axis=2)
        assert np.all(np.argmin(d, axis=1) == own)

    def test_dimension_mismatch(self):
        with pytest.raises(DatasetError, match="dimension"):
            MixtureSpec(
                GaussianComponent((0.0, 0.0), 1.0, 10),
                (GaussianComponent((1.0,), 1.0, 10),),
            )

    def test_bad_component(self):
        with pytest.raises(DatasetError):
            GaussianComponent((0.0,), 0.0, 10)
        with pytest.raises(DatasetError):
            GaussianComponent((0.0,), 1.0, 0)

    def test_from_dict(self):
        comp = {"mean": [0.0, 1.0], "stddev": 0.5, "count": 3}
        spec = mixture_from_dict({"minority": comp, "majority_components": [comp, comp], "seed": 4})
        assert spec.minority == GaussianComponent((0.0, 1.0), 0.5, 3)
        assert len(spec.majority_components) == 2 and spec.seed == 4
        with pytest.raises(DatasetError, match="missing key 'minority'"):
            mixture_from_dict({"majority_components": [comp]})
        with pytest.raises(DatasetError, match="missing key 'stddev'"):
            mixture_from_dict({"minority": {"mean": [0.0], "count": 3}, "majority_components": []})


class TestSplit:
    def test_forced_counts(self):
        ds = generate_imbalanced_mixture(small_spec())
        train, test = stratified_split(ds, 0.2, seed=0)
        assert test.class_counts == (20, 180)
        assert train.class_counts == (80, 720)

    def test_tiny_classes(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), [0, 0, 1, 1])
        train, test = stratified_split(ds, 0.5, seed=1)
        assert test.class_counts == (1, 1)
        assert train.class_counts == (1, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_union_and_disjointness(self, seed):
        ds = generate_imbalanced_mixture(small_spec(seed))
        train, test = stratified_split(ds, 0.3, seed=seed)
        combined = np.vstack([train.features, test.features])
        assert combined.shape == ds.features.shape
        key = lambda X: sorted(map(tuple, X))
        assert key(combined) == key(ds.features)

    def test_determinism(self):
        ds = generate_imbalanced_mixture(small_spec())
        a = stratified_split(ds, 0.2, seed=5)
        b = stratified_split(ds, 0.2, seed=5)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_class_too_small(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), [0, 1, 1])
        with pytest.raises(DatasetError, match="class 0"):
            stratified_split(ds, 0.5, seed=0)


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(2, 40), min_size=2, max_size=4),
       fraction=st.one_of(st.sampled_from([0.1, 0.25, 0.5, 0.75]), st.floats(0.01, 0.99)),
       seed=st.integers(0, 2**32 - 1))  # the sampled fractions hit exact .5 ties
def test_split_partitions_rows_with_clamped_half_even_counts(counts, fraction, seed):
    labels = np.repeat(np.arange(len(counts)), counts)
    ds = Dataset(np.arange(labels.size, dtype=np.float64)[:, None], labels)  # row i holds i
    train, test = stratified_split(ds, fraction, seed)
    rows = np.concatenate([train.features[:, 0], test.features[:, 0]])
    np.testing.assert_array_equal(np.sort(rows), np.arange(labels.size))
    for c, count in enumerate(counts):
        expected = min(max(1, int(np.rint(fraction * count))), count - 1)  # rint: half to even
        assert test.class_counts[c] == expected
        assert train.class_counts[c] == count - expected


class TestStandardize:
    def test_worked_example(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), [0, 1, 1])
        out, _, mean, std = standardize(ds)
        np.testing.assert_allclose(mean, [2.0])
        np.testing.assert_allclose(std, [np.sqrt(2.0 / 3.0)])
        np.testing.assert_allclose(
            out.features[:, 0], [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-12
        )

    def test_constant_column_centered_only(self):
        ds = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), [0, 1, 1])
        out, _, _, std = standardize(ds)
        assert std[0] == 0.0
        np.testing.assert_allclose(out.features[:, 0], [0.0, 0.0, 0.0])

    def test_train_columns_zero_mean_unit_std(self):
        ds = generate_imbalanced_mixture(small_spec())
        out, _, _, _ = standardize(ds)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-10)

    def test_others_use_train_statistics(self):
        ds = generate_imbalanced_mixture(small_spec())
        train, test = stratified_split(ds, 0.2, seed=0)
        _, (test_std,), mean, std = standardize(train, [test])
        np.testing.assert_allclose(test_std.features, (test.features - mean) / std)
        assert abs(test_std.features.mean()) > 1e-10  # its own mean is not forced to zero
