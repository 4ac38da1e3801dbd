from pathlib import Path
from unittest import mock

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
    from_object,
    generate_imbalanced_mixture,
    load_csv_dataset,
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

    def test_directory_is_not_a_regular_file(self, tmp_path):
        with pytest.raises(DatasetError) as err:
            load_csv_dataset(tmp_path)
        assert str(err.value) == f"{tmp_path}: not a regular file"

    def test_non_utf8_or_unreadable_file(self, tmp_path, monkeypatch):
        p = tmp_path / "d.csv"
        p.write_bytes(b"f0,label\n0.5,0\n\n0.7,caf\xe9\n")  # Latin-1 on physical line 4
        with pytest.raises(DatasetError) as err:
            load_csv_dataset(p)
        assert str(err.value) == f"{p}, line 4: not UTF-8 (invalid continuation byte)"
        p.write_bytes(b"\xef\xbb\xbff0,label\n0.5,0\n0.7,caf\xe9\n")  # after a byte-order mark
        with pytest.raises(DatasetError) as err:
            load_csv_dataset(p)
        assert str(err.value) == f"{p}, line 3: not UTF-8 (invalid continuation byte)"
        denied = PermissionError(13, "Permission denied")
        monkeypatch.setattr(Path, "read_text", mock.Mock(side_effect=denied))
        with pytest.raises(DatasetError) as err:
            load_csv_dataset(p)
        assert str(err.value) == f"{p}: Permission denied"

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

    @pytest.mark.parametrize("labels,label_type", [(["A", "B", "A"], str), (["0", "1", "1"], int)])
    def test_byte_order_mark_is_skipped(self, tmp_path, labels, label_type):
        # Excel's "CSV UTF-8" starts the file with U+FEFF; the label column comes first here
        text = "label,f0\n" + "".join(f"{y},{i / 3!r}\n" for i, y in enumerate(labels))
        p, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        p.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        with mock.patch.object(np, "loadtxt", side_effect=np.loadtxt) as loadtxt:
            features, y = read_csv_columns(marked, "label", label_type)
        loadtxt.assert_called_once()  # int labels take the C parse only on an ASCII text
        want_features, want_y = read_csv_columns(p, "label", label_type)
        assert features.tobytes() == want_features.tobytes() and y == want_y
        got, want = load_csv_dataset(marked), load_csv_dataset(p)
        assert got.features.tobytes() == want.features.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)

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

    @pytest.mark.parametrize("text,message,column", [
        ("y,f0,f1\n1,0.5,0.5\none,0.5,x\n", "invalid literal for int", "y"),  # label and feature
        ("f0,f1,f2,y\n0.5,0.5,0.5,1\n0.5,x,z,0\n", "could not convert", "f1"),  # the leftmost
        ("f0,y,f1\n0.5,1,0.5\nx,one,0.5\n", "invalid literal for int", "y"),  # label mid-row
    ])
    def test_first_bad_cell_is_the_label_then_the_leftmost_feature(self, tmp_path, text,
                                                                  message, column):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DatasetError, match=rf"line 3: {message}.* in column '{column}'$"):
            read_csv_columns(p, "y", int)

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
@given(X=csv_features, C=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_csv_round_trip_is_bit_exact(tmp_path, X, C, seed):
    # integer labels keep their ids, in whatever order they first appear
    if X.shape[0] < C:
        X = np.vstack([X] * C)
    labels = np.random.default_rng(seed).integers(0, C, size=X.shape[0])
    labels[:C] = np.arange(C)[::-1]  # every class present
    ds = Dataset(X, labels)
    p = tmp_path / "rt.csv"
    save_csv_dataset(ds, p)
    back = load_csv_dataset(p)
    assert back.features.tobytes() == ds.features.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)


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
        def spec(doc):
            return from_object(MixtureSpec, doc, "mixture", DatasetError)

        comp = {"mean": [0.0, 1.0], "stddev": 0.5, "count": 3}
        built = spec({"minority": comp, "majority_components": [comp, comp], "seed": 4})
        assert built.minority == GaussianComponent((0.0, 1.0), 0.5, 3)
        assert built.majority_components == (built.minority,) * 2 and built.seed == 4
        assert spec(built) is built
        with pytest.raises(DatasetError, match="mixture is missing key 'minority'"):
            spec({"majority_components": [comp]})
        with pytest.raises(DatasetError, match="minority is missing key 'stddev'"):
            spec({"minority": {"mean": [0.0], "count": 3}, "majority_components": []})
        with pytest.raises(DatasetError, match=r"mixture has unknown keys \['sed'\]"):
            spec({"minority": comp, "majority_components": [comp], "sed": 3})
        with pytest.raises(DatasetError, match="majority_components entry must be an object"):
            spec({"minority": comp, "majority_components": [5]})
        with pytest.raises(DatasetError, match="majority_components must be a list of objects"):
            spec({"minority": comp, "majority_components": 5})
        with pytest.raises(DatasetError, match="majority_components needs at least one"):
            spec({"minority": comp, "majority_components": []})
        for bad, problem in [({"count": 20.9}, "count must be an integer, got 20.9"),
                             ({"count": True}, "count must be an integer, got True")]:
            with pytest.raises(DatasetError, match=problem):
                spec({"minority": {**comp, **bad}, "majority_components": [comp]})
        for seed in (4.0, "4", False):
            with pytest.raises(DatasetError, match=f"seed must be an integer, got {seed!r}"):
                spec({"minority": comp, "majority_components": [comp], "seed": seed})
        with pytest.raises(DatasetError, match="seed must be >= 0, got -5"):
            spec({"minority": comp, "majority_components": [comp], "seed": -5})


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


@settings(max_examples=60, deadline=None)
@given(X=arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(1, 4)),
                elements=st.floats(-1e6, 1e6)),
       constant=st.lists(st.booleans(), min_size=4, max_size=4), cut=st.integers(1, 11))
def test_standardize_is_byte_equal_to_the_plain_expression(X, constant, cut):
    X[:, constant[:X.shape[1]]] = X[0, constant[:X.shape[1]]]  # constant columns
    cut = min(cut, len(X) - 1)
    train, other = Dataset(X[:cut], np.zeros(cut)), Dataset(X[cut:], np.zeros(len(X) - cut))
    out, (out_other,), mean, std = standardize(train, [other])
    scale = np.where(std > 0, std, 1.0)
    assert out.features.tobytes() == ((X[:cut] - mean) / scale).tobytes()
    assert out_other.features.tobytes() == ((X[cut:] - mean) / scale).tobytes()


def reference_read(text, label_idx, label_type):
    """Independent reader: str.split(",") and float() over the non-blank
    lines after the header (universal newlines, as Path.read_text reads)."""
    lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip()]
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    feats = [[float(c) for j, c in enumerate(r) if j != label_idx] for r in rows]
    X = np.array(feats, dtype=np.float64).reshape(len(rows), len(header) - 1)
    return X, [label_type(r[label_idx]) for r in rows]


def float_cell(v, style):
    if style == "repr":
        return repr(v)
    if style == "fixed":
        return "%.3f" % v
    if style == "sci17":
        return "%.16e" % v
    return f"{int(v) // 10}_{int(v) % 10}" if 10 <= abs(v) < 1e15 else repr(v)  # float() only


@st.composite
def csv_files(draw):
    # quirks send the reader to its row scan: cells only float() accepts,
    # whitespace-only lines, and U+001C, which loadtxt would strip
    quirks = draw(st.sets(st.sampled_from(["underscore", "whitespace", "separator"])))
    D = draw(st.integers(1, 4))
    label_idx = draw(st.integers(0, D))
    label_type = draw(st.sampled_from([str, int]))
    n = draw(st.integers(1, 25))
    values = draw(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=D,
                                    max_size=D), min_size=n, max_size=n))
    style = st.sampled_from(["repr", "fixed", "sci17"] + ["underscore"] * ("underscore" in quirks))
    styles = draw(st.lists(style, min_size=n * D, max_size=n * D))
    if label_type is int:
        labels = [str(v) for v in draw(st.lists(st.integers(-5, 10**20), min_size=n, max_size=n))]
    else:  # spaces, quotes, '#' and names longer than any fixed width
        alphabet = ' ab#"\'é' + "\x1c" * ("separator" in quirks)
        labels = draw(st.lists(st.text(alphabet, max_size=70), min_size=n, max_size=n))
    fillers = ["", "  ", "\t"] if "whitespace" in quirks else [""]
    lines = []
    for i in range(n):
        cells = [float_cell(v, styles[i * D + k]) for k, v in enumerate(values[i])]
        cells.insert(label_idx, labels[i])
        lines.append(",".join(cells))
        lines.extend(draw(st.lists(st.sampled_from(fillers), max_size=1)))
    header = ",".join(f"f{k}" for k in range(D + 1))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join([header, *lines]) + eol, label_idx, label_type


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_files())
def test_read_csv_columns_matches_split_and_float(tmp_path, case):
    # the C parse and the row scan each agree with the reference bit for bit;
    # the C parse serves exactly the files without a quirk
    text, label_idx, label_type = case
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode("utf-8"))
    want_X, want_y = reference_read(text, label_idx, label_type)
    parsed, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        table = loadtxt(*args, **kwargs)
        parsed.append(len(table))
        return table

    with mock.patch.object(np, "loadtxt", side_effect=spy):
        got = read_csv_columns(p, label_idx, label_type)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("forced row scan")):
        scanned = read_csv_columns(p, label_idx, label_type)
    quirky = any(c in text for c in "_\x1c") or any(
        ln.strip() == "" != ln for ln in text.replace("\r\n", "\n").split("\n")) or (
        label_type is int and not all(-2**63 <= v < 2**63 for v in want_y))  # outside int64
    assert parsed == ([] if quirky else [len(want_y)])
    for X, y in (got, scanned):
        assert X.dtype == np.float64 and X.shape == want_X.shape
        assert X.tobytes() == want_X.tobytes()
        assert y == want_y and [type(v) for v in y] == [type(v) for v in want_y]


def test_bad_cell_after_many_good_rows_names_line_and_column(tmp_path):
    p = tmp_path / "d.csv"
    good = "\n".join(f"{i / 7!r},{i % 3},{i}" for i in range(10_000))
    p.write_text(f"f0,label,f1\n{good}\n\n0.5,1,2x\n")
    with pytest.raises(DatasetError) as err:
        read_csv_columns(p, "label", int)
    assert str(err.value) == (
        f"{p}, line 10003: could not convert string to float: '2x' in column 'f1'"
    )


def test_separator_characters_are_left_to_float(tmp_path):
    # loadtxt strips U+001C..U+001F around numbers and float() rejects them
    p = tmp_path / "d.csv"
    p.write_text("f0,label\n1.5,a\n\x1c2.5,b\n")
    with pytest.raises(DatasetError, match=r"line 3: could not convert .* in column 'f0'"):
        read_csv_columns(p, "label")


def test_non_ascii_int_labels_are_left_to_int(tmp_path):
    # loadtxt's int64 field reads any Unicode digit d as ord(d) - 48: U+0968 as 2360
    p = tmp_path / "d.csv"
    p.write_text("f0,label\n1.5,\u0968\n2.5,1\n", encoding="utf-8")
    features, labels = read_csv_columns(p, "label", int)
    assert labels == [2, 1]  # DEVANAGARI DIGIT TWO is 2
    np.testing.assert_array_equal(features, [[1.5], [2.5]])


@pytest.mark.parametrize("row", ["1,1", "1,1,B,extra"])
def test_ragged_rows_are_kept_from_the_c_parse(tmp_path, row):
    p = tmp_path / "d.csv"
    p.write_text(f"f0,f1,label\n0,0,A\n{row}\n")
    cells = row.count(",") + 1
    # the real loadtxt rejects a row of another width, and the row scan names it
    with mock.patch.object(np, "loadtxt", side_effect=np.loadtxt) as loadtxt, pytest.raises(
            DatasetError, match=rf"line 3: {cells} cells, expected 3$"):
        read_csv_columns(p, "label")
    loadtxt.assert_called_once()
