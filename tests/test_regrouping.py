import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from regroupbench import regrouping
from regroupbench.dataset import Dataset, generate_imbalanced_mixture
from regroupbench.harness import rg_favorable_mixture
from regroupbench.losses import softmax
from regroupbench.regrouping import (
    RegroupError,
    RegroupPlan,
    collapse_proba_matrix,
    compute_k,
    regroup_binary,
    regroup_multiclass,
)


def owners(group_counts):
    """Original class of each pseudo id, by walking the group blocks."""
    out = []
    for c, g in enumerate(group_counts):
        out.extend([c] * g)
    return np.array(out)


class TestComputeK:
    @pytest.mark.parametrize(
        "maj,mino,expected",
        [(900, 100, 9), (100, 100, 1), (4700, 100, 47), (250, 100, 2), (350, 100, 4), (50, 100, 1)],
    )
    def test_values(self, maj, mino, expected):
        assert compute_k(maj, mino) == expected

    def test_zero_counts(self):
        with pytest.raises(RegroupError):
            compute_k(0, 10)
        with pytest.raises(RegroupError):
            compute_k(10, 0)

    @given(minority=st.integers(1, 10_000), extra=st.integers(0, 10_000))
    def test_binary_group_counts_are_one_and_k(self, minority, extra):
        majority = minority + extra
        assert regrouping.group_counts([minority, majority]) == [1, compute_k(majority, minority)]


class TestRegroupBinary:
    def test_two_cluster_example(self):
        X = np.array([[5.0, 0.0], [0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        ds = Dataset(X, [0, 1, 1, 1, 1])
        pseudo, plan = regroup_binary(ds, 2, seed=0)
        np.testing.assert_array_equal(pseudo.labels, [0, 1, 1, 2, 2])
        assert plan.pseudo_num_classes == 3
        assert plan.group_counts == (1, 2)

    def test_k1_identity(self):
        ds = generate_imbalanced_mixture(rg_favorable_mixture(0))
        pseudo, plan = regroup_binary(ds, 1, seed=0)
        np.testing.assert_array_equal(pseudo.labels, ds.labels)
        np.testing.assert_array_equal(pseudo.features, ds.features)
        assert plan.pseudo_num_classes == 2

    def test_partition_counts(self):
        ds = generate_imbalanced_mixture(rg_favorable_mixture(0))
        pseudo, plan = regroup_binary(ds, 9, seed=0)
        counts = pseudo.class_counts
        assert counts[0] == 100
        assert sum(counts[1:]) == 900
        assert len(counts) == 10

    def test_requires_binary(self):
        ds = Dataset(np.arange(6.0).reshape(6, 1), [0, 0, 1, 1, 2, 2])
        with pytest.raises(RegroupError, match="2 classes"):
            regroup_binary(ds, 2, seed=0)

    def test_partition_property(self):
        ds = generate_imbalanced_mixture(rg_favorable_mixture(3))
        pseudo, plan = regroup_binary(ds, 5, seed=1)
        for c in (0, 1):
            mask = ds.labels == c
            ids = set(np.unique(pseudo.labels[mask]))
            lo = sum(plan.group_counts[:c])  # class c owns [lo, lo + group_counts[c])
            assert ids <= set(range(lo, lo + plan.group_counts[c]))


class TestRegroupMulticlass:
    def test_group_count_rule(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((1000, 3))
        y = np.concatenate([np.zeros(100), np.ones(300), np.full(600, 2)]).astype(int)
        ds = Dataset(X, y)
        pseudo, plan = regroup_multiclass(ds, seed=0)
        assert plan.group_counts == (1, 3, 6)
        assert plan.pseudo_num_classes == 10

    def test_balanced_identity(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.standard_normal((400, 2)), np.repeat([0, 1], 200))
        pseudo, plan = regroup_multiclass(ds, seed=0)
        assert plan.group_counts == (1, 1)
        np.testing.assert_array_equal(pseudo.labels, ds.labels)

    def test_imbalance_ratio_47(self):
        rng = np.random.default_rng(2)
        counts = [100, 4700]
        y = np.repeat([0, 1], counts)
        ds = Dataset(rng.standard_normal((4800, 2)), y)
        pseudo, plan = regroup_multiclass(ds, seed=0)
        assert plan.group_counts[1] == 47

    def test_clamp_with_warning(self):
        # class 1 has 12 samples but only 2 distinct rows; ratio asks for 6 groups
        X = np.vstack([np.arange(2.0)[:, None], np.tile([[7.0], [9.0]], (6, 1))])
        y = np.array([0, 0] + [1] * 12)
        ds = Dataset(X, y)
        pseudo, plan = regroup_multiclass(ds, seed=0)
        assert plan.group_counts == (1, 2)
        assert plan.warnings == ("class 1: requested 6 groups but only 2 distinct rows; clamped",)

    def test_clamp_warning_counts_rows_not_first_column_values(self):
        # one value in class 1's first column, three distinct rows; ratio asks for 6 groups
        X = np.array([[0.0, 0.0], [1.0, 0.0]] + [[7.0, float(i % 3)] for i in range(12)])
        _, plan = regroup_multiclass(Dataset(X, np.array([0, 0] + [1] * 12)), seed=0)
        assert plan.group_counts == (1, 3)
        assert plan.warnings == ("class 1: requested 6 groups but only 3 distinct rows; clamped",)

    def test_rows_are_counted_only_when_one_column_cannot_bound_them(self, monkeypatch):
        calls, real = [], np.unique

        def unique(a, *args, **kwargs):
            calls.append(np.ndim(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(regrouping.np, "unique", unique)
        # class 1's first column repeats two values, its 12 rows are distinct
        X = np.array([[0.0, 0.0], [1.0, 0.0]] + [[7.0 + 2 * (i % 2), float(i)] for i in range(12)])
        _, plan = regroup_multiclass(Dataset(X, np.array([0, 0] + [1] * 12)), seed=0)
        assert plan.group_counts == (1, 6) and plan.warnings == () and calls == [1, 2]
        calls.clear()
        _, plan = regroup_multiclass(generate_imbalanced_mixture(rg_favorable_mixture(0)), seed=0)
        assert plan.group_counts == (1, 9) and calls == [1]  # 900 distinct values in column 0

    def test_invertibility(self):
        # a one-hot pseudo row collapses to the class owning that pseudo id
        plan = RegroupPlan((1, 3, 6))
        pred, scores = collapse_proba_matrix(np.eye(10), plan)
        np.testing.assert_array_equal(pred, owners(plan.group_counts))
        np.testing.assert_array_equal(scores, np.eye(3)[pred])


class TestBinarize:
    """The binary case of the one collapse: pseudo id 0 is the minority."""

    plan = RegroupPlan((1, 2))

    def test_positive(self):
        pred, scores = collapse_proba_matrix([[0.6, 0.3, 0.1]], self.plan)
        assert pred[0] == 0 and scores[0, 0] == 0.6

    def test_negative(self):
        pred, scores = collapse_proba_matrix([[0.2, 0.5, 0.3]], self.plan)
        assert pred[0] == 1 and scores[0, 0] == 0.2

    def test_tie_goes_positive(self):
        pred, scores = collapse_proba_matrix([[0.5, 0.5, 0.0]], self.plan)
        assert pred[0] == 0 and scores[0, 0] == 0.5


class TestCollapse:
    def test_worked_example(self):
        plan = RegroupPlan((1, 2))  # A -> [0], B -> [1, 2]
        pred, scores = collapse_proba_matrix([[0.4, 0.35, 0.25]], plan)
        assert pred[0] == 0
        np.testing.assert_allclose(scores, [[0.4, 0.6]])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 200), C=st.integers(2, 12), levels=st.integers(1, 4))
    def test_identity_when_one_group_each(self, data, n, C, levels):
        # what every cell that does not regroup predicts through: few weight levels
        # give tied entries, tied rows and exact zeros
        w = data.draw(arrays(np.int64, (n, C), elements=st.integers(0, levels)))
        w[w.sum(axis=1) == 0] = 1
        P = w / w.sum(axis=1, keepdims=True)
        pred, scores = collapse_proba_matrix(P, RegroupPlan((1,) * C))
        assert scores.tobytes() == P.tobytes()
        np.testing.assert_array_equal(pred, np.argmax(P, axis=1))

    @pytest.mark.parametrize("seed", range(10))
    def test_scores_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        plan = RegroupPlan(tuple(rng.integers(1, 5, size=4)))
        P = rng.random((8, plan.pseudo_num_classes))
        P /= P.sum(axis=1, keepdims=True)
        _, scores = collapse_proba_matrix(P, plan)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_binary_decision_consistency(self):
        # positive (0) exactly when the pseudo argmax is pseudo id 0; the AP
        # score is the mass on pseudo id 0
        plan = RegroupPlan((1, 3))
        rng = np.random.default_rng(0)
        P = rng.random((50, 4))
        P /= P.sum(axis=1, keepdims=True)
        pred, scores = collapse_proba_matrix(P, plan)
        np.testing.assert_array_equal(pred == 0, np.argmax(P, axis=1) == 0)
        np.testing.assert_array_equal(scores[:, 0], P[:, 0])

    def test_matrix_collapse_matches_rowwise(self):
        # every row collapses on its own: the matrix result equals the
        # results of the one-row matrices
        plan = RegroupPlan((1, 2, 3))
        rng = np.random.default_rng(1)
        P = rng.random((20, 6))
        P /= P.sum(axis=1, keepdims=True)
        pred, scores = collapse_proba_matrix(P, plan)
        for i in range(20):
            pred_i, scores_i = collapse_proba_matrix(P[i:i + 1], plan)
            assert pred[i] == pred_i[0]
            np.testing.assert_array_equal(scores[i], scores_i[0])


group_counts = st.lists(st.integers(1, 5), min_size=2, max_size=5)


@settings(max_examples=200, deadline=None)
@given(counts=group_counts, n=st.integers(1, 30), scale=st.sampled_from([1e-3, 1.0, 30.0, 700.0]),
       seed=st.integers(0, 2**32 - 1))
def test_collapsed_scores_sum_to_one(counts, n, scale, seed):
    plan = RegroupPlan(tuple(counts))
    logits = scale * np.random.default_rng(seed).standard_normal((n, plan.pseudo_num_classes))
    _, scores = collapse_proba_matrix(softmax(logits), plan)
    assert scores.shape == (n, len(counts))
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(counts=group_counts, n=st.integers(1, 30), levels=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_prediction_is_owner_of_first_pseudo_argmax(counts, n, levels, seed):
    # few distinct logits, so most rows hold ties; a tie goes to the lowest
    # pseudo id, so a tie with pseudo id 0 predicts class 0
    plan = RegroupPlan(tuple(counts))
    logits = np.random.default_rng(seed).integers(0, levels, size=(n, plan.pseudo_num_classes))
    P = softmax(logits.astype(np.float64))
    pred, _ = collapse_proba_matrix(P, plan)
    owner = owners(counts)
    for row, label in zip(P, pred):
        first = min(j for j in range(len(row)) if row[j] == row.max())
        assert label == owner[first]
        if row[0] == row.max():
            assert label == 0


@settings(max_examples=100, deadline=None)
@given(counts=group_counts)
def test_one_hot_pseudo_rows_collapse_to_owner(counts):
    plan = RegroupPlan(tuple(counts))
    pred, scores = collapse_proba_matrix(np.eye(plan.pseudo_num_classes), plan)
    np.testing.assert_array_equal(pred, owners(counts))
    np.testing.assert_array_equal(scores, np.eye(len(counts))[owners(counts)])
