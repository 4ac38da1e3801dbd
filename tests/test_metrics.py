import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regroupbench.metrics import (
    ConfusionTable,
    MetricError,
    average_precision,
    confusion_table,
    per_class_ap,
    summary_metrics,
)


def brute_force_ap(y, scores):
    """O(n^2) oracle: precision/recall at every distinct-score threshold,
    step-interpolated sum over descending thresholds."""
    y = np.asarray(y)
    scores = np.asarray(scores, dtype=float)
    n_pos = y.sum()
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        predicted = scores >= t
        tp = int(np.sum(y[predicted]))
        precision = tp / int(predicted.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestConfusionTable:
    def test_binary_counts(self):
        # positive = class 0
        ct = confusion_table([0, 0, 1, 1], [0, 1, 1, 1])
        # tp = 1, fn = 1 on the top row; fp = 0, tn = 2 below it
        np.testing.assert_array_equal(ct.matrix, [[1, 1], [0, 2]])

    def test_identical_vectors_diagonal(self):
        ct = confusion_table([0, 1, 2, 1], [0, 1, 2, 1])
        off = ct.matrix - np.diag(np.diag(ct.matrix))
        assert off.sum() == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_row_sums_are_true_counts(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(4, size=100)
        p = rng.integers(4, size=100)
        ct = confusion_table(y, p, num_classes=4)
        np.testing.assert_array_equal(ct.matrix.sum(axis=1), np.bincount(y, minlength=4))

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            confusion_table([0, 1], [0])


class TestSummaryMetrics:
    def test_worked_example(self):
        # TP=2 FP=1 FN=1 TN=6 with positive = class 0
        ct = ConfusionTable(np.array([[2, 1], [1, 6]]))
        r = summary_metrics(ct)
        assert r.precision[0] == pytest.approx(2 / 3, abs=1e-12)
        assert r.recall[0] == pytest.approx(2 / 3, abs=1e-12)
        assert r.f1[0] == pytest.approx(2 / 3, abs=1e-12)
        assert r.accuracy == pytest.approx(0.8, abs=1e-12)
        assert r.balanced_accuracy == pytest.approx((2 / 3 + 6 / 7) / 2, abs=1e-12)

    def test_perfect_predictions(self):
        ct = ConfusionTable(np.diag([5, 7, 3]))
        r = summary_metrics(ct)
        assert r.accuracy == 1.0 and r.balanced_accuracy == 1.0
        assert all(v == 1.0 for v in r.precision + r.recall + r.f1)

    def test_majority_constant_predictor(self):
        y = np.repeat([0, 1], [100, 900])
        pred = np.ones(1000, dtype=int)
        r = summary_metrics(confusion_table(y, pred))
        assert r.accuracy == pytest.approx(0.9, abs=1e-12)
        assert r.balanced_accuracy == pytest.approx(0.5, abs=1e-12)
        assert r.precision[0] is None  # no predicted positives
        assert r.f1[0] == 0.0

    def test_ba_is_one_minus_balanced_error(self):
        rng = np.random.default_rng(0)
        y = rng.integers(3, size=200)
        pred = rng.integers(3, size=200)
        r = summary_metrics(confusion_table(y, pred, num_classes=3))
        be = np.mean([np.mean(pred[y == c] != c) for c in range(3)])
        assert r.balanced_accuracy == pytest.approx(1.0 - be, abs=1e-12)

    def test_metrics_match_raw_recomputation(self):
        rng = np.random.default_rng(1)
        y = rng.integers(2, size=300)
        y[:5] = 0  # both classes present
        pred = rng.integers(2, size=300)
        r = summary_metrics(confusion_table(y, pred))
        assert r.accuracy == pytest.approx(np.mean(y == pred), abs=1e-12)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([1, 0], [0.9, 0.1]) == 1.0

    def test_inverted_pair(self):
        assert average_precision([0, 1], [0.9, 0.1]) == pytest.approx(0.5, abs=1e-12)

    def test_worked_four_sample(self):
        ap = average_precision([1, 1, 0, 0], [0.8, 0.4, 0.6, 0.2])
        assert ap == pytest.approx(5 / 6, abs=1e-12)

    def test_all_scores_equal_gives_prevalence(self):
        y = np.repeat([1, 0], [3, 7])
        assert average_precision(y, np.zeros(10)) == pytest.approx(0.3, abs=1e-12)

    def test_no_positives_errors(self):
        with pytest.raises(MetricError):
            average_precision([0, 0], [0.1, 0.2])

    def test_tie_ordering_independence(self):
        rng = np.random.default_rng(0)
        y = np.array([1, 0, 1, 0, 1, 0])
        s = np.array([0.5, 0.5, 0.5, 0.2, 0.8, 0.8])
        base = average_precision(y, s)
        for _ in range(10):
            perm = rng.permutation(6)
            assert average_precision(y[perm], s[perm]) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        y = rng.integers(2, size=n)
        if y.sum() == 0:
            y[0] = 1
        # quantized scores force plenty of ties
        s = np.round(rng.random(n), 1)
        assert average_precision(y, s) == pytest.approx(brute_force_ap(y, s), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariance_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(2, size=50)
        y[0] = 1
        s = rng.random(50)
        transforms = [np.exp, np.tanh, lambda v: 3 * v + 2, lambda v: v ** 3]
        base = average_precision(y, s)
        for f in transforms:
            assert average_precision(y, f(s)) == pytest.approx(base, abs=1e-12)

    def test_step_ap_worked_example(self):
        y = np.array([1, 1, 0, 0, 1, 0, 0, 0])
        s = np.array([0.9, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1])
        # Three positives; (recall, precision) after each rank:
        # (1/3, 1), (2/3, 1), (2/3, 2/3), (2/3, 1/2), (1, 3/5), then recall
        # stays 1. Step AP: (1/3)(1 + 1 + 3/5) = 13/15.
        assert average_precision(y, s) == pytest.approx(13 / 15, abs=1e-12)


class TestPerClassAp:
    def test_binary_reduction(self):
        rng = np.random.default_rng(0)
        y = rng.integers(2, size=60)
        y[:3] = [0, 1, 0]
        P = rng.random((60, 2))
        P /= P.sum(axis=1, keepdims=True)
        aps, macro = per_class_ap(y, P)
        assert aps[0] == pytest.approx(average_precision((y == 0).astype(int), P[:, 0]))
        assert macro == pytest.approx(np.mean(aps))

    def test_one_hot_probabilities(self):
        y = np.array([0, 1, 2, 1, 0])
        P = np.eye(3)[y]
        aps, macro = per_class_ap(y, P)
        assert all(a == 1.0 for a in aps)
        assert macro == 1.0

    def test_absent_class_is_none_without_a_warning(self):
        y = np.array([0, 0, 1, 1])
        P = np.random.default_rng(0).random((4, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the absent class shows only as its None
            aps, macro = per_class_ap(y, P)
        assert aps[2] is None
        assert macro == float(np.mean([aps[0], aps[1]]))

    def test_no_class_present_is_an_error(self):
        P = np.random.default_rng(0).random((4, 2))
        with pytest.raises(MetricError, match="occurs in y_true"):
            per_class_ap(np.array([2, 3, 2, 5]), P)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 2])  # a present class's, an absent class's
    def test_non_finite_score_in_any_column_is_an_error(self, column, value):
        P = np.random.default_rng(0).random((4, 3))
        P[1, column] = value
        with pytest.raises(MetricError, match="^non-finite scores$"):
            per_class_ap(np.array([0, 0, 1, 1]), P)

    def test_random_scores_concentrate_at_prevalence(self):
        rng = np.random.default_rng(42)
        prevalence = 0.2
        n = 200
        trials = 1000
        aps = []
        for _ in range(trials):
            y = (rng.random(n) < prevalence).astype(int)
            if y.sum() == 0:
                y[0] = 1
            aps.append(average_precision(y, rng.random(n)))
        aps = np.array(aps)
        # finite-sample AP under a random ranking is biased slightly above
        # prevalence, so the tolerance is the trial spread, not the SE
        assert abs(aps.mean() - prevalence) < 3 * aps.std(ddof=1)
        assert abs(aps.mean() - prevalence) < 0.05


def test_report_serialization():
    r = summary_metrics(confusion_table([0, 0, 1, 1], [0, 1, 1, 1]))
    doc = json.loads(r.to_json())
    assert doc["accuracy"] == r.accuracy
    # every field in declaration order, tuples as lists: the bytes `metrics` prints
    r = replace(r, ap_per_class=(0.75, None), macro_ap=0.75)
    assert r.to_json() == json.dumps({
        "accuracy": r.accuracy, "balanced_accuracy": r.balanced_accuracy,
        "precision": list(r.precision), "recall": list(r.recall), "f1": list(r.f1),
        "ap_per_class": [0.75, None], "macro_ap": 0.75,
    })


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    num_classes=st.integers(2, 4),
    levels=st.integers(1, 6),  # few distinct scores: large tie blocks
    data_seed=st.integers(0, 2**32 - 1),
)
def test_per_class_ap_tie_invariance_and_oracle(n, num_classes, levels, data_seed):
    rng = np.random.default_rng(data_seed)
    y = rng.integers(num_classes, size=n)
    y[0] = 0  # at least one class present
    P = rng.integers(levels, size=(n, num_classes)) / levels
    aps, _ = per_class_ap(y, P)
    for c in range(num_classes):
        present = bool(np.any(y == c))
        assert (aps[c] is not None) == present
        if present:
            assert aps[c] == pytest.approx(brute_force_ap(y == c, P[:, c]), abs=1e-12)
        # move rows only within blocks of tied class-c scores
        ranked = np.argsort(-P[:, c], kind="stable")
        shuffled = np.lexsort((rng.random(n), -P[:, c]))
        perm = np.empty(n, dtype=np.int64)
        perm[ranked] = shuffled
        assert np.array_equal(P[perm, c], P[:, c])
        assert per_class_ap(y[perm], P[perm])[0][c] == aps[c]


@settings(max_examples=200, deadline=None)
@given(n_pos=st.integers(1, 2000), n_neg=st.integers(0, 50), pos_levels=st.integers(1, 3000),
       tied_negatives=st.booleans(), data_seed=st.integers(0, 2**32 - 1))
def test_perfect_ranking_is_exactly_one(n_pos, n_neg, pos_levels, tied_negatives, data_seed):
    # 20 positives above 5 tied negatives once read 1.0000000000000002
    rng = np.random.default_rng(data_seed)
    pos = 1.0 + rng.integers(pos_levels, size=n_pos) / pos_levels  # few levels: tied positives
    neg = np.zeros(n_neg) if tied_negatives else -rng.random(n_neg)
    y = np.repeat([1, 0], [n_pos, n_neg])
    perm = rng.permutation(y.size)
    assert average_precision(y[perm], np.r_[pos, neg][perm]) == 1.0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 2000), levels=st.integers(1, 1001), prevalence=st.floats(0.0, 1.0),
       lift=st.floats(0.0, 1.5), data_seed=st.integers(0, 2**32 - 1))
def test_any_ranking_ap_lies_in_unit_interval(n, levels, prevalence, lift, data_seed):
    # positives lifted by `lift` over tied noise: random (0) through perfect (>= 1) rankings
    rng = np.random.default_rng(data_seed)
    y = (rng.random(n) < prevalence).astype(np.int64)
    y[0] = 1
    scores = lift * y + rng.integers(levels, size=n) / levels
    assert 0.0 <= average_precision(y, scores) <= 1.0


def stable_block_tie_ap(indicator, scores):
    """Reference: stable descending sort, precision and recall read after
    each whole block of tied scores."""
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], indicator[order]
    block_end = np.flatnonzero(np.r_[s[:-1] != s[1:], True])
    tp = np.cumsum(y)[block_end]
    return float(np.sum(np.diff(np.r_[0, tp]) * (tp / (block_end + 1))) / y.sum())


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3000),
    num_classes=st.integers(2, 5),
    levels=st.integers(1, 1001),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_per_class_ap_matches_stable_reference_and_ignores_row_order(n, num_classes, levels,
                                                                    data_seed):
    rng = np.random.default_rng(data_seed)
    y = rng.integers(num_classes, size=n)
    P = rng.integers(levels, size=(n, num_classes)) / 1000.0  # a 1/1000 grid: many ties
    P[rng.random((n, num_classes)) < 0.5] *= -1.0  # -0.0 ties with 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an absent class shows only as its None
        aps, macro = per_class_ap(y, P)
        perm = rng.permutation(n)
        assert per_class_ap(y[perm], P[perm]) == (aps, macro)
    absent = [c for c in range(num_classes) if not np.any(y == c)]
    assert [c for c in range(num_classes) if aps[c] is None] == absent
    for c in range(num_classes):
        if c not in absent:
            indicator = (y == c).astype(np.int64)
            assert aps[c] == stable_block_tie_ap(indicator, P[:, c])
            assert aps[c] == average_precision(indicator, P[:, c])  # one kernel, same bits
