import pytest

from checks import (
    balanced_accuracy_oracle,
    block_tie_ap_oracle,
    check_grid_rows,
    check_metrics_report,
    parse_results,
    strip_wall_time,
)


@pytest.mark.parametrize(
    "y, s, ap",
    [
        # ranked 1, 0, 1, 0: precision 1 at the first hit, 2/3 at the second
        ([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6], 0.5 * 1 + 0.5 * 2 / 3),
        # a tie block {1, 0} enters together (precision 1/2), then 1 at 2/3
        ([1, 0, 1], [0.5, 0.5, 0.2], 0.5 * 0.5 + 0.5 * 2 / 3),
        # one block holding everything: precision = prevalence
        ([1, 0, 0, 1], [0.3, 0.3, 0.3, 0.3], 0.5),
        ([0, 1, 1], [0.1, 0.7, 0.9], 1.0),
        ([1, 0, 0], [0.0, 0.5, 0.9], 1 / 3),
    ],
)
def test_oracle_matches_hand_computed_ap(y, s, ap):
    assert block_tie_ap_oracle(y, s) == pytest.approx(ap, abs=1e-15)


def test_oracle_ignores_order_within_ties():
    assert block_tie_ap_oracle([0, 1, 1], [0.5, 0.5, 0.2]) == block_tie_ap_oracle(
        [1, 0, 1], [0.5, 0.5, 0.2]
    )


def test_oracle_rejects_no_positives():
    with pytest.raises(ValueError):
        block_tie_ap_oracle([0, 0], [0.1, 0.2])


def test_balanced_accuracy_oracle():
    scores = [[0.9, 0.1, 0.0], [0.2, 0.7, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4], [0.0, 0.1, 0.9]]
    # predictions 0, 1, 1, 2, 2 against truth 0, 0, 1, 2, 2: recalls 1/2, 1, 1
    assert balanced_accuracy_oracle([0, 0, 1, 2, 2], scores) == pytest.approx(5 / 6)


RESULTS = (
    "method,seed,accuracy,balanced_accuracy,macro_ap,ap_per_class,K,train_size,"
    "config_hash,wall_time_s,error\n"
    "CE,0,0.9,0.8,0.7,0.5;0.9,,800,abc,0.123456,\n"
    "RG+CE,0,0.9,0.8,0.7,0.5;1.5,9,800,abc,0.654321,\n"
)


def test_strip_wall_time_removes_only_that_column():
    stripped = strip_wall_time(RESULTS)
    assert "wall_time_s" not in stripped and "0.123456" not in stripped
    assert stripped.splitlines()[1] == "CE,0,0.9,0.8,0.7,0.5;0.9,,800,abc,"


def test_grid_rows_need_one_ap_per_class_in_unit_interval():
    rows = parse_results(RESULTS)
    assert check_grid_rows(rows[:1], 2) == []
    assert "outside [0, 1]" in check_grid_rows(rows, 2)[0]
    assert "3 classes" in check_grid_rows(rows[:1], 3)[0]


def test_metrics_report_against_oracle():
    expected = {"ap_per_class": [0.25, 0.75], "balanced_accuracy": 0.5}
    good = {"ap_per_class": [0.25 + 1e-14, 0.75], "balanced_accuracy": 0.5}
    assert check_metrics_report(good, expected) == []
    bad = {"ap_per_class": [0.25 + 1e-9, 0.75], "balanced_accuracy": 0.5}
    assert len(check_metrics_report(bad, expected)) == 1
