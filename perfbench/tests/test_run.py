from run import evaluate
from workloads import Workload


def traced_pass(**layers):
    return {"ops": [], "traced": True, "layers": layers}


def test_counts_must_repeat_across_traced_passes():
    units = {"losses.calls": "count", "losses.s": "s"}
    same = [traced_pass(**{"losses.calls": 7, "losses.s": 0.1}),
            traced_pass(**{"losses.calls": 7, "losses.s": 0.3})]
    assert evaluate(Workload("w", ()), same, units)["problems"] == []
    differ = [same[0], traced_pass(**{"losses.calls": 8, "losses.s": 0.1})]
    assert evaluate(Workload("w", ()), differ, units)["problems"] == [
        "count losses.calls differs between traced passes"
    ]
