"""The pair recorder (`scripts/pairs.py`): its topic table, its summary of
hand-made samples and its clean-up. Nothing here is timed.

Importing the recorder imports the names it uses from `perfbench/workloads.py`,
so a renamed workload helper fails here first."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import pairs  # noqa: E402


def doc(samples, digest="same"):
    """One interpreter's measure output: one point in ms, one output digest."""
    return {"points": {"p": ["ms", samples]}, "digests": {"out": digest}}


def test_topic_table():
    assert set(pairs.TOPICS) == {"grid", "grid-serial", "knn", "metrics_cli", "trainer"}
    assert [name for name, topic in pairs.TOPICS.items() if topic.serial] == ["grid-serial"]


def test_summary_of_hand_made_samples():
    rounds = [
        {"base": doc([4.0, 2.0, 3.0]), "head": doc([1.0, 1.0, 2.0])},  # head wins, 3 / 1
        {"head": doc([2.0]), "base": doc([2.0])},  # a tie counts for neither side
        {"base": doc([1.0]), "head": doc([4.0])},  # base wins, 1 / 4
    ]
    summary = pairs.summarize(rounds)
    assert summary["outputs_equal"] is True
    point = summary["points"]["p"]
    assert point["unit"] == "ms"
    assert point["base"]["rounds"] == [3.0, 2.0, 1.0]
    assert point["head"]["rounds"] == [1.0, 2.0, 4.0]
    assert point["base"]["samples"] == [4.0, 2.0, 3.0, 2.0, 1.0]
    assert point["head_wins"] == 1
    assert point["median_speedup"] == 1.0  # median of 3, 1 and 0.25
    assert {k: point["base"][k] for k in ("median", "q1", "q3")} == {"median": 2.0, "q1": 2.0,
                                                                     "q3": 3.0}
    assert {k: point["head"][k] for k in ("median", "q1", "q3")} == {"median": 2.0, "q1": 1.0,
                                                                     "q3": 2.0}


BASE_ROUNDS = [10.0 + r for r in range(10)]  # median 14.5, q1 12.25, q3 16.75: IQR 4.5


@pytest.mark.parametrize("shift,first,expected", [
    (-5.0, [], "faster"),  # head lower in 10/10 rounds, 5 below past the IQR
    (-10.0, [0.0], "faster"),  # 9/10: a tie counts for neither side
    (-1.0, [1.0], "unresolved"),  # 9/10, but the gap is inside the IQR
    (-10.0, [1.0, 0.0], "unresolved"),  # 8/10
    (5.0, [], "slower"),  # the mirror of the first case
])
def test_verdict_of_hand_made_rounds(shift, first, expected):
    # head reads base + shift in each round, but base + first[r] in the first rounds
    head = [b + shift for b in BASE_ROUNDS]
    head[:len(first)] = [b + d for b, d in zip(BASE_ROUNDS, first)]
    rounds = [{"base": doc([b]), "head": doc([h])} for b, h in zip(BASE_ROUNDS, head)]
    assert pairs.summarize(rounds)["points"]["p"]["verdict"] == expected


def test_self_pair_spread_swallows_a_head_win():
    # head is 5 below base in 10/10 rounds, past the base rounds' IQR of 4.5
    rounds = [{"base": doc([b]), "head": doc([b - 5.0])} for b in BASE_ROUNDS]
    assert pairs.summarize(rounds)["points"]["p"]["verdict"] == "faster"
    # but the base code against itself read 6 lower: the head's gap is machine noise
    for r, b in zip(rounds, BASE_ROUNDS):
        r["self"] = doc([b - 6.0])
    point = pairs.summarize(rounds)["points"]["p"]
    assert point["verdict"] == "unresolved"
    assert point["head_wins"] == point["self_wins"] == 10
    assert point["self_median_speedup"] == round((14 / 8 + 15 / 9) / 2, 4)
    assert point["self"]["rounds"] == [b - 6.0 for b in BASE_ROUNDS]


def test_each_point_records_which_side_ran_first():
    rounds = [
        {"base": doc([1.0]), "head": doc([1.0]), "self": doc([1.0])},
        {"head": doc([1.0]), "self": doc([1.0]), "base": doc([1.0])},
        {"self": doc([1.0]), "base": doc([1.0]), "head": doc([1.0])},
    ]
    assert pairs.summarize(rounds)["points"]["p"]["first"] == ["base", "head", "self"]


def test_no_speedup_against_a_reading_of_zero():
    # rss_children_mb reads 0 when an interpreter ran its grid without workers
    point = pairs.summarize([{"base": doc([0.0]), "head": doc([0.0])}])["points"]["p"]
    assert point["median_speedup"] is None and point["head_wins"] == 0


@pytest.mark.parametrize("drop", [
    lambda rounds: rounds[1].pop("self"),  # a self side in some rounds only
    lambda rounds: rounds[2]["head"]["points"].pop("p"),  # a side that misses a point
    lambda rounds: [r.pop("base") for r in rounds],  # no base side to compare against
], ids=["self-in-some-rounds", "side-misses-a-point", "no-base"])
def test_rounds_that_do_not_line_up_are_refused(drop):
    rounds = [{"base": doc([b]), "head": doc([b]), "self": doc([b])} for b in (1.0, 2.0, 3.0)]
    drop(rounds)
    with pytest.raises(ValueError, match="every round needs base, head and one set of points"):
        pairs.summarize(rounds)


@pytest.mark.parametrize("round_, side", [(0, "head"), (1, "base")])
def test_outputs_differ_between_sides_or_rounds(round_, side):
    rounds = [{"base": doc([1.0]), "head": doc([1.0])} for _ in range(2)]
    rounds[round_][side] = doc([1.0], digest="other")
    assert pairs.summarize(rounds)["outputs_equal"] is False


def test_own_peak_rss_is_the_interpreters_alone():
    # a child inherits its parent's ru_maxrss, so a grid's rss_self_mb once read the recorder's
    held = np.ones(200 * 2**20 // 8)  # 200 MB, every page touched
    assert pairs.own_peak_rss_mb() >= 200
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'scripts')!r}); import pairs; "
            "print(pairs.own_peak_rss_mb())")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    del held
    assert float(child.stdout) < 100


def git_head() -> str:
    """This checkout's HEAD commit; the test skips outside a git checkout."""
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        pytest.skip("not a git checkout")
    return proc.stdout.strip()


def test_report_records_its_revisions(tmp_path, monkeypatch):
    head = git_head()
    monkeypatch.setattr(pairs, "WORK", tmp_path / "work")
    monkeypatch.setattr(pairs, "side", lambda topic, src, job: {"points": {}, "digests": {}})
    assert pairs.record("HEAD", "knn", str(tmp_path / "out.json")) == 0
    report = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    changed = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                             capture_output=True, text=True, check=True).stdout.strip() != ""
    assert report["revisions"] == {"base": head, "head": head, "src_changed": changed}


def test_rounds_rotate_three_sides_at_paths_of_one_length(tmp_path, monkeypatch):
    git_head()
    work, calls = tmp_path / "work", []
    monkeypatch.setattr(pairs, "WORK", work)
    monkeypatch.setattr(pairs, "ROUNDS", 4)

    def empty_side(topic, src, job):
        assert Path(src, "regroupbench").is_dir()
        assert not any(Path(src).rglob("__pycache__"))
        calls.append(Path(src).parent.name)
        return {"points": {}, "digests": {}}

    monkeypatch.setattr(pairs, "side", empty_side)
    assert pairs.record("HEAD", "knn", str(tmp_path / "out.json")) == 0
    assert calls == ["base", "head", "self", "head", "self", "base",
                     "self", "base", "head", "base", "head", "self"]
    assert len({len(str(work / name / "src")) for name in pairs.SIDES}) == 1


def test_failed_side_leaves_no_worktree_or_work_directory(tmp_path, monkeypatch):
    git_head()
    work = tmp_path / "work"
    monkeypatch.setattr(pairs, "WORK", work)

    srcs = []

    def failing_side(topic, src, job):  # fails at the second side of the first round
        assert Path(src, "regroupbench").is_dir()
        assert not any(Path(src).rglob("__pycache__"))
        srcs.append(src)
        if len(srcs) == 2:
            raise SystemExit("side failed")
        return {"points": {}, "digests": {}}

    monkeypatch.setattr(pairs, "side", failing_side)
    with pytest.raises(SystemExit, match="side failed"):
        pairs.record("HEAD", "knn", str(tmp_path / "out.json"))
    # the sides run from paths of one length, as path length moves peak RSS
    assert srcs == [str(work / "base" / "src"), str(work / "head" / "src")]
    assert len(srcs[0]) == len(srcs[1])
    assert not work.exists() and not (tmp_path / "out.json").exists()
    trees = subprocess.run(["git", "-C", str(ROOT), "worktree", "list", "--porcelain"],
                           capture_output=True, text=True, check=True).stdout
    assert str(work) not in trees
