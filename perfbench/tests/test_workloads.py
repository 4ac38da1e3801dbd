import json

import pytest

import workloads


def snapshot(directory):
    """File contents with the directory's own path blanked out (configs name
    their data files by absolute path)."""
    own = str(directory).encode()
    return {p.name: p.read_bytes().replace(own, b"") for p in sorted(directory.iterdir())}


@pytest.fixture(autouse=True)
def small_score_files(monkeypatch):
    monkeypatch.setattr(workloads, "SCORE_ROWS", 3000)
    monkeypatch.setattr(workloads, "SCORE_FILES", 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = make(7, dirs[0])
    again = make(7, dirs[1])
    other = make(8, dirs[2])
    assert snapshot(dirs[0]) == snapshot(dirs[1])
    assert snapshot(dirs[0]) != snapshot(dirs[2])
    assert first.info == again.info
    assert [op.expected for op in first.ops] == [op.expected for op in again.ops]
    assert len(first.ops) == len(other.ops)


def test_grid_configs_run_every_method(tmp_path):
    for make in (workloads.desk_overlap, workloads.csv_scale):
        wl = make(3, tmp_path)
        doc = json.loads((tmp_path / "experiment.json").read_text())
        assert [m["name"] for m in doc["methods"]] == list(workloads.METHODS)
        assert len(set(doc["seeds"])) == len(doc["seeds"])
        assert wl.configs == (str(tmp_path / "experiment.json"),)


def test_blob_dataset_class_sizes():
    X, y = workloads.blob_dataset(0)
    assert X.shape == (sum(workloads.CSV_CLASS_COUNTS), workloads.CSV_DIM)
    assert [int((y == c).sum()) for c in range(3)] == list(workloads.CSV_CLASS_COUNTS)


def test_prediction_csv_round_trips_the_oracle_scores(tmp_path):
    y, thousandths = workloads.score_matrix(5, 0)
    path = tmp_path / "p.csv"
    workloads.write_prediction_csv(y, thousandths, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[-1] == "label"
    parsed = [[float(v) for v in line.split(",")[:-1]] for line in lines[1:]]
    assert parsed == (thousandths / 1000.0).tolist()
    assert (y == 0).sum() >= 1
