import json
import os
import threading
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regroupbench.harness as harness
from regroupbench import trainer
from regroupbench.dataset import Dataset, DatasetError, save_csv_dataset
from regroupbench.harness import (
    ExperimentConfig,
    HarnessError,
    MethodKind,
    aggregate,
    config_hash,
    load_config,
    load_source,
    run_experiment,
    run_grid,
    write_results,
)
from regroupbench.trainer import TrainConfig

FAST = TrainConfig(epochs=5, batch_size=64)


def tiny_cfg(methods, seeds=(0,), dataset=None, **kwargs):
    return ExperimentConfig(
        dataset=dataset or {"builtin": "rg-favorable"},
        methods=tuple(MethodKind(m) if isinstance(m, str) else m for m in methods),
        seeds=seeds,
        train=FAST,
        hidden_dims=(),
        **kwargs,
    )


def strip_timing(csv_text):
    out = []
    for line in csv_text.strip().splitlines():
        cells = line.split(",")
        del cells[-2]  # wall_time_s
        out.append(",".join(cells))
    return "\n".join(out)


class TestRunExperiment:
    def test_rg_with_k1_matches_plain_ce(self):
        cfg = tiny_cfg(["CE"])
        ce = run_experiment(cfg, MethodKind("CE"), 0)
        rg = run_experiment(cfg, MethodKind("RG+CE", k_override=1), 0)
        assert rg.accuracy == ce.accuracy
        assert rg.balanced_accuracy == ce.balanced_accuracy
        assert rg.ap_per_class == ce.ap_per_class
        assert rg.macro_ap == ce.macro_ap

    def test_ros_train_size_logged(self):
        cfg = tiny_cfg(["ROS+CE"])
        row = run_experiment(cfg, MethodKind("ROS+CE"), 0)
        # train split is (80, 720); ROS brings class 0 up to 720
        assert row.train_size == 1440

    def test_rg_records_k(self):
        cfg = tiny_cfg(["RG+CE"])
        row = run_experiment(cfg, MethodKind("RG+CE"), 0)
        assert row.k_groups == 9  # 720 / 80

    def test_determinism(self):
        cfg = tiny_cfg(["RG+CE"])
        a = run_experiment(cfg, MethodKind("RG+CE"), 3)
        b = run_experiment(cfg, MethodKind("RG+CE"), 3)
        assert a.ap_per_class == b.ap_per_class
        assert a.accuracy == b.accuracy

    def test_config_hash_recorded(self):
        cfg = tiny_cfg(["CE"])
        row = run_experiment(cfg, MethodKind("CE"), 0)
        assert row.config_hash == config_hash(cfg)

    @pytest.mark.parametrize("name", ["WCE", "Focal", "LDAM", "RUS+CE", "SMOTE+CE"])
    def test_all_methods_run(self, name):
        cfg = tiny_cfg([name])
        row = run_experiment(cfg, MethodKind(name), 0)
        assert row.error == ""
        assert 0.0 <= row.macro_ap <= 1.0


class TestMajorityByCount:
    """Regrouping splits the larger class, whichever id it has, and the
    aggregates' minority is the smaller class."""

    def test_class_zero_majority_csv_is_regrouped(self, tmp_path):
        rng = np.random.default_rng(5)
        y = np.repeat([0, 1], (900, 100))
        angle = rng.integers(5, size=1000) * 2 * np.pi / 5
        ring = 3.0 * np.column_stack([np.cos(angle), np.sin(angle)])
        X = np.where(y[:, None] == 0, ring, 0.0) + 0.5 * rng.standard_normal((1000, 2))
        save_csv_dataset(Dataset(X, y), tmp_path / "d.csv")
        cfg = tiny_cfg(["CE", "RG+CE"], seeds=(0, 1), dataset={"csv": str(tmp_path / "d.csv")})
        rows, aggs = run_grid(cfg)
        ce, rg = rows[:2], rows[2:]
        assert [r.k_groups for r in rg] == [9, 9] and not any(r.error for r in rows)
        assert [r.ap_per_class for r in rg] != [r.ap_per_class for r in ce]
        for agg, cells in zip(aggs, (ce, rg)):
            assert agg.mean_minority_ap == np.mean([r.ap_per_class[1] for r in cells])

    @settings(max_examples=40, deadline=None)
    @given(counts=st.tuples(st.integers(2, 120), st.integers(2, 120)),
           k_override=st.none() | st.integers(1, 4), seed=st.integers(0, 100))
    def test_swapping_class_ids_keeps_k(self, counts, k_override, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((sum(counts), 2))
        y = np.repeat([0, 1], counts)
        method = MethodKind("RG+CE", k_override=k_override)
        cfg = tiny_cfg([method], test_fraction=0.25)
        k = [harness._prepare(cfg, method, seed, Dataset(X, labels)).k_groups
             for labels in (y, 1 - y)]
        assert k[0] == k[1]


class TestRunGrid:
    def test_cardinality_and_aggregates(self):
        cfg = tiny_cfg(["CE", "RG+CE"], seeds=(0, 1, 2))
        rows, aggs = run_grid(cfg)
        assert len(rows) == 6
        assert [a.method for a in aggs] == ["CE", "RG+CE"]
        assert all(a.n_runs == 3 for a in aggs)

    def test_aggregate_mean_recomputation(self):
        cfg = tiny_cfg(["CE"], seeds=(0, 1, 2))
        rows, aggs = run_grid(cfg)
        vals = np.array([r.macro_ap for r in rows])
        assert aggs[0].mean_macro_ap == pytest.approx(vals.mean(), abs=1e-12)
        assert aggs[0].std_macro_ap == pytest.approx(vals.std(), abs=1e-12)

    def test_failed_cell_recorded_and_grid_continues(self):
        # minority train split has a single sample -> SMOTE has no neighbor
        dataset = {
            "mixture": {
                "minority": {"mean": [0.0, 0.0], "stddev": 1.0, "count": 2},
                "majority_components": [{"mean": [5.0, 0.0], "stddev": 1.0, "count": 40}],
                "seed": 0,
            }
        }
        cfg = tiny_cfg(["SMOTE+CE", "CE"], dataset=dataset, test_fraction=0.5)
        rows, aggs = run_grid(cfg)
        assert len(rows) == 2
        assert "single sample" in rows[0].error
        assert rows[1].error == ""
        assert [a.method for a in aggs] == ["CE"]

    def test_results_csv_deterministic_modulo_timing(self, tmp_path):
        cfg = tiny_cfg(["CE", "RG+CE"], seeds=(0, 1))
        texts = []
        for run in range(2):
            rows, aggs = run_grid(cfg)
            results, _ = write_results(rows, aggs, tmp_path / f"run{run}")
            texts.append(strip_timing(results.read_text()))
        assert texts[0] == texts[1]

    def test_summary_written(self, tmp_path):
        cfg = tiny_cfg(["CE"], seeds=(0,))
        rows, aggs = run_grid(cfg)
        _, summary = write_results(rows, aggs, tmp_path)
        text = summary.read_text()
        assert "CE" in text and "minority AP" in text


def clamp_csv(path):
    """A binary CSV whose majority has 4 distinct rows, one of them single:
    RG+CE with K = 4 clamps to 3 groups on seeds whose test split takes it."""
    rng = np.random.default_rng(0)
    corners = np.array([[3.0, 3.0], [3.0, -3.0], [-3.0, 3.0], [-3.0, -3.0]])
    X = np.vstack([rng.standard_normal((4, 2)), corners[[0, 0, 0, 1, 1, 1, 2, 2, 2, 3]]])
    save_csv_dataset(Dataset(X, np.repeat([0, 1], (4, 10))), path)
    return {"csv": str(path)}


class TestSeedStacking:
    def test_grid_rows_equal_one_cell_runs(self, tmp_path):
        clamp = clamp_csv(tmp_path / "clamp.csv")
        for dataset, methods, kwargs in (
            ({"builtin": "overlap"}, ["CE", "WCE", "Focal", "LDAM", "ROS+CE", "SMOTE+CE"], {}),
            (clamp, ["CE", "RG+CE"], {"test_fraction": 0.25}),
            (clamp, ["CE", MethodKind("RG+CE", k_override=4)], {"test_fraction": 0.25}),
        ):  # one RG+CE per config: a config names each method once
            cfg = tiny_cfg(methods, seeds=(0, 1, 2, 3, 4, 5), dataset=dataset, **kwargs)
            rows, _ = run_grid(cfg)
            cells = [(m, s) for m in cfg.methods for s in cfg.seeds]
            assert [(r.method, r.seed) for r in rows] == [(m.name, s) for m, s in cells]
            for row, (method, seed) in zip(rows, cells):
                alone = run_experiment(cfg, method, seed)
                assert replace(row, wall_time_s=0.0) == replace(alone, wall_time_s=0.0)
                assert row.wall_time_s > 0.0

    def test_cells_stack_by_train_size_layer_dims_and_loss(self, tmp_path, monkeypatch):
        import regroupbench.harness as harness

        stacks = []
        real_train = harness.train

        def spy(datasets, specs, loss, cfgs, **kwargs):
            stacks.append(sorted(spec.output_dim for spec in specs))
            return real_train(datasets, specs, loss, cfgs, **kwargs)

        monkeypatch.setattr(harness, "train", spy)
        cfg = tiny_cfg([MethodKind("RG+CE", k_override=4)], seeds=tuple(range(6)),
                       dataset=clamp_csv(tmp_path / "clamp.csv"), test_fraction=0.25)
        rows, _ = run_grid(cfg)
        assert all(r.error == "" for r in rows)
        # clamped seeds train 4 heads, the others 5: two stacks covering all six
        assert sorted(stacks) == [[4, 4, 4], [5, 5, 5]]

    def test_csv_parsed_once_per_grid(self, tmp_path, monkeypatch):
        import regroupbench.harness as harness

        calls = []
        real_load = harness.load_csv_dataset

        def spy(*args):
            calls.append(args)
            return real_load(*args)

        monkeypatch.setattr(harness, "load_csv_dataset", spy)
        cfg = tiny_cfg(["CE", "RUS+CE"], seeds=(0, 1, 2), dataset=clamp_csv(tmp_path / "c.csv"),
                       test_fraction=0.25)
        rows, _ = run_grid(cfg)
        assert len(rows) == 6 and all(r.error == "" for r in rows)
        assert len(calls) == 1

    def test_unreadable_csv_fails_every_cell(self, tmp_path):
        cfg = tiny_cfg(["CE", "RG+CE"], seeds=(0, 1), dataset={"csv": str(tmp_path / "no.csv")})
        rows, aggs = run_grid(cfg)
        assert len(rows) == 4 and aggs == []
        assert len({r.error for r in rows}) == 1 and rows[0].error.startswith("DatasetError")
        with pytest.raises(DatasetError):
            run_experiment(cfg, MethodKind("CE"), 0)


MULTI_CPU = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                               reason="columns run in-process on one CPU")


def grid_text(cfg, out_dir):
    """results.csv of a grid, minus wall_time_s, and its aggregates."""
    rows, aggs = run_grid(cfg)
    results, _ = write_results(rows, aggs, out_dir)
    return strip_timing(results.read_text()), aggs


def raise_pid(*args):
    raise RuntimeError(f"pid {os.getpid()}")


def force_pool(monkeypatch):
    """Pool every grid with two or more methods, however little work it holds."""
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 0.0)


class TestParallelColumns:
    @pytest.mark.parametrize("case", ["clean", "failed cell", "diverged slice", "unreadable csv"])
    def test_pooled_rows_equal_serial_rows(self, tmp_path, monkeypatch, case):
        single = {"mixture": {"minority": {"mean": [0.0, 0.0], "stddev": 1.0, "count": 2},
                              "majority_components": [{"mean": [5.0, 0.0], "stddev": 1.0,
                                                       "count": 40}]}}
        cfg = {
            "clean": lambda: tiny_cfg(list(harness.METHODS), seeds=(0, 1),
                                      dataset={"builtin": "overlap"}),
            # the minority train split has one sample: SMOTE has no neighbour
            "failed cell": lambda: tiny_cfg(["SMOTE+CE", "CE", "RG+CE"], seeds=(0, 1),
                                            dataset=single, test_fraction=0.5),
            # some seeds of LDAM and RG+CE diverge inside their stacks, the rest train on
            "diverged slice": lambda: replace(
                tiny_cfg(["CE", "LDAM", "RG+CE"], seeds=(0, 1, 2)), hidden_dims=(8,),
                train=TrainConfig(lr_max=1e150, epochs=5, batch_size=64)),
            "unreadable csv": lambda: tiny_cfg(["CE", "RG+CE"], seeds=(0, 1),
                                               dataset={"csv": str(tmp_path / "no.csv")}),
        }[case]()
        force_pool(monkeypatch)
        pooled, pooled_aggs = grid_text(cfg, tmp_path / "pooled")
        monkeypatch.setattr(harness, "_BLAS_PIN", "no_such_symbol")
        serial, serial_aggs = grid_text(cfg, tmp_path / "serial")
        assert pooled == serial and pooled_aggs == serial_aggs
        errors = [line.split(",")[-1] for line in pooled.splitlines()[1:]]
        if case == "clean":
            assert not any(errors)
        elif case == "diverged slice":
            assert "" in errors
            assert any(e.startswith("TrainingDiverged: ") and " at epoch " in e for e in errors)
        else:
            assert any(e.startswith(("DatasetError: ", "ResampleError: ")) for e in errors)

    @MULTI_CPU
    def test_columns_run_in_worker_processes(self, monkeypatch):
        force_pool(monkeypatch)
        monkeypatch.setattr(harness, "_prepare", raise_pid)
        rows, _ = run_grid(tiny_cfg(["CE", "WCE", "Focal"], seeds=(0, 1)))
        assert all(r.error.startswith("RuntimeError: pid ") for r in rows)
        assert f"RuntimeError: pid {os.getpid()}" not in {r.error for r in rows}

    def test_serial_without_blas_pin_or_with_one_column(self, monkeypatch):
        force_pool(monkeypatch)
        monkeypatch.setattr(harness, "_prepare", raise_pid)
        here = f"RuntimeError: pid {os.getpid()}"
        rows, _ = run_grid(tiny_cfg(["RG+CE"], seeds=(0, 1)))
        assert {r.error for r in rows} == {here}
        monkeypatch.setattr(harness, "_BLAS_PIN", "no_such_symbol")
        rows, _ = run_grid(tiny_cfg(["CE", "WCE", "Focal"], seeds=(0, 1)))
        assert {r.error for r in rows} == {here}

    @MULTI_CPU
    def test_dead_worker_fails_its_cells_and_the_grid_returns(self, tmp_path, monkeypatch,
                                                              capsys):
        from regroupbench.cli import main

        real_prepare = harness._prepare

        def die_in_rg(cfg, method, seed, ds):
            if method.name == "RG+CE":
                os._exit(3)
            return real_prepare(cfg, method, seed, ds)

        force_pool(monkeypatch)
        monkeypatch.setattr(harness, "_prepare", die_in_rg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"builtin": "rg-favorable"}, "methods": [{"name": "CE"}, {"name": "RG+CE"}],
            "seeds": [0, 1], "train": {"epochs": 2}, "output_dir": str(tmp_path / "out")}))
        codes = []
        runner = threading.Thread(target=lambda: codes.append(main(["run", "--config",
                                                                     str(cfg_path)])))
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive() and codes == [1]
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        errors = {(line.split(",")[0], line.split(",")[-1].split(":")[0]) for line in lines}
        assert ("RG+CE", "BrokenProcessPool") in errors
        assert errors <= {("CE", ""), ("CE", "BrokenProcessPool"), ("RG+CE", "BrokenProcessPool")}
        assert "FAILED RG+CE seed=0: BrokenProcessPool: " in capsys.readouterr().err

    @pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=MULTI_CPU)])
    def test_grids_below_the_work_floor_run_in_process(self, monkeypatch, pooled):
        cfg = tiny_cfg(["CE", "WCE", "RG+CE"], seeds=(0, 1))
        ds = load_source(cfg.dataset, 0)
        work = len(cfg.seeds) * sum(harness._column_weight(cfg, m, ds) for m in cfg.methods)
        assert work < harness._POOL_MIN_WORK  # a tiny grid runs in-process as it is
        monkeypatch.setattr(harness, "_POOL_MIN_WORK", work if pooled else work * (1 + 1e-9))
        monkeypatch.setattr(harness, "_prepare", raise_pid)
        rows, _ = run_grid(cfg)
        here = f"RuntimeError: pid {os.getpid()}"
        assert all(r.error.startswith("RuntimeError: pid ") for r in rows)
        assert ({r.error for r in rows} == {here}) != pooled

    def test_column_weight_counts_fit_rows_and_layer_products(self):
        ds = load_source({"builtin": "overlap"}, 0)  # 100 minority, 900 majority rows
        cfg = replace(tiny_cfg(["CE"]), hidden_dims=(32,))
        weight = {m: harness._column_weight(cfg, MethodKind(m), ds) for m in harness.METHODS}
        epochs, layers = FAST.epochs, 2 * 32 + 32 * 2
        assert weight["CE"] == weight["LDAM"] == epochs * 800 * layers
        assert weight["ROS+CE"] == weight["SMOTE+CE"] == epochs * 1440 * layers
        assert weight["RUS+CE"] == epochs * 160 * layers
        assert weight["RG+CE"] == epochs * 800 * (2 * 32 + 32 * 10)  # 1 + 9 heads
        forced = harness._column_weight(cfg, MethodKind("RG+CE", k_override=3), ds)
        assert forced == epochs * 800 * (2 * 32 + 32 * 4)  # 1 + k_override heads
        swapped = Dataset(ds.features, 1 - ds.labels)  # class 0 the majority
        for m in (MethodKind("RG+CE"), MethodKind("RG+CE", k_override=3)):
            assert harness._column_weight(cfg, m, swapped) == harness._column_weight(cfg, m, ds)

    def test_k_override_on_a_multiclass_source_fails_its_cells(self, tmp_path, capsys):
        from regroupbench.cli import main

        rng = np.random.default_rng(1)
        y = np.repeat([0, 1, 2], (20, 40, 60))
        save_csv_dataset(Dataset(rng.standard_normal((120, 2)) + y[:, None], y), tmp_path / "d.csv")
        source = {"csv": str(tmp_path / "d.csv")}
        method = MethodKind("RG+CE", k_override=7)
        # the class count is known only once the CSV loads: the pool still sorts the column
        assert harness._column_weight(tiny_cfg([method], dataset=source),
                                      method, load_source(source, 0)) > 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": source, "methods": [{"name": "CE"}, {"name": "RG+CE", "k_override": 7}],
            "seeds": [0, 1], "hidden_dims": [], "train": {"epochs": 1},
            "output_dir": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        rows = [line.split(",") for line in
                (tmp_path / "o" / "results.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[6], r[-1]) for r in rows] == [("CE", "", "")] * 2 + [
            ("RG+CE", "", "HarnessError: k_override needs a binary source; got 3 classes")] * 2
        assert "FAILED RG+CE seed=1: HarnessError: k_override" in capsys.readouterr().err


def huge_csv(path):
    """Two classes near +-1e200: a one-batch step stays finite, and the
    weights it leaves overflow some seeds' logits over the whole split."""
    rng = np.random.default_rng(0)
    lines = ["f0,f1,label"]
    for c, (count, sign) in enumerate([(8, 1.0), (24, -1.0)]):
        X = sign * 1e200 * (1.0 + 0.1 * rng.random((count, 2)))
        lines += [",".join(map(repr, row.tolist())) + f",{'ab'[c]}" for row in X]
    path.write_text("\n".join(lines) + "\n")
    return {"csv": str(path)}


class TestEpochEndScreen:
    """A logit bound stands in for the exact epoch-end pass over each training
    set, which runs only when the bound fails."""

    def spy_full_pass(self, monkeypatch):
        monkeypatch.setattr(harness, "_BLAS_PIN", "no_such_symbol")  # serial: calls stay here
        calls = []
        real_full_pass = trainer._full_pass

        def spy(st, epoch, rows):
            calls.append((epoch, list(rows)))
            return real_full_pass(st, epoch, rows)

        monkeypatch.setattr(trainer, "_full_pass", spy)
        return calls

    def test_clean_grid_never_runs_the_exact_pass(self, tmp_path, monkeypatch):
        calls = self.spy_full_pass(monkeypatch)
        text, _ = grid_text(tiny_cfg(list(harness.METHODS), seeds=(0, 1),
                                     dataset={"builtin": "overlap"}), tmp_path)
        assert not any(line.split(",")[-1] for line in text.splitlines()[1:])
        assert calls == []

    def test_full_pass_overflow_reads_as_with_every_exact_pass(self, tmp_path, monkeypatch):
        calls = self.spy_full_pass(monkeypatch)
        cfg = tiny_cfg(["CE", "ROS+CE"], seeds=(0, 1, 2), dataset=huge_csv(tmp_path / "h.csv"),
                       standardize=False)
        screened, _ = grid_text(cfg, tmp_path / "screened")
        errors = [line.split(",")[-1] for line in screened.splitlines()[1:]]
        assert errors == ["", "TrainingDiverged: non-finite full-pass logits at epoch 0", ""] * 2
        assert calls  # the bound failed, and the exact pass found the overflow
        monkeypatch.setattr(trainer, "_LOGIT_LIMIT", 0.0)  # every bound fails: every pass runs
        calls.clear()
        assert grid_text(cfg, tmp_path / "exact")[0] == screened
        assert {epoch for epoch, _ in calls} == set(range(FAST.epochs))


EVERY_SETTING = {  # every top-level key and hyperparameter off its default
    "dataset": {"csv": "data.csv", "label_column": "y"},
    "methods": [{"name": "CE"}, {"name": "WCE"}, {"name": "Focal", "gamma": 1.5},
                {"name": "LDAM", "margin_scale": 0.3, "logit_scale": 10.0}, {"name": "ROS+CE"},
                {"name": "RUS+CE"}, {"name": "SMOTE+CE", "k_neighbors": 3},
                {"name": "RG+CE", "k_override": 4}],
    "seeds": [3, 1],
    "test_fraction": 0.3,
    "standardize": False,
    "hidden_dims": [16, 8],
    "train": {"lr_max": 0.05, "lr_min": 0.001, "epochs": 7, "batch_size": 32,
              "momentum": 0.8, "weight_decay": 0.0001},
    "output_dir": "elsewhere",
}
OPTIONAL_KEYS = (  # paths into EVERY_SETTING of the keys a config may leave out
    [(k,) for k in ("test_fraction", "standardize", "hidden_dims", "output_dir")]
    + [("train", k) for k in EVERY_SETTING["train"]]
    + [("methods", i, k) for i, m in enumerate(EVERY_SETTING["methods"]) for k in m if k != "name"]
)


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


class TestConfigIO:
    def test_load_config_round_trip(self, tmp_path):
        doc = {
            "dataset": {"builtin": "overlap"},
            "methods": [{"name": "CE"}, {"name": "Focal", "gamma": 1.5}],
            "seeds": [0, 1],
            "test_fraction": 0.25,
            "standardize": False,
            "hidden_dims": [16],
            "train": {"epochs": 3, "batch_size": 32},
            "output_dir": "results",
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        cfg = load_config(p)
        assert cfg.methods[1].gamma == 1.5
        assert cfg.test_fraction == 0.25
        assert not cfg.standardize
        assert cfg.train.epochs == 3
        assert config_hash(cfg) == "e0108fee98293255"  # pinned: validation leaves valid configs alone

    def test_method_table_and_method_fields_agree(self):
        hyper = [h for _, _, used in harness.METHODS.values() for h in used]
        # every field but name belongs to exactly one method, and only fields are named
        assert sorted(hyper) == sorted(f.name for f in fields(MethodKind)[1:])

    def test_config_hash_of_every_setting_is_pinned(self, tmp_path):
        assert set(EVERY_SETTING) == {f.name for f in fields(ExperimentConfig)}
        cfg = load_config(write_config(tmp_path / "cfg.json", EVERY_SETTING))
        for field in fields(MethodKind)[1:]:  # every hyperparameter off its default
            owner = next(m for m in cfg.methods if field.name in harness.METHODS[m.name][2])
            assert getattr(owner, field.name) != field.default
        assert [f.name for f in fields(TrainConfig)
                if getattr(cfg.train, f.name) == f.default] == ["shuffle_seed"]
        assert (cfg.test_fraction, cfg.standardize, cfg.hidden_dims) != (0.2, True, (32,))
        assert config_hash(cfg) == "912b0bf44b047755"  # pinned: the checks leave every setting as given

    @settings(max_examples=60, deadline=None)
    @given(drop=st.sets(st.sampled_from(OPTIONAL_KEYS + [("train",)])))
    def test_omitted_optional_keys_load_as_the_dataclass_defaults(self, tmp_path_factory, drop):
        doc = json.loads(json.dumps(EVERY_SETTING))
        for path in sorted(drop, key=len, reverse=True):  # a train key before train itself
            *parents, key = path
            owner = doc
            for k in parents:
                owner = owner[k]
            del owner[key]
        cfg = load_config(write_config(tmp_path_factory.mktemp("cfg") / "cfg.json", doc))
        for path in OPTIONAL_KEYS:
            *parents, key = path
            owner, given_value = cfg, EVERY_SETTING
            for k in parents:
                owner = owner[k] if isinstance(k, int) else getattr(owner, k)
            for k in path:
                given_value = given_value[k]
            field = next(f for f in fields(owner) if f.name == key)
            default = field.default_factory() if field.default is MISSING else field.default
            dropped = any(path[:i] in drop for i in range(1, len(path) + 1))
            expected = default if dropped else given_value
            assert getattr(owner, key) == (tuple(expected) if key == "hidden_dims" else expected)

    def test_unknown_method_rejected(self):
        with pytest.raises(HarnessError):
            MethodKind("GAN")

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_override_below_one_rejected(self, k):
        with pytest.raises(HarnessError, match="k_override must be >= 1"):
            MethodKind("RG+CE", k_override=k)

    def test_k_override_is_used_as_given(self):
        cfg = tiny_cfg(["RG+CE"])
        assert run_experiment(cfg, MethodKind("RG+CE", k_override=3), 0).k_groups == 3
        assert run_experiment(cfg, MethodKind("RG+CE"), 0).k_groups != 3

    def test_bad_source_rejected(self):
        with pytest.raises(HarnessError):
            load_source({"parquet": "x"}, 0)
        with pytest.raises(HarnessError, match="must have csv, builtin, or mixture key"):
            tiny_cfg(["CE"], dataset={"parquet": "x"})  # at construction, as from a file
        with pytest.raises(HarnessError, match="unknown builtin family 'nope'"):
            tiny_cfg(["CE"], dataset={"builtin": "nope"})

    def test_plain_dicts_build_the_same_config(self):
        source = {"builtin": "overlap"}
        assert ExperimentConfig(source, [{"name": "Focal", "gamma": 1.0}], [0],
                                train={"epochs": 3}) == ExperimentConfig(
            source, (MethodKind("Focal", gamma=1.0),), (0,), train=TrainConfig(epochs=3))

    def test_hash_sensitive_to_config(self):
        a = tiny_cfg(["CE"])
        b = tiny_cfg(["CE"], test_fraction=0.3)
        assert config_hash(a) != config_hash(b)

    def test_seed_offsets_synthetic_draw(self):
        a = load_source({"builtin": "rg-favorable"}, 0)
        b = load_source({"builtin": "rg-favorable"}, 1)
        assert not np.array_equal(a.features, b.features)


class TestCli:
    def test_run_and_synth_and_metrics(self, tmp_path, capsys):
        from regroupbench.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"builtin": "rg-favorable", "seed": 1}))
        out_csv = tmp_path / "synth.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out_csv)]) == 0
        assert out_csv.exists()

        cfg = {
            "dataset": {"csv": str(out_csv)},
            "methods": [{"name": "CE"}],
            "seeds": [0],
            "hidden_dims": [],
            "train": {"epochs": 3},
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "summary.txt").exists()

        pred = tmp_path / "pred.csv"
        pred.write_text("s0,s1,truth\n0.9,0.1,0\n0.2,0.8,1\n0.6,0.4,1\n")
        capsys.readouterr()
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accuracy"] == pytest.approx(2 / 3)

    def test_synth_unknown_builtin_is_named_error(self, tmp_path, capsys):
        from regroupbench.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"builtin": "nope"}))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "unknown builtin family 'nope'" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text", ["s0,s1,truth\n", ""])
    def test_metrics_without_data_rows_is_named_error(self, tmp_path, capsys, text):
        from regroupbench.cli import main

        pred = tmp_path / "pred.csv"
        pred.write_text(text)
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"prediction CSV {pred} has no data rows"

    @pytest.mark.parametrize(
        "text,problem",
        [
            ("s0,s1,truth\n0.9,0.1,0\n0.2,0.8,2\n", "labels outside 0..1"),
            ("s0,s1,truth\n0.9,0.1,0\n0.2,0.8,-1\n", "labels outside 0..1"),
            ("s0,s1,truth\n0.9,0.1,0\n0.2,0.8,100000000000000000000\n", "labels outside 0..1"),
            ("s0,s1,truth\n0.9,0.1,0\n0.2,high,1\n", "line 3: could not convert string to float"),
            ("s0,s1,truth\n0.9,0.1,zero\n", "line 2: invalid literal for int()"),
            ("s0,s1,truth\n0.9,0.1,0\n0.2,1\n", "line 3: 2 cells, expected 3"),
            ("s0,s1,truth\n0.9,0.1,0\n\n0.2,0.8,1\n0.3,bad,1\n",
             "line 5: could not convert string to float: 'bad' in column 's1'"),
            ("truth\n0\n1\n", "no column besides 'truth'"),
        ],
    )
    def test_metrics_bad_prediction_csv_is_named_error(self, tmp_path, capsys, text, problem):
        from regroupbench.cli import main

        pred = tmp_path / "pred.csv"
        pred.write_text(text)
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith(f"prediction CSV {pred}") and problem in captured.err

    @pytest.mark.parametrize(
        "change,problem",
        [
            ({"methods": [{"name": "CE", "gama": 1.0}]}, "unexpected keyword argument 'gama'"),
            ({"train": {"epochs": 0}}, "epochs and batch_size must be >= 1"),
            ({"methods": None}, "missing key 'methods'"),
            ({"dataset": {"builtin": "nope"}}, "unknown builtin family 'nope'"),
            ({"dataset": {"mixture": {"majority_components": []}}}, "missing key 'minority'"),
            ({"dataset": {"parquet": "x"}}, "must have csv, builtin, or mixture key"),
            ({"hiden_dims": [8]}, "unknown keys ['hiden_dims']"),
            ({"seeds": ["a"]}, "seeds must be integers"),
            ({"hidden_dims": [8, 0]}, "hidden_dims entries must be >= 1, got [8, 0]"),
            ({"test_fraction": 1.5}, "test_fraction must be in (0, 1), got 1.5"),
            ({"test_fraction": 0}, "test_fraction must be in (0, 1), got 0.0"),
            ({"standardize": "false"}, "standardize must be true or false, got 'false'"),
            ({"standardize": 1}, "standardize must be true or false, got 1"),
            ({"methods": [{"name": "SMOTE+CE", "k_neighbors": 0}]}, "k_neighbors must be >= 1"),
            ({"methods": [{"name": "Focal", "gamma": -1}]}, "gamma must be >= 0"),
            ({"methods": [{"name": "LDAM", "logit_scale": 0}]}, "logit_scale > 0"),
            ({"methods": [{"name": "CE", "gamma": -1}]}, "method CE does not use gamma"),
            ({"methods": [{"name": "LDAM", "gamma": 1.0}]}, "method LDAM does not use gamma"),
            ({"methods": [{"name": "Focal", "k_neighbors": 3}]},
             "method Focal does not use k_neighbors"),
            ({"methods": [{"name": "SMOTE+CE", "logit_scale": 1.0, "k_override": 2}]},
             "method SMOTE+CE does not use logit_scale, k_override"),
            ({"methods": [{"name": "RG+CE", "margin_scale": 0.3}]},
             "method RG+CE does not use margin_scale"),
            ({"methods": [{"name": "Focal", "gamma": float("nan")}]},
             "gamma must be >= 0 and finite, got nan"),
            ({"methods": [{"name": "LDAM", "margin_scale": float("nan")}]}, "both finite"),
            ({"methods": [{"name": "LDAM", "logit_scale": float("inf")}]}, "both finite"),
            ({"methods": [{"name": "RG+CE", "k_override": 1}, {"name": "CE"},
                          {"name": "RG+CE", "k_override": 8}]},
             "method RG+CE is listed more than once"),
            ({"hidden_dims": "32"}, "hidden_dims must be a list of integers, got '32'"),
            ({"hidden_dims": [8.7]}, "hidden_dims entry must be an integer, got 8.7"),
            ({"seeds": [0.5]}, "seeds must be integers, got [0.5]"),
            ({"train": {"epochs": 1.0}}, "epochs must be an integer, got 1.0"),
            ({"train": {"epochs": 1, "batch_size": 64.0}}, "batch_size must be an integer, got 64.0"),
            ({"methods": [{"name": "RG+CE", "k_override": 2.0}]},
             "k_override must be an integer, got 2.0"),
            ({"methods": [{"name": "SMOTE+CE", "k_neighbors": 3.0}]},
             "k_neighbors must be an integer, got 3.0"),
            ({"train": {"epochs": 1, "momentum": float("nan")}},
             "momentum and weight_decay must be finite"),
            ({"train": {"epochs": 1, "weight_decay": float("inf")}},
             "momentum and weight_decay must be finite"),
            ({"train": {"epochs": 1, "shuffle_seed": 99}},
             "a config cannot set train.shuffle_seed; each grid seed sets it"),
            ({"dataset": {"csv": "d.csv", "label_col": "y"}}, "got keys ['csv', 'label_col']"),
            ({"dataset": {"builtin": "overlap", "label_column": "y"}},
             "label_column only beside csv; got keys ['builtin', 'label_column']"),
            ({"dataset": {"builtin": "overlap", "csv": "d.csv"}},
             "takes one of csv, builtin or mixture"),
            ({"dataset": "d.csv"}, "must have csv, builtin, or mixture key"),
            ({"seeds": [True]}, "seeds must be integers, got [True]"),
            ({"seeds": ["1"]}, "seeds must be integers, got ['1']"),
            ({"train": {"epochs": True}}, "epochs must be an integer, got True"),
            ({"methods": [{"name": "RG+CE", "k_override": True}]},
             "k_override must be an integer, got True"),
            ({"hidden_dims": 32}, "hidden_dims must be a list of integers, got 32"),
            ({"test_fraction": "0.5"}, "test_fraction must be a number, got '0.5'"),
            ({"dataset": {"mixture": {"minority": {"mean": [0.0], "stddev": 1.0, "count": 20.9},
                                      "majority_components": [
                                          {"mean": [1.0], "stddev": 1.0, "count": 50}]}}},
             "count must be an integer, got 20.9"),
            ({"dataset": {"mixture": {"minority": {"mean": "12", "stddev": 1.0, "count": 20},
                                      "majority_components": [
                                          {"mean": [1.0, 0.0], "stddev": 1.0, "count": 50}]}}},
             "mean must be a list of numbers, got '12'"),
            ({"dataset": {"mixture": {"minority": {"mean": [0.0], "stddev": 1.0, "count": 20},
                                      "majority_components": [
                                          {"mean": [1.0], "stddev": "0.5", "count": 50}]}}},
             "stddev must be a number, got '0.5'"),
            ({"dataset": {"mixture": {"minority": {"mean": [0.0, "1"], "stddev": 1.0, "count": 20},
                                      "majority_components": [
                                          {"mean": [1.0, 0.0], "stddev": 1.0, "count": 50}]}}},
             "mean entry must be a number, got '1'"),
        ],
    )
    def test_run_bad_config_is_named_error(self, tmp_path, capsys, change, problem):
        from regroupbench.cli import main

        doc = {"dataset": {"builtin": "rg-favorable"}, "methods": [{"name": "CE"}], "seeds": [0],
               "train": {"epochs": 1}, "output_dir": str(tmp_path / "o")}
        doc.update(change)
        doc = {k: v for k, v in doc.items() if v is not None}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith(f"config {cfg_path}: ") and problem in captured.err
        assert not (tmp_path / "o").exists()

    def test_run_missing_config_file_is_named_error(self, tmp_path, capsys):
        from regroupbench.cli import main

        path = tmp_path / "nope.json"
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"config {path}: cannot read config") and "No such file" in err

    @pytest.mark.parametrize("seeds", ["1,,2", "1,x", ","])
    def test_run_bad_seed_override_is_named_error(self, tmp_path, capsys, seeds):
        from regroupbench.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": {"builtin": "rg-favorable"},
                                        "methods": [{"name": "CE"}], "seeds": [0]}))
        assert main(["run", "--config", str(cfg_path), "--seeds", seeds]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "seeds must be integers" in err

    def test_metrics_missing_file_is_named_error(self, tmp_path, capsys):
        from regroupbench.cli import main

        pred = tmp_path / "nope.csv"
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"prediction CSV {pred}: no such file"

    def test_metrics_skips_blank_lines(self, tmp_path, capsys):
        from regroupbench.cli import main

        pred = tmp_path / "pred.csv"
        pred.write_text("s0,s1,truth\n0.9,0.1,0\n0.2,0.8,1\n0.6,0.4,1\n")
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 0
        plain = capsys.readouterr().out
        pred.write_text("s0,s1,truth\n0.9,0.1,0\n\n0.2,0.8,1\n \n0.6,0.4,1\n\n")
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 0
        assert capsys.readouterr().out == plain

    def test_synth_mixture_missing_key_is_named_error(self, tmp_path, capsys):
        from regroupbench.cli import main

        spec = tmp_path / "spec.json"
        comp = {"mean": [0.0], "stddev": 1.0, "count": 5}
        spec.write_text(json.dumps({"majority_components": [comp]}))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "missing key 'minority'" in err
        assert not (tmp_path / "x.csv").exists()

    def test_run_seed_override(self, tmp_path):
        from regroupbench.cli import main

        cfg = {
            "dataset": {"builtin": "rg-favorable"},
            "methods": [{"name": "CE"}],
            "seeds": [0, 1, 2],
            "hidden_dims": [],
            "train": {"epochs": 2},
            "output_dir": str(tmp_path / "o"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--seeds", "5"]) == 0
        lines = (tmp_path / "o" / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + one row
        assert lines[1].split(",")[1] == "5"


def test_results_csv_bytes_are_pinned(tmp_path, monkeypatch):
    """The results.csv bytes (wall_time_s blanked) of two grids. CE, SMOTE+CE
    and RG+CE on a 3-class CSV: SMOTE neighbours, multiclass k-means and
    training feed them. All eight methods on the overlap family: each one's
    loss, train-set transform and hyperparameters, and the config hash."""
    import hashlib

    from regroupbench.cli import main

    def digest(doc):
        Path("cfg.json").write_text(json.dumps({**doc, "output_dir": "out"}))
        assert main(["run", "--config", "cfg.json"]) == 0
        rows = [line.split(",") for line in Path("out/results.csv").read_text().splitlines()]
        for cells in rows[1:]:
            cells[-2] = ""  # wall_time_s
        return hashlib.sha256("\n".join(",".join(cells) for cells in rows).encode()).hexdigest()

    rng = np.random.default_rng(2024)
    lines = ["f0,f1,f2,f3,f4,f5,f6,f7,label"]
    for c, (count, blobs) in enumerate([(40, 1), (160, 2), (640, 4)]):
        centres = 1.5 * rng.standard_normal((blobs, 8))
        X = centres[rng.integers(blobs, size=count)] + rng.standard_normal((count, 8))
        lines += [",".join(map(repr, row.tolist())) + f",{'abc'[c]}" for row in X]
    monkeypatch.chdir(tmp_path)  # the config hash covers the CSV path
    Path("data.csv").write_text("\n".join(lines) + "\n")
    assert digest({
        "dataset": {"csv": "data.csv"},
        "methods": [{"name": "CE"}, {"name": "SMOTE+CE"}, {"name": "RG+CE"}],
        "seeds": [0, 1], "hidden_dims": [8], "train": {"epochs": 2},
    }) == "f2b2cf4d3022eeac05a9ba7cd08698588523dc2a881c664b4a89ea5cd5a01da0"
    assert digest({
        "dataset": {"builtin": "overlap"},
        "methods": [{"name": m} for m in ("CE", "WCE", "Focal", "LDAM", "ROS+CE", "RUS+CE",
                                          "SMOTE+CE", "RG+CE")],
        "seeds": [0, 1], "hidden_dims": [],
        "train": {"epochs": FAST.epochs, "batch_size": FAST.batch_size},
    }) == "b388b9d9376c07dd091b294798e0cc93f684b51653a517516cfee63b59499bdd"
