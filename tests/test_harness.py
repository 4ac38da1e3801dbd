import json
import os
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import regroupbench.harness as harness
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
        methods = ["CE", "WCE", "Focal", "LDAM", "ROS+CE", "SMOTE+CE", "RG+CE",
                   MethodKind("RG+CE", k_override=4)]
        for dataset, kwargs in (
            ({"builtin": "overlap"}, {}),
            (clamp_csv(tmp_path / "clamp.csv"), {"test_fraction": 0.25}),
        ):
            cfg = tiny_cfg(methods[:6] if "builtin" in dataset else methods[6:],
                           seeds=(0, 1, 2, 3, 4, 5), dataset=dataset, **kwargs)
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

        def spy(datasets, specs, loss, cfgs):
            stacks.append(sorted(spec.output_dim for spec in specs))
            return real_train(datasets, specs, loss, cfgs)

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


class TestParallelColumns:
    @pytest.mark.parametrize("case", ["clean", "failed cell", "diverged slice", "unreadable csv"])
    def test_pooled_rows_equal_serial_rows(self, tmp_path, monkeypatch, case):
        single = {"mixture": {"minority": {"mean": [0.0, 0.0], "stddev": 1.0, "count": 2},
                              "majority_components": [{"mean": [5.0, 0.0], "stddev": 1.0,
                                                       "count": 40}]}}
        cfg = {
            "clean": lambda: tiny_cfg(list(harness.METHOD_NAMES), seeds=(0, 1),
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
        monkeypatch.setattr(harness, "_prepare", raise_pid)
        rows, _ = run_grid(tiny_cfg(["CE", "WCE", "Focal"], seeds=(0, 1)))
        assert all(r.error.startswith("RuntimeError: pid ") for r in rows)
        assert f"RuntimeError: pid {os.getpid()}" not in {r.error for r in rows}

    def test_serial_without_blas_pin_or_with_one_column(self, monkeypatch):
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

    def test_column_weight_counts_fit_rows_and_layer_products(self):
        ds = load_source({"builtin": "overlap"}, 0)  # 100 minority, 900 majority rows
        cfg = replace(tiny_cfg(["CE"]), hidden_dims=(32,))
        weight = {m: harness._column_weight(cfg, MethodKind(m), ds) for m in harness.METHOD_NAMES}
        epochs, layers = FAST.epochs, 2 * 32 + 32 * 2
        assert weight["CE"] == weight["LDAM"] == epochs * 800 * layers
        assert weight["ROS+CE"] == weight["SMOTE+CE"] == epochs * 1440 * layers
        assert weight["RUS+CE"] == epochs * 160 * layers
        assert weight["RG+CE"] == epochs * 800 * (2 * 32 + 32 * 10)  # 1 + 9 heads


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
    """CE, SMOTE+CE and RG+CE on a 3-class CSV: SMOTE neighbours, multiclass
    k-means and training all feed these bytes (wall_time_s blanked)."""
    import hashlib

    from regroupbench.cli import main

    rng = np.random.default_rng(2024)
    lines = ["f0,f1,f2,f3,f4,f5,f6,f7,label"]
    for c, (count, blobs) in enumerate([(40, 1), (160, 2), (640, 4)]):
        centres = 1.5 * rng.standard_normal((blobs, 8))
        X = centres[rng.integers(blobs, size=count)] + rng.standard_normal((count, 8))
        lines += [",".join(map(repr, row.tolist())) + f",{'abc'[c]}" for row in X]
    monkeypatch.chdir(tmp_path)  # the config hash covers the CSV path
    Path("data.csv").write_text("\n".join(lines) + "\n")
    Path("cfg.json").write_text(json.dumps({
        "dataset": {"csv": "data.csv"},
        "methods": [{"name": "CE"}, {"name": "SMOTE+CE"}, {"name": "RG+CE"}],
        "seeds": [0, 1], "hidden_dims": [8], "train": {"epochs": 2}, "output_dir": "out",
    }))
    assert main(["run", "--config", "cfg.json"]) == 0
    rows = [line.split(",") for line in Path("out/results.csv").read_text().splitlines()]
    for cells in rows[1:]:
        cells[-2] = ""  # wall_time_s
    text = "\n".join(",".join(cells) for cells in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f2b2cf4d3022eeac05a9ba7cd08698588523dc2a881c664b4a89ea5cd5a01da0")
