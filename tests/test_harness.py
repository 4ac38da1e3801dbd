import ctypes
import json
import os
import threading
import warnings
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regroupbench.harness as harness
from regroupbench import trainer
from regroupbench.dataset import (
    Dataset,
    DatasetError,
    generate_imbalanced_mixture,
    save_csv_dataset,
    stratified_split,
)
from regroupbench.harness import (
    ExperimentConfig,
    HarnessError,
    MethodKind,
    aggregate,
    config_hash,
    load_config,
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


def test_regrouped_counted_losses_weigh_the_pseudo_classes(monkeypatch):
    monkeypatch.setitem(harness.METHODS, "RG+LDAM", ("ldam", "regroup", ("k_override",)))
    monkeypatch.setitem(harness.METHODS, "RG+WCE", ("wce", "regroup", ("k_override",)))
    cfg = tiny_cfg(["RG+LDAM", "RG+WCE"], seeds=(0, 1), dataset={"builtin": "overlap"})
    for method in cfg.methods:
        cell = harness._prepare(cfg, method, 0, *harness._split_sources(cfg, (0,))[0])
        assert cell.loss.class_counts == cell.fit_ds.class_counts and cell.k_groups > 1
    rows, _ = run_grid(cfg)
    assert [(r.method, r.error) for r in rows] == [(m, "") for m in ("RG+LDAM",) * 2
                                                   + ("RG+WCE",) * 2]


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
            assert agg.stats[0][0] == np.mean([r.ap_per_class[1] for r in cells])

    def test_minority_is_the_sources_smallest_class_not_the_train_splits(self, tmp_path):
        rng = np.random.default_rng(3)
        y = np.repeat([0, 1], (7, 6))
        save_csv_dataset(Dataset(rng.standard_normal((13, 2)) + y[:, None], y), tmp_path / "d.csv")
        cfg = tiny_cfg(["CE"], seeds=(0, 1), dataset={"csv": str(tmp_path / "d.csv")},
                       test_fraction=0.5)
        train_ds, test_ds = harness._split_sources(cfg, (0,))[0]
        assert train_ds.class_counts == (3, 3) and test_ds.class_counts == (4, 3)
        rows, (agg,) = run_grid(cfg)
        assert not any(r.error for r in rows)
        assert agg.stats[0][0] == np.mean([r.ap_per_class[1] for r in rows])

    @settings(max_examples=40, deadline=None)
    @given(counts=st.tuples(st.integers(2, 120), st.integers(2, 120)),
           k_override=st.none() | st.integers(1, 4), seed=st.integers(0, 100))
    def test_swapping_class_ids_keeps_k(self, counts, k_override, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((sum(counts), 2))
        y = np.repeat([0, 1], counts)
        method = MethodKind("RG+CE", k_override=k_override)
        cfg = tiny_cfg([method], test_fraction=0.25)
        splits = [stratified_split(Dataset(X, labels), cfg.test_fraction, seed)
                  for labels in (y, 1 - y)]
        k = [harness._prepare(cfg, method, seed, *split).k_groups for split in splits]
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
        assert aggs[0].stats[1][0] == pytest.approx(vals.mean(), abs=1e-12)
        assert aggs[0].stats[1][1] == pytest.approx(vals.std(), abs=1e-12)
        columns = [[r.ap_per_class[0] for r in rows], [r.macro_ap for r in rows],
                   [r.balanced_accuracy for r in rows], [r.accuracy for r in rows]]
        assert len(harness.SUMMARY_COLUMNS) == len(aggs[0].stats) == len(columns)
        assert aggs[0].stats == tuple((np.mean(c), np.std(c)) for c in columns)

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
        calls, stacks = [], []
        real_train, real_train_stack = harness.train, trainer._train_stack
        monkeypatch.setattr(harness, "train", lambda *args: calls.append(args) or real_train(*args))

        def spy(datasets, specs, seeds, loss, cfg):
            stacks.append(sorted(spec.output_dim for spec in specs))
            return real_train_stack(datasets, specs, seeds, loss, cfg)

        monkeypatch.setattr(trainer, "_train_stack", spy)
        cfg = tiny_cfg([MethodKind("RG+CE", k_override=4)], seeds=tuple(range(6)),
                       dataset=clamp_csv(tmp_path / "clamp.csv"), test_fraction=0.25)
        rows, _ = run_grid(cfg)
        assert all(r.error == "" for r in rows)
        # clamped seeds train 4 heads, the others 5: one call, two stacks covering all six
        assert len(calls) == 1 and sorted(stacks) == [[4, 4, 4], [5, 5, 5]]

    def test_k_is_the_majority_groups_each_cell_trained(self, tmp_path):
        method = MethodKind("RG+CE", k_override=4)
        cfg = tiny_cfg([method], seeds=tuple(range(6)),
                       dataset=clamp_csv(tmp_path / "clamp.csv"), test_fraction=0.25)
        rows, _ = run_grid(cfg)
        splits = harness._split_sources(cfg, cfg.seeds)
        heads = [harness._prepare(cfg, method, s, *splits[s]).spec.output_dim for s in cfg.seeds]
        # the minority keeps one head; a clamped seed trains 3 majority groups, not 4
        assert [r.k_groups for r in rows] == [h - 1 for h in heads]
        assert sorted(set(heads)) == [4, 5]

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


def worker_threads(cfg, method):
    """A pooled column's stand-in: its pid, OS threads and OpenBLAS threads, per seed."""
    get = ctypes.CDLL(harness._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return [(os.getpid(), len(os.listdir("/proc/self/task")), get())] * len(cfg.seeds)


def force_pool(monkeypatch):
    """Pool every grid with two or more methods, however little work it holds."""
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 0.0)


@st.composite
def small_grids(draw):
    """A grid of 1-8 distinct methods and 1-4 distinct seeds on either built-in family,
    trained for 1-3 epochs with one hidden layer of 8."""
    methods = draw(st.lists(st.sampled_from(list(harness.METHODS)), min_size=1, max_size=8,
                            unique=True))
    return ExperimentConfig(
        {"builtin": draw(st.sampled_from(sorted(harness.BUILTIN_FAMILIES)))},
        [{"name": m} for m in methods],
        draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True)),
        hidden_dims=(8,), train={"epochs": draw(st.integers(1, 3))})


def cell_rows(cfg, pooled):
    """run_grid's row of each (method, seed) cell, config_hash and wall_time_s blanked;
    `pooled` forces the fork pool on a grid of two or more methods."""
    with pytest.MonkeyPatch.context() as mp:
        if pooled:
            mp.setattr(harness, "_POOL_MIN_WORK", 0.0)
        rows, _ = run_grid(cfg)
    return {(r.method, r.seed): replace(r, config_hash="", wall_time_s=0.0) for r in rows}


@pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pooled"])
class TestGridProperties:
    """A cell's row depends only on its own method and seed: not on the other methods
    and seeds of its grid, nor on their order."""

    @settings(max_examples=12, deadline=None)
    @given(cfg=small_grids(), data=st.data())
    def test_method_subset_gives_its_rows_from_the_full_grid(self, pooled, cfg, data):
        methods = data.draw(st.lists(st.sampled_from(cfg.methods), min_size=1, unique=True))
        full = cell_rows(cfg, pooled)
        names = {m.name for m in methods}
        assert cell_rows(replace(cfg, methods=methods), pooled) == {
            cell: row for cell, row in full.items() if cell[0] in names}

    @settings(max_examples=12, deadline=None)
    @given(cfg=small_grids(), data=st.data())
    def test_seed_subset_gives_its_rows_from_the_full_grid(self, pooled, cfg, data):
        seeds = data.draw(st.lists(st.sampled_from(cfg.seeds), min_size=1, unique=True))
        full = cell_rows(cfg, pooled)
        assert cell_rows(replace(cfg, seeds=seeds), pooled) == {
            cell: row for cell, row in full.items() if cell[1] in seeds}

    @settings(max_examples=12, deadline=None)
    @given(cfg=small_grids(), data=st.data())
    def test_seed_order_leaves_each_seeds_rows(self, pooled, cfg, data):
        seeds = data.draw(st.permutations(cfg.seeds))
        assert cell_rows(replace(cfg, seeds=seeds), pooled) == cell_rows(cfg, pooled)


class TestCsvSourceProperties:
    """A CSV source gives the rows of the data it holds: not of how it got there, nor of
    the texts that name its classes."""

    @settings(max_examples=8, deadline=None)
    @given(cfg=small_grids(), data=st.data())
    def test_saved_builtin_draw_gives_the_builtin_rows(self, tmp_path_factory, cfg, data):
        seed = data.draw(st.sampled_from(cfg.seeds))
        cfg = replace(cfg, seeds=[seed])  # a synthetic source draws anew per seed
        path = tmp_path_factory.mktemp("draw") / "draw.csv"
        family = harness.BUILTIN_FAMILIES[cfg.dataset.builtin]
        save_csv_dataset(generate_imbalanced_mixture(family(seed)), path)
        assert cell_rows(replace(cfg, dataset={"csv": str(path)}), False) == cell_rows(cfg, False)

    @settings(max_examples=8, deadline=None)
    @given(cfg=small_grids(), names=st.permutations(["sick", "well", "ill", "fine"]))
    def test_renaming_text_labels_leaves_the_rows(self, tmp_path_factory, cfg, names):
        # text labels take class ids by first appearance, whatever they read; integer
        # labels 0..C-1 keep their values as ids, so swapping 0 and 1 is not a renaming
        ds = generate_imbalanced_mixture(harness.BUILTIN_FAMILIES[cfg.dataset.builtin]())
        work = tmp_path_factory.mktemp("labels")
        rows = []
        for pair in (("sick", "well"), tuple(names[:2])):
            path = work / f"{'-'.join(pair)}.csv"
            text = "".join(f"{x0!r},{x1!r},{pair[y]}\n"
                           for (x0, x1), y in zip(ds.features.tolist(), ds.labels))
            path.write_text("f0,f1,label\n" + text)
            rows.append(cell_rows(replace(cfg, dataset={"csv": str(path)}), False))
        assert rows[0] == rows[1]


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

    def test_a_seed_that_fails_mid_column_keeps_its_place(self, monkeypatch):
        real_prepare = harness._prepare

        def fail_seed_1(cfg, method, seed, train_ds, test_ds):
            if seed == 1:
                raise RuntimeError("seed 1 failed")
            return real_prepare(cfg, method, seed, train_ds, test_ds)

        def bits(rows):  # config_hash covers the seeds, so a (0, 2) grid hashes apart
            return [replace(r, wall_time_s=0.0, config_hash="") for r in rows]

        monkeypatch.setattr(harness, "_prepare", fail_seed_1)
        force_pool(monkeypatch)
        methods = ("CE", "LDAM", "RG+CE")
        cfg = tiny_cfg(methods, seeds=(0, 1, 2))
        pooled, pooled_aggs = run_grid(cfg)
        monkeypatch.setattr(harness, "_BLAS_PIN", "no_such_symbol")
        serial, serial_aggs = run_grid(cfg)
        assert bits(pooled) == bits(serial) and pooled_aggs == serial_aggs
        assert [(r.method, r.seed, r.error) for r in pooled] == [
            (m, s, "RuntimeError: seed 1 failed" if s == 1 else "") for m in methods
            for s in (0, 1, 2)]
        neighbours, _ = run_grid(replace(cfg, seeds=(0, 2)))
        assert [r for r in bits(pooled) if r.seed != 1] == bits(neighbours)

    @MULTI_CPU
    def test_columns_run_in_worker_processes(self, monkeypatch):
        force_pool(monkeypatch)
        monkeypatch.setattr(harness, "_prepare", raise_pid)
        rows, _ = run_grid(tiny_cfg(["CE", "WCE", "Focal"], seeds=(0, 1)))
        assert all(r.error.startswith("RuntimeError: pid ") for r in rows)
        assert f"RuntimeError: pid {os.getpid()}" not in {r.error for r in rows}

    @MULTI_CPU
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
    def test_pooled_columns_run_one_thread(self, monkeypatch):
        # a pin inside the worker would start an OpenBLAS server thread there
        force_pool(monkeypatch)
        monkeypatch.setattr(harness, "_worker_column", worker_threads)
        cfg = tiny_cfg(["CE", "WCE", "RG+CE"], seeds=(0, 1))
        columns = harness._run_columns(cfg, harness._split_sources(cfg, cfg.seeds))
        cells = [cell for column in columns for cell in column]
        assert len(cells) == 6 and os.getpid() not in {pid for pid, _, _ in cells}
        assert {(threads, blas) for _, threads, blas in cells} == {(1, 1)}

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

        def die_in_rg(cfg, method, seed, train_ds, test_ds):
            if method.name == "RG+CE":
                os._exit(3)
            return real_prepare(cfg, method, seed, train_ds, test_ds)

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
        train_ds, _ = harness._split_sources(cfg, cfg.seeds)[0]
        work = len(cfg.seeds) * sum(harness._column_weight(cfg, m, train_ds) for m in cfg.methods)
        assert work < harness._POOL_MIN_WORK  # a tiny grid runs in-process as it is
        monkeypatch.setattr(harness, "_POOL_MIN_WORK", work if pooled else work * (1 + 1e-9))
        monkeypatch.setattr(harness, "_prepare", raise_pid)
        rows, _ = run_grid(cfg)
        here = f"RuntimeError: pid {os.getpid()}"
        assert all(r.error.startswith("RuntimeError: pid ") for r in rows)
        assert ({r.error for r in rows} == {here}) != pooled

    def test_work_floor_keeps_one_epoch_grids_in_process(self):
        # all 8 methods on rg-favorable, hidden [32]: 1 epoch stays in-process, 16 pool
        cfg = replace(tiny_cfg(list(harness.METHODS)), hidden_dims=(32,))
        train_ds, _ = harness._split_sources(cfg, cfg.seeds)[0]
        work = sum(harness._column_weight(cfg, m, train_ds) for m in cfg.methods)
        assert work / FAST.epochs < harness._POOL_MIN_WORK < 16 * work / FAST.epochs

    @pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=MULTI_CPU)])
    def test_each_seed_is_split_and_standardized_once(self, monkeypatch, pooled):
        calls = []

        def count(name):
            real = getattr(harness, name)

            def counted(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(harness, name, counted)

        count("stratified_split")
        count("standardize")
        if pooled:
            force_pool(monkeypatch)
        rows, _ = run_grid(tiny_cfg(["CE", "WCE", "RG+CE"], seeds=(0, 1)))
        assert len(rows) == 6 and not any(r.error for r in rows)
        assert sorted(calls) == ["standardize"] * 2 + ["stratified_split"] * 2

    def test_column_weight_counts_fit_rows_and_layer_products(self):
        cfg = replace(tiny_cfg(["CE"], dataset={"builtin": "overlap"}), hidden_dims=(32,))
        ds, _ = harness._split_sources(cfg, (0,))[0]  # 80 minority, 720 majority rows
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
        cfg = tiny_cfg([method], dataset=source)
        assert harness._column_weight(cfg, method, harness._split_sources(cfg, (0,))[0][0]) > 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": source, "methods": [{"name": "CE"}, {"name": "RG+CE", "k_override": 7}],
            "seeds": [0, 1], "hidden_dims": [], "train": {"epochs": 1},
            "output_dir": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        rows = [line.split(",") for line in
                (tmp_path / "o" / "results.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[6], r[-1]) for r in rows] == [("CE", "", "")] * 2 + [
            ("RG+CE", "", "RegroupError: k_override needs 2 classes; got 3")] * 2
        err = capsys.readouterr().err
        assert "FAILED RG+CE seed=1: RegroupError: k_override needs 2 classes, got 3" in err


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

        def spy(datasets, weights, biases, epoch, rows):
            calls.append((epoch, list(rows)))
            return real_full_pass(datasets, weights, biases, epoch, rows)

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


MIXTURE_SETTING = {  # a config whose source is an inline two-component mixture
    "dataset": {"mixture": {
        "minority": {"mean": [0.0, 0.5], "stddev": 0.7, "count": 30},
        "majority_components": [{"mean": [2.0, 0.0], "stddev": 0.5, "count": 60},
                                {"mean": [-2.0, 1.0], "stddev": 0.9, "count": 90}],
        "seed": 3}},
    "methods": [{"name": "CE"}],
    "seeds": [0],
}


def json_paths(doc, path=()):
    """The path to every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


ODD_VALUES = [None, True, False, 0, 1, -1, 2.0, 0.5, "x", "1", [], [1], {}, {"a": 1}, float("nan")]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def source_spellings(draw):
    """A source with its defaults left out, and the same source with some of them drawn
    written out: label_column as "label" or null, a mixture's seed as 0, a float mean entry
    or stddev as its integer twin."""
    if draw(st.booleans()):
        written = draw(st.sampled_from([{}, {"label_column": "label"}, {"label_column": None}]))
        return {"csv": "d.csv"}, {"csv": "d.csv", **written}

    def number(value):
        return draw(st.sampled_from([value, float(value)]))

    left_out, written = [], []
    for _ in range(draw(st.integers(2, 3))):  # the minority, then 1-2 majority components
        mean = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
        stddev, count = draw(st.integers(1, 3)), draw(st.integers(1, 9))
        left_out.append({"mean": [float(m) for m in mean], "stddev": float(stddev),
                         "count": count})
        written.append({"mean": [number(m) for m in mean], "stddev": number(stddev),
                        "count": count})
    seed = draw(st.sampled_from([{}, {"seed": 0}]))
    return ({"mixture": {"minority": left_out[0], "majority_components": left_out[1:]}},
            {"mixture": {"minority": written[0], "majority_components": written[1:], **seed}})


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

    @settings(max_examples=700, deadline=None)
    @given(mutated=st.sampled_from(  # every path of EVERY_SETTING and of MIXTURE_SETTING's source
        [(EVERY_SETTING, p) for p in json_paths(EVERY_SETTING)]
        + [(MIXTURE_SETTING, p) for p in json_paths(MIXTURE_SETTING) if p[0] == "dataset"]),
           value=st.sampled_from(ODD_VALUES) | JSON_VALUES)
    def test_every_single_value_mutation_loads_or_names_its_key(self, tmp_path_factory, mutated,
                                                                value):
        setting, path = mutated
        doc = json.loads(json.dumps(setting))
        *parents, key = path
        owner = doc
        for k in parents:
            owner = owner[k]
        owner[key] = value
        name = next(k for k in reversed(path) if isinstance(k, str))
        # a method's name is named by "method" ("unknown method 'x'"), a repeated seed by "seed"
        names = {name, {"name": "method", "seeds": "seed"}.get(name, name)}
        try:
            load_config(write_config(tmp_path_factory.getbasetemp() / "mutated.json", doc))
        except HarnessError as exc:
            assert any(n in str(exc) for n in names), (path, value, str(exc))
        else:  # only standardize takes true or false
            assert not isinstance(value, bool) or path == ("standardize",), path

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
        with pytest.raises(HarnessError, match=r"dataset has unknown keys \['parquet'\]"):
            tiny_cfg(["CE"], dataset={"parquet": "x"})  # at construction, as from a file
        with pytest.raises(HarnessError, match="takes one of csv, builtin or mixture, got none"):
            harness.Source()
        with pytest.raises(HarnessError, match="got csv, builtin"):
            harness.Source(csv="d.csv", builtin="overlap")
        with pytest.raises(HarnessError, match="unknown builtin family 'nope'"):
            tiny_cfg(["CE"], dataset={"builtin": "nope"})
        with pytest.raises(HarnessError, match=r"builtin must be a text, got \['overlap'\]"):
            tiny_cfg(["CE"], dataset={"builtin": ["overlap"]})
        with pytest.raises(HarnessError, match="csv must be a text, got 5"):
            harness.Source(csv=5)
        with pytest.raises(HarnessError, match="label_column index must be >= 0, got -1"):
            harness.Source(csv="d.csv", label_column=-1)
        with pytest.raises(HarnessError, match="label_column only beside csv, not builtin"):
            harness.Source(builtin="overlap", label_column="label")
        assert harness.Source(csv="d.csv", label_column=0).mixture_spec() is None
        assert harness.Source(builtin="overlap").mixture_spec() == harness.overlap_mixture()

    @pytest.mark.parametrize("source", [{}, {"label_column": "y"}, {"label_column": 0}])
    def test_csv_source_reads_its_label_column(self, tmp_path, source):
        header = "label,f0,f1" if not source else "y,f0,f1"
        rows = [f"{int(i < 5)},{i}.0,{i % 3}.0" for i in range(20)]
        (tmp_path / "d.csv").write_text("\n".join([header, *rows]) + "\n")
        cfg = tiny_cfg(["CE"], dataset={"csv": str(tmp_path / "d.csv"), **source},
                       standardize=False)
        train_ds, test_ds = harness._split_sources(cfg, cfg.seeds)[0]
        assert np.add(train_ds.class_counts, test_ds.class_counts).tolist() == [15, 5]

    def test_plain_dicts_build_the_same_config(self):
        written = ExperimentConfig({"builtin": "overlap"}, [{"name": "Focal", "gamma": 1.0}],
                                   [0], train={"epochs": 3})
        built = ExperimentConfig(harness.Source(builtin="overlap"),
                                 (MethodKind("Focal", gamma=1.0),), (0,),
                                 train=TrainConfig(epochs=3))
        assert built == written and config_hash(built) == config_hash(written)
        rows = [[replace(r, wall_time_s=0.0) for r in run_grid(c)[0]] for c in (built, written)]
        assert rows[0] == rows[1] and not rows[0][0].error

    @settings(max_examples=60, deadline=None)
    @given(spellings=source_spellings())
    def test_a_source_default_written_out_hashes_as_left_out(self, spellings):
        left_out, written = (ExperimentConfig(s, [{"name": "CE"}], [0]) for s in spellings)
        assert left_out == written and config_hash(left_out) == config_hash(written)

    def test_hash_sensitive_to_config(self):
        a = tiny_cfg(["CE"])
        b = tiny_cfg(["CE"], test_fraction=0.3)
        assert config_hash(a) != config_hash(b)
        c, d, e = (tiny_cfg(["CE"], dataset={"csv": "d.csv", **source})
                   for source in ({}, {"label_column": "y"}, {"label_column": 0}))
        assert len({config_hash(cfg) for cfg in (a, c, d, e)}) == 4

    def test_float_field_written_as_an_integer_hashes_as_its_float_twin(self):
        def chash(gamma, lr_max):
            cfg = ExperimentConfig({"builtin": "overlap"}, [{"name": "Focal", "gamma": gamma}],
                                   [0], train={"lr_max": lr_max})
            assert type(cfg.methods[0].gamma) is type(cfg.train.lr_max) is float
            return config_hash(cfg)

        assert chash(2, 0.01) == chash(2.0, 0.01) != chash(1.0, 0.01)
        assert chash(2.0, 1) == chash(2.0, 1.0) != chash(2.0, 0.01)

    def test_seed_offsets_synthetic_draw(self):
        cfg = tiny_cfg(["CE"], seeds=(0, 1), standardize=False)
        drawn = []
        for seed, (train_ds, test_ds) in harness._split_sources(cfg, cfg.seeds).items():
            rows = np.sort(np.vstack([train_ds.features, test_ds.features]), axis=0)
            own = generate_imbalanced_mixture(harness.rg_favorable_mixture(seed))
            assert np.array_equal(rows, np.sort(own.features, axis=0))
            drawn.append(rows)
        assert not np.array_equal(*drawn)


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

    @pytest.mark.parametrize("doc", [
        {"builtin": "overlap", "seed": -3},
        {"minority": {"mean": [0.0], "stddev": 1.0, "count": 5},
         "majority_components": [{"mean": [1.0], "stddev": 1.0, "count": 9}], "seed": -3},
    ])
    def test_synth_negative_seed_is_named_error(self, tmp_path, capsys, doc):
        from regroupbench.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "seed must be >= 0, got -3" in err
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
            (b"s0,s1,truth\n0.9,0.1,0\n0.2,caf\xe9,1\n", "line 3: not UTF-8"),  # Latin-1
            ("s0,truth\n0.9,0\n0.2,1\n", "need at least 2 score columns, got 1"),
            ("s0,truth\n0.9,0\n0.2,0\n", "need at least 2 score columns, got 1"),  # every label 0
            ("s0,s1,truth\n0.9,inf,0\n0.2,0.8,1\n", "non-finite scores"),
            ("s0,s1,s2,truth\n0.9,0.1,nan,0\n0.2,0.8,0,1\n", "non-finite scores"),  # class 2 absent
        ],
    )
    def test_metrics_bad_prediction_csv_is_named_error(self, tmp_path, capsys, text, problem):
        from regroupbench.cli import main

        pred = tmp_path / "pred.csv"
        pred.write_bytes(text) if isinstance(text, bytes) else pred.write_text(text)
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith(f"prediction CSV {pred}") and problem in captured.err

    @pytest.mark.parametrize(
        "change,problem",
        [
            ({"methods": [{"name": "CE", "gama": 1.0}]}, "methods entry has unknown keys ['gama']"),
            ({"train": {"epochs": 0}}, "epochs and batch_size must be >= 1"),
            ({"methods": None}, "missing key 'methods'"),
            ({"dataset": {"builtin": "nope"}}, "unknown builtin family 'nope'"),
            ({"dataset": {"mixture": {"majority_components": []}}}, "missing key 'minority'"),
            ({"dataset": {"parquet": "x"}}, "dataset has unknown keys ['parquet']"),
            ({"hiden_dims": [8]}, "unknown keys ['hiden_dims']"),
            ({"seeds": ["a"]}, "seeds entry must be an integer, got 'a'"),
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
            ({"seeds": [0.5]}, "seeds entry must be an integer, got 0.5"),
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
            ({"dataset": {"csv": "d.csv", "label_col": "y"}},
             "dataset has unknown keys ['label_col']"),
            ({"dataset": {"builtin": "overlap", "label_column": "y"}},
             "label_column only beside csv"),
            ({"dataset": {"builtin": "overlap", "csv": "d.csv"}},
             "takes one of csv, builtin or mixture"),
            ({"dataset": "d.csv"}, "dataset must be an object, got 'd.csv'"),
            ({"seeds": [True]}, "seeds entry must be an integer, got True"),
            ({"seeds": ["1"]}, "seeds entry must be an integer, got '1'"),
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
            ({"seeds": [3, 3]}, "seed 3 is listed more than once"),
            ({"seeds": [0, -1]}, "seeds must be >= 0, got -1"),
            ({"dataset": {"mixture": {"minority": {"mean": [0.0], "stddev": 1.0, "count": 20},
                                      "majority_components": [
                                          {"mean": [1.0], "stddev": 1.0, "count": 50}],
                                      "seed": -5}}},
             "seed must be >= 0, got -5"),
            ({"dataset": {"csv": "d.csv", "label_column": True}},
             "label_column must be a column name or index, got True"),
            ({"dataset": {"csv": "d.csv", "label_column": 1.0}},
             "label_column must be a column name or index, got 1.0"),
            ({"dataset": {"csv": "d.csv", "label_column": -1}},
             "label_column index must be >= 0, got -1"),
            ({"dataset": {"csv": 5}}, "csv must be a text, got 5"),
            ({"dataset": {"csv": ["d.csv"]}}, "csv must be a text, got ['d.csv']"),
            ({"output_dir": 5}, "output_dir must be a text, got 5"),
            ({"output_dir": ["o"]}, "output_dir must be a text, got ['o']"),
            ({"methods": "CE"}, "methods must be a list of objects, got 'CE'"),
            ({"methods": [["CE"]]}, "methods entry must be an object, got ['CE']"),
            ({"methods": {"name": "CE"}}, "methods must be a list of objects, got {'name': 'CE'}"),
            ({"methods": [{"gamma": 1.0}]}, "methods entry is missing key 'name'"),
            ({"train": []}, "train must be an object, got []"),
            ({"train": {"lr": 0.1}}, "train has unknown keys ['lr']"),
            ({"methods": [{"name": []}]}, "name must be a text, got []"),
            ({"methods": [{"name": "Focal", "gamma": True}]}, "gamma must be a number, got True"),
            ({"methods": [{"name": "Focal", "gamma": "x"}]}, "gamma must be a number, got 'x'"),
            ({"train": {"epochs": 1, "lr_max": True}}, "lr_max must be a number, got True"),
            ({"train": {"epochs": 1, "momentum": True}}, "momentum must be a number, got True"),
            ({"train": {"epochs": 1, "momentum": "a"}}, "momentum must be a number, got 'a'"),
            ({"methods": [{"name": "Focal", "gamma": 10**400}]}, "gamma must be a number, got 1000"),
            ({"methods": []}, "need at least one entry in methods and in seeds"),
            ({"train": {"epochs": 1, "lr_max": 1e999}},
             "lr_max, momentum and weight_decay must be finite"),
            ({"train": {"epochs": 1, "lr_max": 1e999, "lr_min": 1e999}},
             "lr_max, momentum and weight_decay must be finite"),
            ({"dataset": {"mixture": {"minority": {"mean": [], "stddev": 1.0, "count": 5},
                                      "majority_components": [
                                          {"mean": [], "stddev": 1.0, "count": 9}]}}},
             "component mean must be finite and nonempty, got []"),
            ({"dataset": {"mixture": {"minority": {"mean": [0.0], "stddev": 1.0, "count": 5},
                                      "majority_components": [
                                          {"mean": [float("nan")], "stddev": 1.0, "count": 9}]}}},
             "component mean must be finite and nonempty, got [nan]"),
            ({"dataset": {"mixture": {"minority": {"mean": [0.0], "stddev": 1.0, "count": 5},
                                      "majority_components": [
                                          {"mean": [1e999], "stddev": 1.0, "count": 9}]}}},
             "component mean must be finite and nonempty, got [inf]"),
            ({"dataset": {"mixture": {"minority": {"mean": [0.0], "stddev": 1e999, "count": 5},
                                      "majority_components": [
                                          {"mean": [1.0], "stddev": 1.0, "count": 9}]}}},
             "component stddev must be finite and > 0, got inf"),
            ({"dataset": {"mixture": {"minority": {"mean": [0.0], "stddev": 1.0, "count": 5},
                                      "majority_components": [
                                          {"mean": [1.0], "stddev": float("nan"), "count": 9}]}}},
             "component stddev must be finite and > 0, got nan"),
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

    @pytest.mark.parametrize("command,path,owner", [
        pytest.param("run", (), "config", id="config"),
        pytest.param("run", ("methods", 0), "methods entry", id="methods-entry"),
        pytest.param("run", ("train",), "train", id="train"),
        pytest.param("run", ("dataset",), "dataset", id="dataset"),
        pytest.param("run", ("dataset", "mixture"), "mixture", id="mixture"),
        pytest.param("run", ("dataset", "mixture", "minority"), "minority", id="minority"),
        pytest.param("run", ("dataset", "mixture", "majority_components", 1),
                     "majority_components entry", id="majority-component"),
        pytest.param("synth-builtin", (), "spec", id="synth-builtin-spec"),
        pytest.param("synth-mixture", (), "spec", id="synth-mixture-spec"),
    ])
    def test_stray_key_is_named_with_its_object(self, tmp_path, capsys, command, path, owner):
        from regroupbench.cli import main

        doc = json.loads(json.dumps({
            "run": {**MIXTURE_SETTING, "train": {"epochs": 1}, "output_dir": str(tmp_path / "o")},
            "synth-builtin": {"builtin": "overlap", "seed": 3},
            "synth-mixture": MIXTURE_SETTING["dataset"]["mixture"],
        }[command]))
        owner_doc = doc
        for k in path:
            owner_doc = owner_doc[k]
        owner_doc["stray"] = 1
        spec = tmp_path / "doc.json"
        spec.write_text(json.dumps(doc))
        argv = (["run", "--config", str(spec)] if command == "run"
                else ["synth", "--spec", str(spec), "--out", str(tmp_path / "x.csv")])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
        assert f"{owner} has unknown keys ['stray']" in captured.err
        assert not (tmp_path / "o").exists() and not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("components,problem", [
        ([{"mean": [], "stddev": 1.0, "count": 5}] * 2,
         "component mean must be finite and nonempty, got []"),
        ([{"mean": [0.0], "stddev": float("nan"), "count": 5},
          {"mean": [1.0], "stddev": 1.0, "count": 9}],
         "component stddev must be finite and > 0, got nan"),
        # finite, but the draw overflows: the dataset's own check names the row
        ([{"mean": [1e308], "stddev": 1e308, "count": 50}] * 2, "non-finite feature value at row"),
        # 1.39 EiB: past any 64-bit address space, so numpy refuses it without touching memory
        ([{"mean": [0.0, 0.0], "stddev": 1.0, "count": 10**17},
          {"mean": [1.0, 1.0], "stddev": 1.0, "count": 9}], "Unable to allocate 1.39 EiB"),
    ])
    def test_synth_spec_that_cannot_be_drawn_is_named_error(self, tmp_path, capsys,
                                                            components, problem):
        from regroupbench.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"minority": components[0],
                                    "majority_components": components[1:]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would be a second line
            assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"spec {spec}: ") and problem in err
        assert len(err.strip().splitlines()) == 1 and not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("source,problem", [
        # finite, but the draw overflows: a mixture is drawn per seed, after the config check
        ({"mixture": {"minority": {"mean": [1e308], "stddev": 1e308, "count": 50},
                      "majority_components": [{"mean": [0.0], "stddev": 1.0, "count": 90}]}},
         "DatasetError: non-finite feature value"),
        ({"csv": "latin1.csv"}, "DatasetError: latin1.csv, line 3: not UTF-8"),
    ])
    def test_run_source_that_cannot_be_read_fails_every_cell(self, tmp_path, capsys, monkeypatch,
                                                              source, problem):
        from regroupbench.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin1.csv").write_bytes(b"f0,label\n0.5,0\n0.7,caf\xe9\n")
        (tmp_path / "cfg.json").write_text(json.dumps({
            "dataset": source, "methods": [{"name": "CE"}], "seeds": [0, 1],
            "hidden_dims": [], "train": {"epochs": 1}, "output_dir": "o"}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would be the rows' error
            assert main(["run", "--config", "cfg.json"]) == 1
        rows = [line.split(",") for line in
                (tmp_path / "o" / "results.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2 and all(r[-1].startswith(problem.replace(",", ";")) for r in rows)
        err = capsys.readouterr().err.splitlines()  # no numpy warning line besides the rows
        assert len(err) == 2 and all(line.startswith(f"FAILED CE seed={s}: {problem}")
                                     for s, line in zip((0, 1), err))

    def test_synth_spec_that_is_no_object_is_named_error(self, tmp_path, capsys):
        from regroupbench.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text("5")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"spec {spec}: spec must be an object, got 5\n"

    @pytest.mark.parametrize("out", ["file", "file/o"])
    def test_run_output_dir_that_cannot_be_made_fails_before_the_grid(self, tmp_path, capsys,
                                                                      monkeypatch, out):
        from regroupbench import cli

        (tmp_path / "file").write_text("")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": {"builtin": "rg-favorable"},
                                        "methods": [{"name": "CE"}], "seeds": [0]}))
        monkeypatch.setattr(cli, "run_grid", lambda cfg: pytest.fail("the grid ran"))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith(f"output_dir {tmp_path / out}: ")

    def test_run_empty_out_writes_to_the_working_directory(self, tmp_path, monkeypatch):
        from regroupbench.cli import main

        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({
            "dataset": {"builtin": "rg-favorable"}, "methods": [{"name": "CE"}], "seeds": [0],
            "hidden_dims": [], "train": {"epochs": 1}, "output_dir": "cfgout"}))
        assert main(["run", "--config", "cfg.json", "--out", ""]) == 0
        assert Path("results.csv").is_file() and not Path("cfgout").exists()

    def test_run_results_that_cannot_be_written_are_named_error(self, tmp_path, capsys):
        from regroupbench.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"builtin": "rg-favorable"}, "methods": [{"name": "CE"}], "seeds": [0],
            "hidden_dims": [], "train": {"epochs": 1}}))
        (tmp_path / "o" / "results.csv").mkdir(parents=True)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot write {tmp_path / 'o' / 'results.csv'}: Is a directory\n"

    def test_paper_recipe_replaces_the_whole_train_object(self, tmp_path):
        from regroupbench.cli import main

        def results(name, train, *flags):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps({
                "dataset": {"builtin": "rg-favorable"}, "methods": [{"name": "CE"},
                {"name": "RG+CE"}], "seeds": [0], "hidden_dims": [8], "train": train}))
            out = tmp_path / name
            assert main(["run", "--config", str(cfg_path), "--out", str(out), *flags]) == 0
            return strip_timing((out / "results.csv").read_text())

        # the config's momentum is dropped: FULL_RECIPE leaves it at its default
        assert results("recipe", {"momentum": 0.5}, "--paper-recipe") == results(
            "written", {"lr_max": 0.01, "epochs": 300, "batch_size": 256})

    def test_synth_out_in_a_missing_directory_is_named_error(self, tmp_path, capsys):
        from regroupbench.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"builtin": "overlap"}))
        out = tmp_path / "nope" / "x.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"out {out}: No such file or directory\n"

    def test_run_missing_config_file_is_named_error(self, tmp_path, capsys):
        from regroupbench.cli import main

        path = tmp_path / "nope.json"
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"config {path}: cannot read config") and "No such file" in err

    @pytest.mark.parametrize("seeds", ["1,,2", "1,x", ",", "", "3,3", "2,-1"])
    def test_run_bad_seed_override_is_named_error(self, tmp_path, capsys, seeds):
        from regroupbench.cli import main

        problem = {"3,3": "seed 3 is listed more than once",
                   "2,-1": "seeds must be >= 0, got -1"}.get(seeds, "seeds must be integers")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": {"builtin": "rg-favorable"},
                                        "methods": [{"name": "CE"}], "seeds": [0]}))
        assert main(["run", "--config", str(cfg_path), "--seeds", seeds]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and problem in err

    def test_metrics_on_a_cells_scores_reproduces_its_row(self, tmp_path, monkeypatch, capsys):
        """`regroupbench metrics` on a cell's test truth and collapsed scores, written at
        17 significant digits, scores as the grid did: the AP fields bit for bit for every
        method, accuracy and balanced accuracy for every method but RG+CE, which predicts
        by the argmax over pseudo-classes instead."""
        from regroupbench.cli import main

        cell, scored = [], {}
        real_evaluate, real_ap = harness._evaluate, harness.per_class_ap

        def evaluate(method, c, *args):
            cell[:] = [(method.name, c.seed)]
            return real_evaluate(method, c, *args)

        def per_class_ap(y_true, scores):
            scored[cell[0]] = y_true, scores
            return real_ap(y_true, scores)

        monkeypatch.setattr(harness, "_POOL_MIN_WORK", float("inf"))  # the spies see every cell
        monkeypatch.setattr(harness, "_evaluate", evaluate)
        monkeypatch.setattr(harness, "per_class_ap", per_class_ap)
        rows, _ = run_grid(tiny_cfg(list(harness.METHODS), seeds=(0, 1),
                                    dataset={"builtin": "overlap"}))
        assert not any(r.error for r in rows)
        assert sorted((r.method, r.seed) for r in rows) == sorted(scored) and len(rows) == 16
        pred = tmp_path / "pred.csv"
        for row in rows:
            y, scores = scored[row.method, row.seed]
            C = scores.shape[1]
            np.savetxt(pred, np.c_[scores, y], fmt=["%.17g"] * C + ["%d"], delimiter=",",
                       header=",".join([f"s{c}" for c in range(C)] + ["truth"]), comments="")
            assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert (doc["ap_per_class"], doc["macro_ap"]) == (list(row.ap_per_class), row.macro_ap)
            if row.method != "RG+CE":
                assert (doc["accuracy"], doc["balanced_accuracy"]) == (row.accuracy,
                                                                       row.balanced_accuracy)

    def test_metrics_missing_file_is_named_error(self, tmp_path, capsys):
        from regroupbench.cli import main

        pred = tmp_path / "nope.csv"
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"prediction CSV {pred}: no such file"

    def test_metrics_directory_is_named_error(self, tmp_path, capsys):
        from regroupbench.cli import main

        assert main(["metrics", "--pred", str(tmp_path), "--truth-col", "truth"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"prediction CSV {tmp_path}: not a regular file"

    def test_metrics_skips_blank_lines(self, tmp_path, capsys):
        from regroupbench.cli import main

        pred = tmp_path / "pred.csv"
        pred.write_text("s0,s1,truth\n0.9,0.1,0\n0.2,0.8,1\n0.6,0.4,1\n")
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 0
        plain = capsys.readouterr().out
        pred.write_text("s0,s1,truth\n0.9,0.1,0\n\n0.2,0.8,1\n \n0.6,0.4,1\n\n")
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 0
        assert capsys.readouterr().out == plain

    def test_metrics_skips_a_byte_order_mark(self, tmp_path, capsys):
        from regroupbench.cli import main

        pred = tmp_path / "pred.csv"
        pred.write_text("truth,s0,s1\n0,0.9,0.1\n1,0.2,0.8\n")
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 0
        plain = capsys.readouterr().out
        pred.write_bytes(b"\xef\xbb\xbftruth,s0,s1\n0,0.9,0.1\n1,0.2,0.8\n")  # Excel's CSV UTF-8
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 0
        assert capsys.readouterr().out == plain

    def test_metrics_names_an_absent_class_in_one_line(self, tmp_path, capsys):
        from regroupbench.cli import main

        pred = tmp_path / "pred.csv"
        pred.write_text("s0,s1,s2,truth\n0.9,0.1,0,0\n0.2,0.8,0,1\n")
        assert main(["metrics", "--pred", str(pred), "--truth-col", "truth"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (f"prediction CSV {pred}: class 2 absent from y_true; "
                                "AP undefined, excluded from macro\n")
        doc = json.loads(captured.out)
        assert doc["ap_per_class"] == [1.0, 1.0, None] and doc["macro_ap"] == 1.0

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
    """The results.csv bytes (wall_time_s blanked) and the summary.txt bytes
    of two grids. CE, SMOTE+CE and RG+CE on a 3-class CSV: SMOTE neighbours,
    multiclass k-means and training feed them. All eight methods on the
    overlap family: each one's loss, train-set transform and hyperparameters,
    and the config hash."""
    import hashlib

    from regroupbench.cli import main

    def digest(doc):
        Path("cfg.json").write_text(json.dumps({**doc, "output_dir": "out"}))
        assert main(["run", "--config", "cfg.json"]) == 0
        rows = [line.split(",") for line in Path("out/results.csv").read_text().splitlines()]
        for cells in rows[1:]:
            cells[-2] = ""  # wall_time_s
        return (hashlib.sha256("\n".join(",".join(cells) for cells in rows).encode()).hexdigest(),
                hashlib.sha256(Path("out/summary.txt").read_bytes()).hexdigest())

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
    }) == ("f2b2cf4d3022eeac05a9ba7cd08698588523dc2a881c664b4a89ea5cd5a01da0",
           "706a661bd9c0595b78a871e628af7a51ce9b3745ed577ac1c0a94d562f75ad66")
    assert digest({
        "dataset": {"builtin": "overlap"},
        "methods": [{"name": m} for m in ("CE", "WCE", "Focal", "LDAM", "ROS+CE", "RUS+CE",
                                          "SMOTE+CE", "RG+CE")],
        "seeds": [0, 1], "hidden_dims": [],
        "train": {"epochs": FAST.epochs, "batch_size": FAST.batch_size},
    }) == ("04dc9cadfb69348ba4ef11f22d77d564080390cccfc9b9e7505d2bacecca0836",
           "fbf326697e22bbc08671250970a3df4edbe061ef8d9c419d62830d22ce983408")
