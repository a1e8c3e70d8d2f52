import concurrent.futures
import datetime as dt
import math
import multiprocessing
import os

import numpy as np
import pytest

from conftest import planted_signal_data
from vollab.errors import ReadError, ReportError, VollabError
from vollab.features import SEQ_LEN, log_diff
from vollab import grids, walkforward
from vollab.grids import enumerate_grid, forecast
from vollab.walkforward import (
    MIN_VALIDATION_SEED,
    BatchTask,
    ForecastRecord,
    build_tasks,
    derive_seed,
    read_records_csv,
    run_batch,
    run_experiment,
    validate_params,
    write_records_csv,
)


class TestDeriveSeed:
    def test_deterministic_and_order_free(self):
        assert derive_seed(7, "svr", 63, "2020-01-01") == derive_seed(7, "svr", 63, "2020-01-01")

    def test_context_changes_seed(self):
        seeds = {
            derive_seed(7, "svr", 63, "2020-01-01"),
            derive_seed(7, "svr", 63, "2020-01-02"),
            derive_seed(7, "gbdt", 63, "2020-01-01"),
            derive_seed(8, "svr", 63, "2020-01-01"),
        }
        assert len(seeds) == 4

    def test_fits_in_63_bits(self):
        for i in range(50):
            assert 0 <= derive_seed(i, "x") < 2 ** 63


class TestBuildTasks:
    def test_batch_geometry(self):
        data = planted_signal_data(n=120)
        tasks = build_tasks(data, "naive", window=63, horizon=5, s=5, root_seed=0)
        assert len(tasks) == 5
        diffs = log_diff(data.levels)
        for task in tasks:
            t = data.dates.index(task.test_date)
            assert len(task.batch) == 63
            # every batch target is dated strictly before the test date
            assert max(task.batch.target_dates) < task.test_date
            assert max(task.batch.target_dates) == data.dates[t - 1]
            # prediction input is the feature window ending one day before
            np.testing.assert_array_equal(
                task.predict_block, data.features.values[t - SEQ_LEN: t]
            )
            assert task.actual_logdiff == diffs[t - 1]
            assert task.prev_level == data.levels[t - 1]
            assert task.actual_level == data.levels[t]

    def test_consecutive_dates_covered(self):
        data = planted_signal_data(n=120)
        tasks = build_tasks(data, "naive", window=63, horizon=4, s=5, root_seed=0)
        assert [t.test_date for t in tasks] == list(data.dates[-4:])

    def test_too_little_history_rejected(self):
        data = planted_signal_data(n=80)
        with pytest.raises(VollabError, match="at least"):
            build_tasks(data, "naive", window=80, horizon=5, s=5, root_seed=0)

    def test_distinct_task_seeds(self):
        data = planted_signal_data(n=120)
        tasks = build_tasks(data, "svr", window=63, horizon=5, s=5, root_seed=3)
        assert len({t.seed for t in tasks}) == 5


def state_major_validation(batch, kind, grid, seed, options=None):
    """The validation sweep as one forecast call per state and step."""
    maes = []
    for state in grid:
        errors = []
        for v in range(MIN_VALIDATION_SEED, len(batch)):
            [[(pred, _)]] = forecast(kind, [(batch.slice(0, v), derive_seed(seed, "val", v),
                                             batch.blocks[v])], options, [state])
            errors.append(abs(pred - batch.targets[v]))
        maes.append(float(np.mean(errors)))
    return maes


class TestValidateParams:
    def test_expanding_schedule_error_count(self):
        data = planted_signal_data(n=120)
        tasks = build_tasks(data, "svr", window=63, horizon=1, s=5, root_seed=0)
        batch = tasks[0].batch
        grid = enumerate_grid("svr")[:1]
        # one error per step from MIN_VALIDATION_SEED to len(batch)-1
        [mae] = validate_params(batch, "svr", grid, seed=1)
        assert math.isfinite(mae) and mae >= 0
        assert len(batch) - MIN_VALIDATION_SEED == 53

    def test_naive_validation_is_mean_abs_target(self):
        data = planted_signal_data(n=120)
        batch = build_tasks(data, "naive", window=63, horizon=1, s=5, root_seed=0)[0].batch
        [mae] = validate_params(batch, "naive", enumerate_grid("naive"), seed=1)
        want = np.abs(batch.targets[MIN_VALIDATION_SEED:]).mean()
        assert mae == pytest.approx(want, rel=1e-12)

    def test_tiny_batch_rejected(self):
        data = planted_signal_data(n=120)
        batch = build_tasks(data, "naive", window=63, horizon=1, s=5, root_seed=0)[0].batch
        with pytest.raises(VollabError):
            validate_params(batch.slice(0, MIN_VALIDATION_SEED), "naive",
                            enumerate_grid("naive"), seed=1)

    @pytest.mark.parametrize("kind, states, options", [
        ("naive", [0], None),
        ("svr", [0, 20, 40], None),  # poly, rbf, sigmoid
        ("gbdt", [0, 80], {"gbdt": {"rounds": 2}}),
        # 0, 3, 6 and 27 differ only in a max_depth or leaves limit that no
        # tree on these slices reaches, so they share each slice's fit
        ("gbdt", [0, 3, 80, 6, 27], {"gbdt": {"rounds": 2}}),
    ])
    def test_equals_state_major_sweep(self, kind, states, options):
        data = planted_signal_data(n=120)
        batch = build_tasks(data, kind, window=63, horizon=1, s=5, root_seed=0)[0].batch
        grid = [enumerate_grid(kind)[i] for i in states]
        want = state_major_validation(batch, kind, grid, 7, options)
        assert validate_params(batch, kind, grid, 7, options) == want

    def test_each_slice_scaled_and_noised_once(self, monkeypatch):
        data = planted_signal_data(n=120)
        batch = build_tasks(data, "svr", window=63, horizon=1, s=5, root_seed=0)[0].batch
        calls = []
        original = grids.add_uniform_noise
        monkeypatch.setattr(grids, "add_uniform_noise",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        validate_params(batch, "svr", enumerate_grid("svr")[:3], seed=1)
        assert len(calls) == len(batch) - MIN_VALIDATION_SEED


class TestRunBatch:
    def test_naive_record(self):
        data = planted_signal_data(n=120)
        task = build_tasks(data, "naive", window=63, horizon=1, s=5, root_seed=0)[0]
        rec = run_batch(task)
        assert rec.pred_logdiff == 0.0
        assert rec.pred_level == task.prev_level  # random walk carries the level
        assert math.isnan(rec.val_mae)  # singleton grid: no selection step
        assert rec.model == "naive" and rec.window == 63

    def test_attn_gru_reports_internal_validation(self):
        data = planted_signal_data(n=120)
        opts = {"net": {"conv_channels": 8, "heads": 2, "head_size": 4,
                        "fcl1_units": 8, "gru1_units": 8, "gru2_units": 4,
                        "epochs": 2, "patience": 2}}
        task = build_tasks(data, "attn_gru", window=63, horizon=1, s=5, root_seed=0,
                           model_options=opts)[0]
        rec = run_batch(task)
        assert math.isfinite(rec.val_mae)  # best epoch validation MAE

    def test_selection_prefers_lower_validation_error(self):
        data = planted_signal_data(n=120)
        g = enumerate_grid("svr")
        grid = [g[0], g[9]]
        task = build_tasks(data, "svr", window=63, horizon=1, s=5, root_seed=0, grid=grid)[0]
        rec = run_batch(task)
        maes = validate_params(task.batch, "svr", grid, task.seed)
        assert rec.params == grid[int(np.argmin(maes))].to_text()
        assert rec.val_mae == pytest.approx(min(maes), rel=1e-12)

    def test_tied_states_resolve_to_first(self):
        data = planted_signal_data(n=120)
        state = enumerate_grid("svr")[2]
        # identical state twice: identical MAEs, the first must win
        task = build_tasks(data, "svr", window=63, horizon=1, s=5, root_seed=0,
                           grid=[state, state])[0]
        rec = run_batch(task)
        assert rec.params == state.to_text()

    def test_error_context_names_the_task(self):
        data = planted_signal_data(n=120)
        opts = {"net": {"conv_channels": 5}}  # violates heads*head_size == channels
        task = build_tasks(data, "attn_gru", window=63, horizon=1, s=5, root_seed=0,
                           model_options=opts)[0]
        with pytest.raises(VollabError, match="kind=attn_gru"):
            run_batch(task)

    def test_error_keeps_its_class_and_gains_a_note(self, monkeypatch):
        class TwoArgError(Exception):
            def __init__(self, code, detail):
                super().__init__(f"{code}: {detail}")

        def broken(*args, **kwargs):
            raise TwoArgError(7, "solver broke")

        monkeypatch.setattr(grids, "fit_svr_slices", broken)
        data = planted_signal_data(n=120)
        task = build_tasks(data, "svr", window=63, horizon=1, s=5, root_seed=0,
                           grid=enumerate_grid("svr")[:1])[0]
        with pytest.raises(TwoArgError) as info:
            run_batch(task)
        assert str(info.value) == "7: solver broke"
        assert any("kind=svr" in note for note in info.value.__notes__)

    def test_empty_grid_rejected(self):
        data = planted_signal_data(n=120)
        task = build_tasks(data, "naive", window=63, horizon=1, s=5, root_seed=0)[0]
        bad = BatchTask(**{**task.__dict__, "grid": ()})
        with pytest.raises(VollabError):
            run_batch(bad)


class TestRunExperiment:
    def test_serial_equals_concurrent(self):
        data = planted_signal_data(n=120)
        g = enumerate_grid("svr")[:2]
        a = run_experiment(data, "svr", 63, horizon=3, s=5, root_seed=5, grid=g, threads=1)
        b = run_experiment(data, "svr", 63, horizon=3, s=5, root_seed=5, grid=g, threads=4)
        assert a == b

    def test_pred_level_consistent_with_logdiff(self):
        data = planted_signal_data(n=120)
        recs = run_experiment(data, "svr", 63, horizon=2, s=5, root_seed=5,
                              grid=enumerate_grid("svr")[:1])
        for r in recs:
            prev = data.levels[data.dates.index(r.date) - 1]
            assert r.pred_level == pytest.approx(prev * math.exp(r.pred_logdiff))

    def test_root_seed_changes_predictions(self):
        data = planted_signal_data(n=120)
        g = enumerate_grid("svr")[:1]
        a = run_experiment(data, "svr", 63, horizon=2, s=5, root_seed=1, grid=g)
        b = run_experiment(data, "svr", 63, horizon=2, s=5, root_seed=2, grid=g)
        assert [r.pred_logdiff for r in a] != [r.pred_logdiff for r in b]


class TwoArgError(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


@pytest.fixture
def two_cpus(monkeypatch):
    """Let threads=2 start two workers even on a one-CPU machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


class TestWorkerPool:
    def test_error_keeps_its_class_and_gains_a_note(self, monkeypatch, two_cpus):
        class LocalError(Exception):  # a local class cannot be pickled
            def __init__(self, code, detail):
                super().__init__(f"{code}: {detail}")

        def broken(*args, **kwargs):
            raise LocalError(7, "solver broke")

        monkeypatch.setattr(grids, "fit_svr_slices", broken)
        data = planted_signal_data(n=120)
        with pytest.raises(LocalError) as info:
            run_experiment(data, "svr", 63, horizon=3, s=5, root_seed=0,
                           grid=enumerate_grid("svr")[:1], threads=2)
        assert str(info.value) == "7: solver broke"
        assert any("kind=svr" in note for note in info.value.__notes__)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_error_names_the_first_failing_date(self, monkeypatch, two_cpus, threads):
        data = planted_signal_data(n=120)
        failing = set(data.dates[-4:][1::2])  # the second and fourth test dates
        original = walkforward.forecast

        def broken(kind, slices, *args):
            [(batch, _, _)] = slices  # the refit's one slice
            if data.dates[data.dates.index(batch.target_dates[-1]) + 1] in failing:
                raise TwoArgError(3, "bad date")
            return original(kind, slices, *args)

        monkeypatch.setattr(walkforward, "forecast", broken)
        with pytest.raises(TwoArgError) as info:
            run_experiment(data, "naive", 63, horizon=4, s=5, root_seed=0, threads=threads)
        assert info.value.__notes__ == [
            f"[task kind=naive window=63 date={data.dates[-3]}]"]

    def test_rebound_run_batch_runs_in_the_workers(self, monkeypatch, two_cpus):
        data = planted_signal_data(n=120)
        g = enumerate_grid("svr")[:2]
        serial = run_experiment(data, "svr", 63, horizon=3, s=5, root_seed=5, grid=g)
        original = walkforward.run_batch

        def traced(task):  # a local closure, as a tracer installs
            return original(task)

        monkeypatch.setattr(walkforward, "run_batch", traced)
        assert run_experiment(data, "svr", 63, horizon=3, s=5, root_seed=5, grid=g,
                              threads=2) == serial

    @pytest.mark.parametrize("cpus, threads, horizon, workers", [
        (2, 64, 5, 2), (8, 4, 3, 3), (8, 3, 5, 3), (1, 8, 5, None), (None, 8, 5, None),
        (8, 8, 1, None), (8, 1, 5, None),
    ])
    def test_worker_count(self, monkeypatch, cpus, threads, horizon, workers):
        started = []

        def no_pool(max_workers, **kwargs):
            started.append(max_workers)
            raise TwoArgError(0, "no process started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        data = planted_signal_data(n=120)
        if workers is None:  # the serial loop
            assert len(run_experiment(data, "naive", 63, horizon=horizon, s=5, root_seed=0,
                                      threads=threads)) == horizon
            assert started == []
        else:
            with pytest.raises(TwoArgError):
                run_experiment(data, "naive", 63, horizon=horizon, s=5, root_seed=0,
                               threads=threads)
            assert started == [workers]

    def test_serial_where_fork_is_unavailable(self, monkeypatch, two_cpus):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # never called
        data = planted_signal_data(n=120)
        assert len(run_experiment(data, "naive", 63, horizon=3, s=5, root_seed=0,
                                  threads=2)) == 3


class TestRecordsCsv:
    def test_round_trip_is_exact(self, tmp_path):
        data = planted_signal_data(n=120)
        recs = run_experiment(data, "svr", 63, horizon=3, s=5, root_seed=5,
                              grid=enumerate_grid("svr")[:2])
        p = tmp_path / "records_svr_63.csv"
        write_records_csv(recs, p)
        back = read_records_csv(p)
        assert back == recs  # bit-exact floats via repr round-trip

    def test_file_layout(self, tmp_path):
        """The column order and cell text of a record file; csv_row, the
        header and the reader all take them from one table."""
        rec = ForecastRecord(date=dt.date(2020, 1, 2), pred_logdiff=0.25, actual_logdiff=-0.5,
                             pred_level=31.0, actual_level=30.5, model="svr", window=63,
                             params="kernel=rbf;gamma=scale;epsilon=0.1", val_mae=0.1)
        p = tmp_path / "records_svr_63.csv"
        write_records_csv([rec], p)
        assert p.read_text() == (
            "date,actual_logdiff,pred_logdiff,actual_level,pred_level,model,window,params,"
            "val_mae\n2020-01-02,-0.5,0.25,30.5,31.0,svr,63,kernel=rbf;gamma=scale;epsilon=0.1,"
            "0.1\n")
        assert read_records_csv(p) == [rec]

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        data = planted_signal_data(n=120)
        recs = run_experiment(data, "naive", 63, horizon=3, s=5, root_seed=0)
        original = ForecastRecord.csv_row

        def second_row_fails(record):
            if record is recs[1]:
                raise RuntimeError("cannot format the second record")
            return original(record)

        monkeypatch.setattr(ForecastRecord, "csv_row", second_row_fails)
        with pytest.raises(RuntimeError):
            write_records_csv(recs, tmp_path / "records_naive_63.csv")
        assert os.listdir(tmp_path) == []

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "records_x.csv"
        p.write_text("nope\n")
        with pytest.raises(ReportError, match="not a forecast record file"):
            read_records_csv(p)

    @pytest.mark.parametrize("row, message", [
        ("2020-01-02,0.1,0.2", "expected 9 cells, got 3"),
        ("", "expected 9 cells, got 1"),
        ("2020-01-02,0.1,0.2,30.0,31.0,naive,63,default,nan,extra", "got 10"),
        ("2020-13-02,0.1,0.2,30.0,31.0,naive,63,default,nan", "month must be in"),
        ("2020-1-2,0.1,0.2,30.0,31.0,naive,63,default,nan", "2020-1-2"),
        ("2020-01-02,0.1,abc,30.0,31.0,naive,63,default,nan", "abc"),
        ("2020-01-02,0.1,0.2,30.0,31.0,naive,abc,default,nan", "abc"),
        ("2020-01-02,0.1,0.2,30.0,31.0,naive,63.0,default,nan", "63.0"),
    ], ids=["three_cells", "blank", "ten_cells", "month_13", "short_date", "float_abc",
            "window_abc", "window_float"])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        data = planted_signal_data(n=120)
        p = tmp_path / "records_x.csv"
        write_records_csv(run_experiment(data, "naive", 63, horizon=2, s=5, root_seed=0), p)
        with open(p, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(ReportError, match=f"records_x.csv:4: .*{message}"):
            read_records_csv(p)

    def test_directory_is_read_error(self, tmp_path):
        p = tmp_path / "records_x.csv"
        p.mkdir()
        with pytest.raises(ReadError, match="records_x.csv: cannot read"):
            read_records_csv(p)
