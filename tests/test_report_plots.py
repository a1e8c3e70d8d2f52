import math
import os

import numpy as np
import pytest

from conftest import make_records
from vollab.errors import ReportError
from vollab.plots import dispersion_plot, levels_plot, residual_plot, write_plots
from vollab.report import (
    build_report,
    collect_records,
    format_report,
    report_csv,
    write_report,
)
from vollab.walkforward import ForecastRecord, write_records_csv


def _group(rng, model, window, n=12):
    act_d = 0.05 * rng.normal(size=n)
    pred_d = act_d + 0.02 * rng.normal(size=n)
    act_l = 30.0 * np.exp(np.cumsum(act_d))
    pred_l = act_l * np.exp(pred_d - act_d)
    return make_records(pred_d, act_d, pred_l, act_l, model=model, window=window)


def _write_groups(tmp_path, rng, specs):
    for model, window in specs:
        recs = _group(rng, model, window)
        write_records_csv(recs, str(tmp_path / f"records_{model}_{window}.csv"))


class TestCollectRecords:
    def test_groups_keyed_by_model_and_window(self, tmp_path, rng):
        _write_groups(tmp_path, rng, [("naive", 63), ("svr", 63), ("naive", 126)])
        groups = collect_records(str(tmp_path))
        assert set(groups) == {("naive", 63), ("svr", 63), ("naive", 126)}
        assert all(isinstance(r, ForecastRecord) for r in groups[("svr", 63)])

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ReportError, match="cannot read records directory"):
            collect_records(str(tmp_path / "nope"))

    def test_no_record_files(self, tmp_path):
        (tmp_path / "other.csv").write_text("x\n")
        with pytest.raises(ReportError, match="no record files"):
            collect_records(str(tmp_path))

    def test_second_file_of_a_group_is_an_error(self, tmp_path, rng):
        _write_groups(tmp_path, rng, [("svr", 63)])
        recs = _group(rng, "svr", 63)
        write_records_csv(recs, str(tmp_path / "records_svr_63_old.csv"))
        with pytest.raises(ReportError, match="records_svr_63.csv and records_svr_63_old.csv"):
            collect_records(str(tmp_path))

    def test_empty_record_file(self, tmp_path):
        path = tmp_path / "records_naive_63.csv"
        path.write_text(ForecastRecord.CSV_HEADER + "\n")
        with pytest.raises(ReportError, match="empty record file"):
            collect_records(str(tmp_path))


class TestBuildReport:
    def test_rows_sorted_and_dm_vs_naive(self, tmp_path, rng):
        _write_groups(tmp_path, rng, [("svr", 63), ("naive", 63), ("gbdt", 63)])
        rows, header = build_report(str(tmp_path))
        assert [(r.model, r.window) for r in rows] == [
            ("gbdt", 63), ("naive", 63), ("svr", 63)
        ]
        by_model = {r.model: r for r in rows}
        assert math.isnan(by_model["naive"].dm_stat)
        assert math.isfinite(by_model["svr"].dm_stat)
        assert 0.0 <= by_model["svr"].dm_p <= 1.0
        assert header["n"] == 12
        assert header["level_min"] <= header["level_max"]
        assert header["cov_pct"] > 0

    def test_no_naive_group_leaves_dm_blank(self, tmp_path, rng):
        _write_groups(tmp_path, rng, [("svr", 63)])
        rows, _ = build_report(str(tmp_path))
        assert math.isnan(rows[0].dm_stat) and math.isnan(rows[0].dm_p)

    def test_short_series_skips_dm(self, tmp_path, rng):
        for model in ("naive", "svr"):
            recs = _group(rng, model, 63, n=6)  # below the dm_test minimum
            write_records_csv(recs, str(tmp_path / f"records_{model}_63.csv"))
        rows, _ = build_report(str(tmp_path))
        assert all(math.isnan(r.dm_stat) for r in rows)

    def test_identical_forecasts_degenerate_dm(self, tmp_path, rng):
        recs = _group(rng, "naive", 63)
        write_records_csv(recs, str(tmp_path / "records_naive_63.csv"))
        clone = [ForecastRecord(**{**r.__dict__, "model": "svr"}) for r in recs]
        write_records_csv(clone, str(tmp_path / "records_svr_63.csv"))
        rows, _ = build_report(str(tmp_path))
        svr = next(r for r in rows if r.model == "svr")
        assert math.isnan(svr.dm_stat)


class TestFormatting:
    def test_text_layout(self, tmp_path, rng):
        _write_groups(tmp_path, rng, [("naive", 63), ("svr", 63)])
        rows, header = build_report(str(tmp_path))
        text = format_report(rows, header)
        lines = text.splitlines()
        assert lines[0].startswith("observations: 12   actual levels:")
        assert "coefficient of variation" in lines[0]
        assert lines[2].split() == [
            "model", "window", "MAE", "RMSE", "MAPE", "LLx100", "DM", "p"
        ]
        naive_line = next(L for L in lines if L.startswith("naive"))
        assert naive_line.rstrip().endswith("-")  # blank DM columns

    def test_csv_round_trips_floats(self, tmp_path, rng):
        _write_groups(tmp_path, rng, [("naive", 63), ("svr", 63)])
        rows, _ = build_report(str(tmp_path))
        body = report_csv(rows).splitlines()
        assert body[0] == "model,window,mae,rmse,mape,log_loss_x100,dm_stat,dm_p"
        for row, line in zip(rows, body[1:]):
            cells = line.split(",")
            assert cells[0] == row.model and int(cells[1]) == row.window
            assert float(cells[2]) == row.mae
            assert float(cells[3]) == row.rmse

    def test_write_report_creates_both_files(self, tmp_path, rng):
        _write_groups(tmp_path, rng, [("naive", 63)])
        out = tmp_path / "rep"
        paths = write_report(str(tmp_path), str(out))
        assert sorted(os.path.basename(p) for p in paths) == ["report.csv", "report.txt"]
        assert all(os.path.exists(p) for p in paths)


class TestPlots:
    def test_residual_plot_svg_and_sidecar(self, tmp_path, rng):
        recs = _group(rng, "svr", 63)
        base = str(tmp_path / "resid")
        residual_plot(recs, base)
        svg = open(base + ".svg").read()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert "residuals over time: svr W=63" in svg
        assert svg.count("<circle") == len(recs)
        lines = open(base + ".csv").read().splitlines()
        assert lines[0] == "date,residual,x_px,y_px"
        assert len(lines) == len(recs) + 1
        first = lines[1].split(",")
        assert first[0] == recs[0].date.isoformat()
        want = recs[0].pred_logdiff - recs[0].actual_logdiff
        assert float(first[1]) == pytest.approx(want, abs=5e-4)

    def test_dispersion_plot_box_and_points(self, tmp_path, rng):
        recs = _group(rng, "gbdt", 126)
        base = str(tmp_path / "disp")
        dispersion_plot(recs, base)
        svg = open(base + ".svg").read()
        assert "error dispersion: gbdt W=126" in svg
        assert "<rect" in svg and svg.count("<circle") == len(recs)
        lines = open(base + ".csv").read().splitlines()
        assert lines[0] == "residual,x_px,y_px"
        assert len(lines) == len(recs) + 1

    def test_levels_plot_two_polylines(self, tmp_path, rng):
        recs = _group(rng, "attn_gru", 63)
        base = str(tmp_path / "lvl")
        assert levels_plot(recs, base) is True
        svg = open(base + ".svg").read()
        assert svg.count("<polyline") == 2
        lines = open(base + ".csv").read().splitlines()
        assert lines[0] == "date,actual_level,pred_level,x_px,y_actual_px,y_pred_px"

    def test_levels_plot_refuses_nonpositive(self, tmp_path):
        recs = make_records([0.1], [0.0], [-1.0], [30.0], model="m", window=63)
        base = str(tmp_path / "bad")
        assert levels_plot(recs, base) is False
        assert not os.path.exists(base + ".svg")

    def test_write_plots_full_directory(self, tmp_path, rng, capsys):
        _write_groups(tmp_path, rng, [("naive", 63), ("svr", 63)])
        out = tmp_path / "figs"
        paths = write_plots(str(tmp_path), str(out))
        names = sorted(os.path.basename(p) for p in paths)
        assert names == [
            "dispersion_naive_63.svg", "dispersion_svr_63.svg",
            "levels_naive_63.svg", "levels_svr_63.svg",
            "residuals_naive_63.svg", "residuals_svr_63.svg",
        ]
        for p in paths:
            assert os.path.exists(p)
            assert os.path.exists(p[:-4] + ".csv")
        assert capsys.readouterr().err == ""

    def test_write_plots_warns_on_nonpositive_levels(self, tmp_path, rng, capsys):
        recs = make_records([0.1] * 3, [0.0] * 3, [-1.0] * 3, [30.0] * 3,
                            model="bad", window=63)
        write_records_csv(recs, str(tmp_path / "records_bad_63.csv"))
        paths = write_plots(str(tmp_path), str(tmp_path))
        assert not any("levels_" in p for p in paths)
        assert "non-positive levels" in capsys.readouterr().err
