import dataclasses
import datetime as dt
import math
import os
import re

import numpy as np
import pytest

from conftest import make_records
from oracles import (two_pass_build_report, two_write_dispersion_plot, two_write_levels_plot,
                     two_write_residual_plot)
from vollab.errors import ReportError, VollabError
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

    def test_dm_blank_when_naive_forecasts_other_dates(self, tmp_path, rng):
        write_records_csv(_group(rng, "naive", 63), str(tmp_path / "records_naive_63.csv"))
        later = [dataclasses.replace(r, date=r.date + dt.timedelta(days=400))
                 for r in _group(rng, "svr", 63)]  # as many records, none on naive's dates
        write_records_csv(later, str(tmp_path / "records_svr_63.csv"))
        rows, header = build_report(str(tmp_path))
        svr = next(r for r in rows if r.model == "svr")
        assert math.isnan(svr.dm_stat) and math.isnan(svr.dm_p)
        assert format_report(rows, header).splitlines()[-1].split()[-2:] == ["-", "-"]
        assert report_csv(rows).splitlines()[-1].endswith(",nan,nan")


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


def _random_record_set(rng, path):
    """naive plus 0-3 other models at windows 63 and 126, every group on the
    same 1-30 dates; about one group in eight has a non-positive level."""
    n = int(rng.integers(1, 31))
    act_d = 0.05 * rng.normal(size=n)
    act_l = 30.0 * np.exp(np.cumsum(act_d))
    others = rng.choice(["svr", "gbdt", "attn_gru"], size=rng.integers(0, 4), replace=False)
    for model in ["naive", *others]:
        for window in (63, 126):
            pred_d = act_d + 0.03 * rng.normal(size=n)
            pred_l, actual = act_l * np.exp(pred_d - act_d), act_l.copy()
            if rng.random() < 0.125:
                (pred_l, actual)[int(rng.integers(2))][rng.integers(n)] = -rng.random()
            recs = make_records(pred_d, act_d, pred_l, actual, model=model, window=window)
            write_records_csv(recs, str(path / f"records_{model}_{window}.csv"))


def _same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


class TestAgainstTheTwoPassWriters:
    def test_report_and_figures_match_on_shared_dates(self, tmp_path):
        rng = np.random.default_rng(16)
        reported = skipped_levels = dm_rows = 0
        for case in range(60):
            records, got_dir, want_dir = (tmp_path / f"{case}_{d}" for d in ("r", "got", "want"))
            records.mkdir()
            _random_record_set(rng, records)
            try:
                want_rows, want_header = two_pass_build_report(str(records))
            except VollabError as exc:  # a non-positive level fails both alike
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    build_report(str(records))
            else:
                got_rows, got_header = build_report(str(records))
                assert got_header == want_header
                assert len(got_rows) == len(want_rows)
                for g, w in zip(got_rows, want_rows):
                    assert all(map(_same, dataclasses.astuple(g), dataclasses.astuple(w)))
                reported += 1
                dm_rows += sum(math.isfinite(r.dm_stat) for r in got_rows)
            figures = write_plots(str(records), str(got_dir))
            want_dir.mkdir()
            for (model, window), recs in sorted(collect_records(str(records)).items()):
                tag = f"{model}_{window}"
                two_write_residual_plot(recs, str(want_dir / f"residuals_{tag}"))
                two_write_dispersion_plot(recs, str(want_dir / f"dispersion_{tag}"))
                skipped_levels += not two_write_levels_plot(recs, str(want_dir / f"levels_{tag}"))
            names = sorted(os.listdir(want_dir))
            assert sorted(os.listdir(got_dir)) == names
            assert sorted(os.path.basename(p) for p in figures) == [
                n for n in names if n.endswith(".svg")]
            for name in names:
                assert (got_dir / name).read_bytes() == (want_dir / name).read_bytes(), name
        assert reported >= 20 and dm_rows >= 20 and skipped_levels >= 10
