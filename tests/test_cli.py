import csv
import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vollab.cli import _engineer, main
from vollab.config import load_config, manifest, parse_config
from vollab.errors import UsageError
from vollab.features import FeatureMatrix, log_diff
from vollab.frames import TimeSeriesFrame, generate_synthetic, load_csv
from vollab.grids import MODELS, derive_seed, enumerate_grid
from vollab.selection import rf_importance
from vollab.walkforward import build_tasks, read_records_csv

CHAIN = """\
# k0=100
# cdsi=100
# horizon=0.0833333333333333
# rpv01=1.0
K,P,dK
100,1.0,10
"""


def write_config(path, **overrides):
    doc = {"data": {"synthetic": {"seed": 3, "n_days": 160, "n_series": 2}}}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_defaults_applied(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert cfg.models == list(MODELS)
        assert cfg.windows == [63, 126, 252]
        assert cfg.seed == 0 and cfg.threads == 1

    def test_manifest_echoes_every_default(self):
        doc = json.loads(manifest(parse_config({"data": {"synthetic": {"n_days": 160}}}), {}))
        assert doc["config"] == {
            "data": {"synthetic": {"seed": 0, "n_days": 160, "n_series": 3}},
            "target_column": "vol_index",
            "volume_columns": None,
            "models": ["naive", "svr", "gbdt", "attn_gru"],
            "windows": [63, 126, 252],
            "horizon": 63,
            "sequence_length": 5,
            "seed": 0,
            "out": "out",
            "top_k": None,
            "partitions": {},
            "grids": {},
            "model_options": {},
            "threads": 1,
        }

    @pytest.mark.parametrize("raw, seed", [
        ({"data": {"synthetic": {}}}, 0),
        ({"data": {"synthetic": {}}, "seed": 7}, 7),
        ({"data": {"synthetic": {"seed": 2}}, "seed": 7}, 2),
    ])
    def test_synthetic_seed_defaults_to_the_run_seed(self, raw, seed):
        assert parse_config(raw).data == {"synthetic": {"seed": seed, "n_days": 600,
                                                        "n_series": 3}}

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="unknown config keys"):
            parse_config({"data": {"synthetic": {}}, "bogus": 1})

    def test_data_section_required_and_exclusive(self):
        with pytest.raises(UsageError, match="requires a 'data' section"):
            parse_config({})
        with pytest.raises(UsageError, match="exactly one of"):
            parse_config({"data": {"csv": [], "synthetic": {}}})

    def test_unknown_model_and_bad_windows(self):
        base = {"data": {"synthetic": {}}}
        with pytest.raises(UsageError, match="unknown model kind"):
            parse_config({**base, "models": ["ridge"]})
        with pytest.raises(UsageError, match="windows must be"):
            parse_config({**base, "windows": [5]})

    @pytest.mark.parametrize("overrides, message", [
        ({"grids": {"svm": [0]}}, "unknown model kind 'svm'"),
        ({"grids": {"svr": []}}, "non-empty list"),
        ({"grids": {"svr": ["kernel=rbf"]}}, "must set each of"),
        ({"model_options": {"ridge": {}}}, "model_options.ridge"),
        ({"model_options": {"gbdt": {"round": 5}}}, r"keys \['round'\]"),
        ({"model_options": {"net": {"bogus": 1}}}, r"keys \['bogus'\]"),
        ({"model_options": {"net": {"conv_channels": 5}}}, "heads"),
        ({"model_options": {"gbdt": {"rounds": "5"}}}, "rounds must be int"),
        ({"model_options": {"net": {"epochs": 2.5}}}, "epochs must be int"),
        ({"model_options": {"net": {"dropout": True}}}, "dropout must be float"),
        ({"model_options": []}, "must be objects"),
    ])
    def test_grids_and_model_options_checked(self, overrides, message):
        with pytest.raises(UsageError, match=message):
            parse_config({"data": {"synthetic": {}}, **overrides})

    @pytest.mark.parametrize("overrides, message", [
        ({"horizon": True}, "horizon must be int"),
        ({"sequence_length": 1.5}, "sequence_length must be int"),
        ({"seed": "0"}, "seed must be int"),
        ({"threads": 0}, "threads must be >= 1"),
        ({"windows": []}, "non-empty list of ints"),
        ({"top_k": 0}, "top_k must be"),
        ({"top_k": "10"}, "top_k must be"),
        ({"data": {"synthetic": {"seed": 1.5}}}, "synthetic.seed must be int"),
        ({"partitions": []}, "only 'span' and 'selection'"),
        ({"partitions": {"selection": ["2018-01-01", "2018-13-01"]}}, "two ISO dates"),
        ({"volume_columns": "volume_a"}, "volume_columns must be null or a list of strings"),
        ({"volume_columns": ["volume_a", 1]}, "volume_columns must be"),
        ({"data": {"synthetic": 5}}, "data.synthetic must be an object"),
        ({"data": {"csv": "a.csv"}}, "data.csv must be a non-empty list"),
        ({"data": {"csv": []}}, "data.csv must be a non-empty list"),
        ({"data": {"csv": ["a.csv", None]}}, "data.csv must be"),
        ({"models": "svr"}, "models must be a non-empty list of strings"),
        ({"models": []}, "models must be a non-empty list"),
        ({"target_column": 5}, "target_column must be a string"),
        ({"data": {"synthetic": {"seed": -1}}}, "synthetic.seed must be int >= 0, got -1"),
        ({"seed": -3}, "synthetic.seed must be int >= 0, got -3"),
        ({"data": {"synthetic": {"n_days": -5}}}, "synthetic.n_days must be int >= 0"),
        ({"data": {"synthetic": {"n_series": -1}}}, "synthetic.n_series must be int >= 0"),
    ])
    def test_value_types_checked(self, overrides, message):
        with pytest.raises(UsageError, match=message):
            parse_config({"data": {"synthetic": {}}, **overrides})

    def test_config_must_be_an_object(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[]")
        with pytest.raises(UsageError, match="JSON object"):
            load_config(str(p))

    def test_invalid_json_is_usage_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(UsageError, match="invalid JSON"):
            load_config(str(p))

    def test_partition_spec_parsing(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path / "c.json",
            partitions={"span": ["2020-01-01", "2020-06-30"]},
        ))
        spec = cfg.partition_spec("span")
        assert spec.start.isoformat() == "2020-01-01"
        assert cfg.partition_spec("missing") is None


class TestGenerate:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["generate", "--seed", "1", "--days", "80",
                     "--series", "2", "--out", str(out)]) == 0
        frame = load_csv(str(out))
        assert len(frame) == 80 and len(frame.names) == 1 + 2 * 2  # vol_index + price/volume pairs
        assert "wrote 80 days" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--seed", "7", "--days", "50", "--series", "2", "--out", str(a)])
        main(["generate", "--seed", "7", "--days", "50", "--series", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["generate", "--seed", "-1", "--out", str(out)]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_series_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["generate", "--series", "-2", "--out", str(out)]) == 1
        assert "n_series must be >= 0, got -2" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["generate", "--days", "50", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (usage): ") and str(out) in err


class TestFeaturesAndSelect:
    def test_features_writes_matrix(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", out=str(tmp_path / "out"))
        assert main(["features", "--config", cfg]) == 0
        out = tmp_path / "out" / "features.csv"
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header.startswith("date,")
        assert "wrote" in capsys.readouterr().out

    def test_select_ranks_features(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", out=str(tmp_path / "out"))
        assert main(["select", "--config", cfg]) == 0
        imp = tmp_path / "out" / "importance.csv"
        assert imp.exists()
        assert "selected:" in capsys.readouterr().out

    def test_select_names_the_features_run_uses(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", out=str(tmp_path / "out"), top_k=3, horizon=20,
            data={"synthetic": {"seed": 3, "n_days": 220, "n_series": 2}},
            partitions={"span": ["2018-02-01", "2018-10-31"]},
        )
        assert main(["features", "--config", cfg]) == 0
        header = (tmp_path / "out" / "features.csv").read_text().splitlines()[0]
        capsys.readouterr()
        assert main(["select", "--config", cfg]) == 0
        selected = capsys.readouterr().out.split("selected:")[1].strip().split(", ")
        assert header.split(",")[1:] == selected and len(selected) == 3

    @pytest.mark.parametrize("command", ["run", "features", "select"])
    @pytest.mark.parametrize("source", ["csv", "synthetic"])
    def test_target_only_data_is_data_error(self, tmp_path, capsys, command, source):
        data = {"synthetic": {"seed": 3, "n_days": 160, "n_series": 0}}
        if source == "csv":
            path = tmp_path / "target.csv"
            generate_synthetic(3, 160, 0).to_csv(str(path))
            assert path.read_text().splitlines()[0] == "date,vol_index"
            data = {"csv": [str(path)]}
        cfg = write_config(tmp_path / "c.json", data=data, models=["naive"], windows=[63],
                           horizon=5, out=str(tmp_path / "out"))
        assert main([command, "--config", cfg]) == 2
        assert "error (data): no series to engineer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_features_out_under_a_file_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", out=str(tmp_path / "out"))
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "f.csv"
        assert main(["features", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (usage): ") and str(tmp_path / "file") in err

    def test_select_missing_target_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", out=str(tmp_path / "out"),
                           target_column="nope")
        assert main(["select", "--config", cfg]) == 2
        assert "target column 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("start, end", [("2018-03-03", "2018-06-17"),  # weekend ends
                                            ("2018-05-01", "last")])
    def test_select_ranks_the_rows_inside_the_selection(self, tmp_path, start, end):
        last = generate_synthetic(3, 160, 2).dates[-1]
        lo = dt.date.fromisoformat(start)
        hi = last if end == "last" else dt.date.fromisoformat(end)
        path = write_config(tmp_path / "c.json", out=str(tmp_path / "out"),
                            partitions={"selection": [start, hi.isoformat()]})
        assert main(["select", "--config", path]) == 0
        cfg = load_config(path)
        data = _engineer(cfg)
        # the last date has no next-day target, so it is never a selection row
        rows = [i for i, d in enumerate(data.dates) if lo <= d <= hi and d != last]
        X = data.features
        assert X.dates[rows[0]] >= lo and X.dates[rows[-1]] <= hi
        if end == "last":
            assert rows[-1] == len(X) - 2
        sub = FeatureMatrix(tuple(X.dates[i] for i in rows), X.names, X.values[rows],
                            X.zero_variance)
        want = rf_importance(sub, log_diff(data.levels)[rows],
                             seed=derive_seed(cfg.seed, "select"))
        want.to_csv(tmp_path / "want.csv")
        got = (tmp_path / "out" / "importance.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("command", ["select", "features", "run"])
    @pytest.mark.parametrize("selection", ["before the data", "the last date"])
    def test_empty_selection_is_data_error(self, tmp_path, capsys, command, selection):
        last = generate_synthetic(3, 220, 2).dates[-1].isoformat()  # it has no target
        start, end = ("1999-01-01", "1999-02-01") if selection == "before the data" else (
            last, last)
        cfg = write_config(tmp_path / "c.json", out=str(tmp_path / "out"), top_k=4,
                           models=["naive"], windows=[63], horizon=5,
                           data={"synthetic": {"seed": 3, "n_days": 220, "n_series": 2}},
                           partitions={"selection": [start, end]})
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"error (data): partition 'selection' ({start}..{end}) selects no rows\n")
        assert not (tmp_path / "out").exists()

    def test_outputs_are_csv_for_names_that_need_quoting(self, tmp_path):
        name = 'price, "EUR"'
        data = tmp_path / "data.csv"
        generate_synthetic(3, 160, 1).to_csv(str(data))
        lines = data.read_text().splitlines(keepends=True)
        assert lines[0] == "date,vol_index,price_0,volume_0\n"
        data.write_text('date,vol_index,"price, ""EUR""",volume_0\n' + "".join(lines[1:]))
        cfg = write_config(tmp_path / "c.json", data={"csv": [str(data)]},
                           out=str(tmp_path / "out"))
        assert main(["features", "--config", cfg]) == 0
        assert main(["select", "--config", cfg]) == 0
        with open(tmp_path / "out" / "features.csv", newline="") as fh:
            features = list(csv.reader(fh))
        with open(tmp_path / "out" / "importance.csv", newline="") as fh:
            importance = list(csv.reader(fh))
        for table in (features, importance):
            assert {len(row) for row in table} == {len(table[0])}
        names = features[0][1:]
        assert names[:3] == [f"{name}.lvl", f"{name}.lnd", f"{name}.rv21"]
        assert sorted(row[0] for row in importance[1:]) == sorted(names)
        mean = importance[0].index("mean")
        assert sum(float(row[mean]) for row in importance[1:]) == pytest.approx(1.0)


class TestRun:
    def run_config(self, tmp_path, **overrides):
        base = dict(
            models=["naive"], windows=[63], horizon=5,
            out=str(tmp_path / "out"),
        )
        base.update(overrides)
        return write_config(tmp_path / "c.json", **base)

    def test_naive_end_to_end(self, tmp_path, capsys):
        cfg = self.run_config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        out = tmp_path / "out"
        recs = read_records_csv(str(out / "records_naive_63.csv"))
        assert len(recs) == 5 and all(r.pred_logdiff == 0.0 for r in recs)
        assert (out / "report.txt").exists() and (out / "report.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid_sizes"] == {"svr": 45, "gbdt": 81}
        assert manifest["config"]["seed"] == 0
        assert "naive_63" in manifest["derived_seeds"]
        assert not (out / "INCOMPLETE").exists()

    def test_out_and_seed_overrides(self, tmp_path):
        cfg = self.run_config(tmp_path)
        alt = tmp_path / "alt"
        assert main(["run", "--config", cfg, "--out", str(alt), "--seed", "9"]) == 0
        manifest = json.loads((alt / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
        assert (alt / "records_naive_63.csv").exists()

    def test_reruns_byte_identical(self, tmp_path):
        """A rerun, here on two worker processes, writes the serial run's bytes."""
        cfg = self.run_config(tmp_path, models=["naive", "svr", "gbdt"], horizon=3,
                              grids={"svr": [0, 16], "gbdt": [0]},
                              model_options={"gbdt": {"rounds": 3}}, threads=2)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(a), "--threads", "1"]) == 0
        assert main(["run", "--config", cfg, "--out", str(b)]) == 0
        for name in ("records_naive_63.csv", "records_svr_63.csv", "records_gbdt_63.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_insufficient_history_leaves_incomplete_marker(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            data={"synthetic": {"seed": 3, "n_days": 80}},
            models=["naive"], windows=[63], horizon=63,
            out=str(tmp_path / "out"),
        )
        assert main(["run", "--config", cfg]) == 2
        marker = tmp_path / "out" / "INCOMPLETE"
        assert marker.read_text() == "run not finished\n"
        assert "error (data):" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"models": ["naive", "attn_gru"], "model_options": {"net": {"bogus": 1}}},
        {"models": ["naive", "svr"], "grids": {"svr": [999]}},
        {"models": ["naive"], "grids": {"svm": [0]}},
        {"models": ["naive"], "model_options": {"ridge": {}}},
        {"models": ["naive"], "model_options": {"gbdt": {"round": 5}}},
        {"models": ["naive", "gbdt"], "grids": {"gbdt": [0]},
         "model_options": {"gbdt": {"rounds": "5"}}},
        {"horizon": "2"},
        {"windows": 63},
        {"windows": [63.5]},
        {"threads": "2"},
        {"data": {"synthetic": {"seed": 3, "n_days": "300"}}},
        {"partitions": {"span": ["2018-01-01"]}},
        {"partitions": {"spam": ["2018-01-01", "2018-06-29"]}},
        {"volume_columns": "volume_a"},
        {"data": {"synthetic": 5}},
        {"data": {"csv": "a.csv"}},
        {"data": {"csv": []}},
        {"models": []},
        {"target_column": 5},
        {"models": ["naive", "attn_gru"], "model_options": {"net": {"batch_size": 0}}},
        {"models": ["naive", "attn_gru"], "model_options": {"net": {"conv_kernel": 0}}},
        {"models": ["naive", "attn_gru"], "model_options": {"net": {"dropout": 1.0}}},
        {"models": ["naive", "attn_gru"], "model_options": {"net": {"epochs": 0}}},
        {"models": ["naive", "attn_gru"], "model_options": {"net": {"learning_rate": -0.07}}},
        {"models": ["naive", "attn_gru"], "model_options": {"net": {"clip_norm": -1.0}}},
        {"models": ["naive", "gbdt"], "grids": {"gbdt": [0]},
         "model_options": {"gbdt": {"rounds": -5}}},
        {"out": 5},
        {"out": None},
        {"out": ""},
        {"models": ["naive", "naive"]},
        {"windows": [63, 63]},
        {"partitions": {"span": ["2018-06-29", "2018-01-01"]}},
        {"data": {"synthetic": {"seed": -1, "n_days": 160, "n_series": 2}}},
        {"data": {"synthetic": {"n_days": 160, "n_series": 2}}, "seed": -1},
    ])
    def test_config_errors_exit_before_any_record(self, tmp_path, capsys, overrides):
        cfg = self.run_config(tmp_path, **overrides)
        assert main(["run", "--config", cfg]) == 1
        assert "error (usage):" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_threads_override_is_checked(self, tmp_path, capsys):
        cfg = self.run_config(tmp_path)
        assert main(["run", "--config", cfg, "--threads", "0"]) == 1
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_infeasible_window_fails_before_any_record(self, tmp_path, capsys):
        cfg = self.run_config(tmp_path, windows=[63, 390])
        assert main(["run", "--config", cfg]) == 2
        assert "window=390" in capsys.readouterr().err
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == ["INCOMPLETE"]
        assert (out / "INCOMPLETE").read_text() == "run not finished\n"

    def test_interrupt_leaves_incomplete_marker(self, tmp_path, monkeypatch):
        from vollab import cli

        original, calls = cli.run_experiment, []

        def interrupted(*args, **kwargs):
            calls.append(args[1:3])
            if len(calls) == 2:
                raise KeyboardInterrupt
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", self.run_config(tmp_path, windows=[63, 70])])
        out = tmp_path / "out"
        assert calls == [("naive", 63), ("naive", 70)]
        assert sorted(os.listdir(out)) == ["INCOMPLETE", "records_naive_63.csv"]
        assert len(read_records_csv(str(out / "records_naive_63.csv"))) == 5

    def test_failed_report_leaves_incomplete_marker(self, tmp_path, capsys, monkeypatch):
        from vollab import cli

        def broken(records_dir, out_dir):
            raise OSError(28, "No space left on device", str(tmp_path / "out" / "report.txt"))

        monkeypatch.setattr(cli, "write_report", broken)
        assert main(["run", "--config", self.run_config(tmp_path)]) == 1
        assert "No space left on device" in capsys.readouterr().err
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == ["INCOMPLETE", "records_naive_63.csv"]

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "out").write_text("not a directory")
        assert main(["run", "--config", self.run_config(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (usage): ") and str(tmp_path / "out") in err
        assert (tmp_path / "out").read_text() == "not a directory"

    def test_rerun_clears_stale_incomplete_marker(self, tmp_path):
        bad = self.run_config(tmp_path, windows=[390])
        assert main(["run", "--config", bad]) == 2
        assert (tmp_path / "out" / "INCOMPLETE").exists()
        assert main(["run", "--config", self.run_config(tmp_path)]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert not (tmp_path / "out" / "INCOMPLETE").exists()

    def test_failed_rerun_drops_old_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", self.run_config(tmp_path)]) == 0
        assert (out / "report.txt").exists() and (out / "report.csv").exists()
        assert main(["run", "--config", self.run_config(tmp_path, windows=[390])]) == 2
        assert sorted(os.listdir(out)) == ["INCOMPLETE"]

    def test_rerun_clears_stale_record_files(self, tmp_path):
        assert main(["run", "--config", self.run_config(tmp_path)]) == 0
        assert main(["run", "--config", self.run_config(tmp_path, windows=[70])]) == 0
        out = tmp_path / "out"
        assert sorted(f for f in os.listdir(out) if f.startswith("records_")) == [
            "records_naive_70.csv"]
        report = (out / "report.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in report[1:]] == [["naive", "70"]]

    def flat_column_config(self, tmp_path, **overrides):
        base = generate_synthetic(3, 160, 2)
        frame = TimeSeriesFrame(base.dates, {**base.columns, "flat": np.full(160, 5.0)})
        frame.to_csv(str(tmp_path / "flat.csv"))
        return self.run_config(tmp_path, data={"csv": [str(tmp_path / "flat.csv")]},
                               grids={"svr": [0]}, **overrides)

    def test_constant_feature_fails_before_the_first_fit(self, tmp_path, capsys):
        cfg = self.flat_column_config(tmp_path, models=["naive", "svr"])
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error (data): constant feature(s) cannot be scaled for svr: " in err
        assert "flat.lvl, flat.lnd, flat.rv21" in err
        assert sorted(os.listdir(tmp_path / "out")) == ["INCOMPLETE"]

    @pytest.mark.parametrize("overrides", [{"models": ["naive"]},
                                           {"models": ["naive", "svr"], "top_k": 3}])
    def test_constant_feature_that_no_fit_sees_is_allowed(self, tmp_path, overrides):
        assert main(["run", "--config", self.flat_column_config(tmp_path, **overrides)]) == 0

    def test_task_error_names_the_task(self, tmp_path, capsys, monkeypatch):
        from vollab import grids
        from vollab.errors import NumericError

        def broken(*args, **kwargs):
            raise NumericError("solver broke")

        monkeypatch.setattr(grids, "fit_svr_slices", broken)
        cfg = self.run_config(tmp_path, models=["svr"], grids={"svr": [0]})
        assert main(["run", "--config", cfg]) == 3
        assert "error (numeric): solver broke [task kind=svr window=63 date=" in (
            capsys.readouterr().err)

    def test_manifest_echoes_task_seeds(self, tmp_path):
        from vollab.cli import _prepare

        path = self.run_config(tmp_path, seed=4)
        assert main(["run", "--config", path]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        tasks = build_tasks(_prepare(load_config(path)), "naive", 63, horizon=5, s=5,
                            root_seed=4)
        assert manifest["derived_seeds"] == {
            "naive_63": {t.test_date.isoformat(): t.seed for t in tasks}
        }

    def test_bad_grid_index_is_usage_error(self, tmp_path, capsys):
        cfg = self.run_config(tmp_path, models=["svr"], grids={"svr": [999]})
        assert main(["run", "--config", cfg]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_malformed_grid_entry_is_usage_error(self, tmp_path, capsys):
        cfg = self.run_config(tmp_path, models=["svr"], grids={"svr": [1.5]})
        assert main(["run", "--config", cfg]) == 1
        assert "grid entries" in capsys.readouterr().err

    def test_grid_text_states_accepted(self, tmp_path):
        state = enumerate_grid("svr")[0].to_text()
        cfg = self.run_config(tmp_path, models=["svr"], grids={"svr": [state]})
        assert main(["run", "--config", cfg]) == 0
        recs = read_records_csv(str(tmp_path / "out" / "records_svr_63.csv"))
        assert all(r.params == state for r in recs)


class TestReportAndPlot:
    def _records_dir(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", models=["naive"], windows=[63],
            horizon=10, out=str(tmp_path / "out"),
        )
        assert main(["run", "--config", cfg]) == 0
        return tmp_path / "out"

    def test_report_from_records(self, tmp_path, capsys):
        out = self._records_dir(tmp_path)
        rep = tmp_path / "rep"
        assert main(["report", "--records", str(out), "--out", str(rep)]) == 0
        assert (rep / "report.txt").exists()
        assert "wrote" in capsys.readouterr().out

    def test_report_missing_dir_fails(self, tmp_path, capsys):
        assert main(["report", "--records", str(tmp_path / "nope")]) == 1
        assert "cannot read records directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "plot"])
    def test_bad_record_row_names_its_line(self, tmp_path, capsys, command):
        out = self._records_dir(tmp_path)
        with open(out / "records_naive_63.csv", "a") as fh:
            fh.write("2020-01-02,0.1,0.2\n")
        assert main([command, "--records", str(out), "--out", str(tmp_path / "rep")]) == 1
        assert "records_naive_63.csv:12: expected 9 cells, got 3" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_report_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        out = self._records_dir(tmp_path)
        (tmp_path / "rep").write_text("")
        assert main(["report", "--records", str(out), "--out", str(tmp_path / "rep")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (usage): ") and str(tmp_path / "rep") in err

    @pytest.mark.parametrize("command", ["report", "plot"])
    def test_rows_of_another_model_name_their_line(self, tmp_path, capsys, command):
        out = self._records_dir(tmp_path)
        lines = (out / "records_naive_63.csv").read_text().splitlines()
        foreign = [line.replace(",naive,", ",svr,") for line in lines[-2:]]
        (out / "records_naive_63.csv").write_text("\n".join(lines[:-2] + foreign) + "\n")
        assert main([command, "--records", str(out), "--out", str(tmp_path / "rep")]) == 1
        assert ("records_naive_63.csv:10: a svr row of window 63 in the naive records "
                "of window 63") in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command", ["report", "plot"])
    def test_unreadable_record_file_is_data_error(self, tmp_path, capsys, command):
        out = self._records_dir(tmp_path)
        (out / "records_x.csv").mkdir()
        assert main([command, "--records", str(out), "--out", str(tmp_path / "rep")]) == 2
        assert "records_x.csv: cannot read" in capsys.readouterr().err

    def test_plot_writes_figures(self, tmp_path, capsys):
        out = self._records_dir(tmp_path)
        figs = tmp_path / "figs"
        assert main(["plot", "--records", str(out), "--out", str(figs)]) == 0
        written = sorted(os.listdir(figs))
        assert "residuals_naive_63.svg" in written
        assert "residuals_naive_63.csv" in written


class TestVix:
    def test_known_chain(self, tmp_path, capsys):
        chain = tmp_path / "chain.csv"
        chain.write_text(CHAIN)
        assert main(["vix", "--chain", str(chain)]) == 0
        out = capsys.readouterr().out
        var = float(out.splitlines()[0].split(":")[1])
        assert var == pytest.approx(0.024, rel=1e-6)

    @pytest.mark.parametrize("old, new", [
        ("horizon=0.0833333333333333", "horizon=nan"), ("100,1.0,10", "100,nan,10"),
    ], ids=["horizon", "price"])
    def test_non_finite_input_is_numeric_error(self, tmp_path, capsys, old, new):
        chain = tmp_path / "chain.csv"
        chain.write_text(CHAIN.replace(old, new))
        assert main(["vix", "--chain", str(chain)]) == 3
        captured = capsys.readouterr()
        assert "must be finite" in captured.err and captured.out == ""

    def test_missing_metadata_is_data_error(self, tmp_path, capsys):
        chain = tmp_path / "chain.csv"
        chain.write_text("K,P,dK\n100,1.0,10\n")
        assert main(["vix", "--chain", str(chain)]) == 2
        assert "missing metadata keys" in capsys.readouterr().err


class TestUnreadableInputs:
    @pytest.mark.parametrize("command", ["run", "features", "select"])
    @pytest.mark.parametrize("name", ["nope.csv", "a_directory"])
    def test_unreadable_csv_is_data_error(self, tmp_path, capsys, command, name):
        (tmp_path / "a_directory").mkdir()
        path = str(tmp_path / name)
        cfg = write_config(tmp_path / "c.json", data={"csv": [path]}, models=["naive"],
                           windows=[63], horizon=5, out=str(tmp_path / "out"))
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert f"error (data): {path}: cannot read" in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, text, message", [
        ("nope.csv", None, "cannot read"),
        ("a_directory", None, "cannot read"),
        ("header_only.csv", CHAIN.split("100,")[0], "no strike rows"),
    ], ids=["missing", "directory", "header_only"])
    def test_unreadable_chain_is_data_error(self, tmp_path, capsys, name, text, message):
        (tmp_path / "a_directory").mkdir()
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert main(["vix", "--chain", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"error (data): {path}: {message}" in captured.err
        assert captured.out == ""


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    (tmp_path / "latin1.json").write_bytes(b'{"out": "\xe9"}')
    assert main(["run", "--config", str(tmp_path / "latin1.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


# Run in a fresh interpreter: prints the modules first imported inside each
# run_experiment call of a `vollab run`.
NEW_MODULES_SCRIPT = """
import sys
import vollab.cli as cli
print("scipy.stats" in sys.modules)
inner = cli.run_experiment
def watched(*args, **kwargs):
    before = set(sys.modules)
    records = inner(*args, **kwargs)
    print(args[1], sorted(set(sys.modules) - before))
    return records
cli.run_experiment = watched
sys.exit(cli.main(sys.argv[1:]))
"""


def test_forecasts_import_no_module_and_cli_skips_scipy_stats(tmp_path):
    """Imports left to first use would be timed as forecasting; scipy.stats
    is only needed by dm_test and costs more than the rest of vollab."""
    csv = tmp_path / "data.csv"
    generate_synthetic(3, 160, 2).to_csv(str(csv))
    net = {"conv_channels": 4, "heads": 2, "head_size": 2, "fcl1_units": 4,
           "gru1_units": 4, "gru2_units": 2, "epochs": 1}
    cfg = write_config(tmp_path / "c.json", data={"csv": [str(csv)]},
                       models=["naive", "svr", "gbdt", "attn_gru"], windows=[63], horizon=1,
                       grids={"svr": [0, 16], "gbdt": [0, 40]},
                       model_options={"gbdt": {"rounds": 2}, "net": net},
                       out=str(tmp_path / "out"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", NEW_MODULES_SCRIPT, "run", "--config", cfg],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[1:5] == [f"{kind} []" for kind in ("naive", "svr", "gbdt", "attn_gru")]
