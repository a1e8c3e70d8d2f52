import math

import numpy as np
import pytest

from conftest import planted_signal_data
from vollab import gbdt, grids
from vollab.config import parse_config
from vollab.errors import UsageError, VollabError
from vollab.grids import (
    MODELS,
    ParamState,
    check_model_options,
    enumerate_grid,
    forecast,
    resolve_grid,
)
from vollab.svr import SvrParams
from vollab.walkforward import build_tasks


class TestEnumerate:
    def test_svr_grid_size(self):
        assert len(enumerate_grid("svr")) == 45  # 3 kernels x 5 gammas x 3 epsilons

    def test_gbdt_grid_size(self):
        assert len(enumerate_grid("gbdt")) == 81  # 3^4

    def test_singletons(self):
        assert len(enumerate_grid("attn_gru")) == 1
        assert len(enumerate_grid("naive")) == 1

    def test_table_order(self):
        assert list(MODELS) == ["naive", "svr", "gbdt", "attn_gru"]

    def test_states_unique_and_ordered(self):
        for kind, m in MODELS.items():
            states = enumerate_grid(kind)
            texts = [s.to_text() for s in states]
            assert len(set(texts)) == len(texts)
            assert len(states) == math.prod(len(v) for v in m.axes.values())
            assert enumerate_grid(kind) == states  # stable enumeration

    def test_unknown_kind(self):
        with pytest.raises(VollabError):
            enumerate_grid("kalman")


class TestParamState:
    def test_text_round_trip(self):
        for kind in MODELS:
            for s in enumerate_grid(kind):
                assert ParamState.from_text(kind, s.to_text()) == s

    def test_from_text_rejects_off_grid_values(self):
        with pytest.raises(VollabError):
            ParamState.from_text("svr", "kernel=rbf;gamma=3.14;epsilon=0.05")

    def test_from_text_rejects_malformed(self):
        with pytest.raises(VollabError):
            ParamState.from_text("svr", "kernel:rbf")

    def test_from_text_requires_every_axis(self):
        for kind, m in MODELS.items():
            if m.axes:
                first_axis = enumerate_grid(kind)[0].to_text().split(";")[0]
                with pytest.raises(VollabError, match="must set each of"):
                    ParamState.from_text(kind, first_axis)
                with pytest.raises(VollabError):
                    ParamState.from_text(kind, "default")

    def test_from_text_orders_axes(self):
        state = ParamState.from_text("svr", "epsilon=0.1;kernel=rbf;gamma=scale")
        assert state.to_text() == "kernel=rbf;gamma=scale;epsilon=0.1"


class TestConfigChecks:
    def test_resolve_grid(self):
        text = "kernel=rbf;gamma=auto;epsilon=0.05"
        assert resolve_grid("svr", [3, text]) == [
            enumerate_grid("svr")[3], ParamState.from_text("svr", text)
        ]
        for bad in ([], [45], [1.5], ["kernel=rbf"], 3, [True]):
            with pytest.raises(UsageError):
                resolve_grid("svr", bad)

    def test_a_grid_names_each_state_once(self):
        # a repeated state used to be fitted once per mention on every slice
        base = {"data": {"synthetic": {"n_days": 160}}, "models": ["svr", "gbdt"]}
        for grids_ in ({"svr": [16, "kernel=rbf;gamma=scale;epsilon=0.1", 16]},
                       {"svr": [3, 3]}, {"gbdt": [0, "leaves=75;min_data=10;max_depth=-1;"
                                                      "feature_fraction=0.4"]}):
            with pytest.raises(UsageError, match="more than once"):
                parse_config({**base, "grids": grids_})
        parse_config({**base, "grids": {"svr": [16, 17], "gbdt": [0, 1]}})

    def test_model_options_keys(self):
        for kind, m in MODELS.items():
            if m.section:
                check_model_options({m.section: {}})
                with pytest.raises(UsageError, match="unknown model_options"):
                    check_model_options({m.section: {"bogus": 1}})
        with pytest.raises(UsageError, match="not a known section"):
            check_model_options({"ridge": {}})
        with pytest.raises(UsageError, match="seed"):
            check_model_options({"net": {"seed": 1}})  # every fit derives its own

    def test_model_options_values(self):
        check_model_options({"gbdt": {"rounds": 5, "learning_rate": 1},
                             "net": {"dropout": 0}})
        with pytest.raises(UsageError, match="learning_rate"):
            check_model_options({"gbdt": {"learning_rate": 0.0}})
        with pytest.raises(UsageError, match="heads"):
            check_model_options({"net": {"conv_channels": 5}})


class TestFitModel:
    def test_every_kind_fits_and_predicts(self):
        data = planted_signal_data(n=120)
        batch = build_tasks(data, "naive", window=63, horizon=1, s=5, root_seed=0)[0].batch
        opts = {"gbdt": {"rounds": 3},
                "net": {"conv_channels": 8, "heads": 2, "head_size": 4, "fcl1_units": 8,
                        "gru1_units": 8, "gru2_units": 4, "epochs": 1}}
        for kind in MODELS:
            [[(pred, val_mae)]] = forecast(kind, [(batch.slice(0, 30), 1, batch.blocks[30])],
                                           opts, enumerate_grid(kind)[:1])
            assert np.isfinite(pred)
            assert math.isnan(val_mae) == (kind != "attn_gru")

    def test_naive_predicts_zero_logdiff(self, monkeypatch):
        data = planted_signal_data(n=120)
        batch = build_tasks(data, "naive", window=63, horizon=1, s=5, root_seed=0)[0].batch

        def unscaled(*args, **kwargs):
            raise AssertionError("the random walk scales nothing")

        for name in ("fit_scaler", "apply_scaler", "add_uniform_noise"):
            monkeypatch.setattr(grids, name, unscaled)
        [results] = forecast("naive", [(batch, 0, batch.blocks[0])], None,
                             enumerate_grid("naive") * 3)
        assert len(results) == 3
        for pred, val_mae in results:
            assert pred == 0.0 and math.isnan(val_mae)

    @pytest.mark.parametrize("n_states", [1, 3, 9])
    def test_one_scaling_per_slice_and_one_fit_per_state(self, monkeypatch, n_states):
        data = planted_signal_data(n=120)
        batch = build_tasks(data, "svr", window=63, horizon=1, s=5, root_seed=0)[0].batch
        states = enumerate_grid("svr")[::5][:n_states]
        calls = []

        def counted(name):
            original = getattr(grids, name)

            def call(*args, **kwargs):
                # fit_svr_slices(Xs, ys, params)
                calls.append(args[2] if name == "fit_svr_slices" else name)
                return original(*args, **kwargs)
            return call

        for name in ("fit_scaler", "apply_scaler", "add_uniform_noise", "fit_svr_slices"):
            monkeypatch.setattr(grids, name, counted(name))
        [results] = forecast("svr", [(batch, 4, batch.blocks[-1])], None, states)
        assert calls == ["fit_scaler", "apply_scaler", "add_uniform_noise",
                         *(SvrParams(**dict(s.values)) for s in states)]
        assert len(results) == n_states


    @pytest.mark.parametrize("kind, picks", [("svr", [0, 22, 44]), ("gbdt", [0, 40, 80]),
                                             ("attn_gru", [0, 0])])
    def test_many_slices_forecast_as_one_slice_and_state_at_a_time(self, kind, picks):
        # each kind's fit gets every slice and state at once; its results are
        # those of fitting slice by slice, each under every state in order
        data = planted_signal_data(n=120)
        batch = build_tasks(data, kind, window=63, horizon=1, s=5, root_seed=0)[0].batch
        opts = {"gbdt": {"rounds": 2},
                "net": {"conv_channels": 4, "heads": 2, "head_size": 2, "fcl1_units": 4,
                        "gru1_units": 4, "gru2_units": 2, "epochs": 1}}
        states = [enumerate_grid(kind)[i] for i in picks]
        slices = [(batch.slice(0, v), 7 + v, batch.blocks[v]) for v in (30, 41, 52)]
        got = forecast(kind, slices, opts, states)
        want = [[forecast(kind, [item], opts, [s])[0][0] for s in states] for item in slices]
        assert repr(got) == repr(want)
        assert forecast(kind, [], opts, states) == []


def slices_of(kind, count):
    """count training slices (windows 14, 17, ...) of a W=63 batch."""
    data = planted_signal_data(n=120)
    batch = build_tasks(data, kind, window=63, horizon=1, s=5, root_seed=0)[0].batch
    return [(batch.slice(0, v), 3 * v, batch.blocks[v]) for v in range(14, 14 + 3 * count, 3)]


def failing_slices(kind):
    """Five slices: slice 2 has a nan feature (the fit's error) and slice 4 a
    constant one (the scaler's).  Fitting slice by slice meets slice 2's."""
    slices = slices_of(kind, 5)
    for s, cells, value in ((2, (4, 2, 1), np.nan), (4, np.s_[:, :, 0], 1.0)):
        train, seed, block = slices[s]
        blocks = train.blocks.copy()
        blocks[cells] = value
        slices[s] = train.with_blocks(blocks), seed, block
    return slices


def assert_first_failing_slice_raises(kind, states, opts, message):
    slices = failing_slices(kind)
    with pytest.raises(VollabError) as want:
        for item in slices:
            forecast(kind, [item], opts, states)
    with pytest.raises(VollabError) as got:
        forecast(kind, slices, opts, states)
    assert str(want.value) == message
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_svr_first_failing_slice_raises():
    # one run of the five slices: scaling them all before fitting any would
    # raise slice 4's scaler error first
    assert_first_failing_slice_raises("svr", enumerate_grid("svr")[:2], None,
                                      "fit_svr inputs must be finite")


class TestGbdtLockstep:
    """A validation's many slices are boosted in lockstep; each result is the
    one-slice fit's, and an error is the one fitting slice by slice meets."""

    @pytest.mark.parametrize("count, lockstep", [(gbdt.LOCKSTEP_SLICES - 1, 0),
                                                 (gbdt.LOCKSTEP_SLICES, 1), (12, 1)])
    def test_runs_of_enough_slices_forecast_as_one_slice_at_a_time(self, monkeypatch, count,
                                                                   lockstep):
        calls = []
        original = gbdt.grow_trees

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(gbdt, "grow_trees", counted)
        opts = {"gbdt": {"rounds": 3, "learning_rate": 0.2}}
        states = [enumerate_grid("gbdt")[i] for i in (0, 13, 40, 41, 80)]
        slices = slices_of("gbdt", count)
        got = forecast("gbdt", slices, opts, states)
        assert len(calls) == 3 * lockstep  # one call per round
        calls.clear()
        want = [forecast("gbdt", [item], opts, states)[0] for item in slices]
        assert not calls
        assert repr(got) == repr(want)

    def test_runs_split_at_the_stack_budget(self, monkeypatch):
        slices = slices_of("gbdt", 12)
        opts = {"gbdt": {"rounds": 2}}
        states = [enumerate_grid("gbdt")[i] for i in (0, 40)]
        want = forecast("gbdt", slices, opts, states)
        monkeypatch.setattr(gbdt, "STACK_BYTES", 15 * 8 * 200)  # 200 rows of 15 features
        # a lockstep run of 8 slices, then 4 fitted one by one
        assert gbdt.slice_runs([len(t) for t, _, _ in slices], 15) == [8, 4]
        assert repr(forecast("gbdt", slices, opts, states)) == repr(want)

    def test_first_failing_slice_raises(self, monkeypatch):
        # taking each slice's check before scaling the next raises slice 2's
        # error, in a lockstep run and in a run too short for one
        for lockstep_slices in (2, gbdt.LOCKSTEP_SLICES):
            monkeypatch.setattr(gbdt, "LOCKSTEP_SLICES", lockstep_slices)
            assert_first_failing_slice_raises("gbdt", enumerate_grid("gbdt")[:2],
                                              {"gbdt": {"rounds": 2}},
                                              "features must be finite")


class TestSharedFits:
    """gbdt states with equal keys share one fit per slice."""

    @pytest.mark.parametrize("window, fits", [(63, 249), (126, 960), (252, 3168)])
    def test_validation_fits_of_a_full_grid_task(self, window, fits):
        # one fit per distinct key on each slice of the expanding validation:
        # 81 states on each of window - 10 slices before the key
        key, grid = grids._gbdt_key, enumerate_grid("gbdt")
        assert sum(len({key(s, n) for s in grid}) for n in range(10, window)) == fits

    def test_key_reads_each_limit_only_where_it_binds(self):
        key = grids._gbdt_key
        state = {s.to_text(): s for s in enumerate_grid("gbdt")}

        def at(leaves, min_data, max_depth, fraction, n):
            return key(state[f"leaves={leaves};min_data={min_data};max_depth={max_depth};"
                             f"feature_fraction={fraction}"], n)

        # n = 70: md = min_data, bags of k = 63 rows, at most 63 // 10 = 6
        # leaves and 5 levels for min_data 10
        assert at(75, 10, 5, 0.4, 70) == at(75, 10, -1, 0.4, 70) == at(125, 10, 10, 0.4, 70)
        assert at(75, 10, 5, 0.4, 80) != at(75, 10, -1, 0.4, 80)  # 72 // 10 = 7 leaves
        assert at(75, 10, -1, 0.4, 70) != at(75, 20, -1, 0.4, 70)
        assert at(75, 10, -1, 0.4, 70) != at(75, 10, -1, 0.5, 70)
        # n = 30: min_data 10, 20 and 30 all clip to 10
        assert at(75, 10, -1, 0.4, 30) == at(75, 30, -1, 0.4, 30)
        # n = 2000: bags of 1800 rows, 180 leaves of min_data 10
        assert at(75, 10, -1, 0.4, 2000) != at(100, 10, -1, 0.4, 2000)

    @pytest.mark.parametrize("n", [12, 40, 62, 125])
    def test_shared_fits_forecast_as_one_state_at_a_time(self, n):
        data = planted_signal_data(n=260)
        batch = build_tasks(data, "gbdt", window=n + 1, horizon=1, s=5, root_seed=0)[0].batch
        train, block = batch.slice(0, n), batch.blocks[n]
        opts = {"gbdt": {"rounds": 2, "learning_rate": 0.3}}
        grid = enumerate_grid("gbdt")
        [got] = forecast("gbdt", [(train, 5, block)], opts, grid)
        want = [forecast("gbdt", [(train, 5, block)], opts, [s])[0][0] for s in grid]
        assert repr(got) == repr(want)
