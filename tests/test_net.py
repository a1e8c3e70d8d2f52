import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vollab.net
from oracles import composed_gru_direction, recursive_backward
from vollab.autodiff import Tensor
from vollab.errors import VollabError
from vollab.net import (
    GRU_WEIGHTS,
    TINY_CONFIG,
    NetConfig,
    build_graph,
    clip_global_norm,
    forward,
    init_params,
    load_params,
    mae_and_grads,
    predict,
    save_params,
    train,
)


def tiny_batch(rng, batch=4, s=5, m=3):
    x = rng.normal(size=(batch, s, m))
    y = rng.normal(size=batch)
    return x, y


class TestConfig:
    def test_head_partition_enforced(self):
        with pytest.raises(VollabError):
            NetConfig(conv_channels=64, heads=3, head_size=16)

    def test_residual_width_enforced(self):
        with pytest.raises(VollabError):
            NetConfig(conv_channels=64, heads=4, head_size=16, fcl1_units=32)

    @pytest.mark.parametrize("values", [
        {"epochs": 0}, {"batch_size": 0}, {"conv_kernel": 0}, {"conv_dilation": 0},
        {"heads": -4, "head_size": -16}, {"gru1_units": 0}, {"gru2_units": -1},
        {"dropout": 1.0}, {"dropout": -0.1},
        {"learning_rate": 0.0}, {"learning_rate": -0.07}, {"clip_norm": 0.0},
        {"clip_norm": -1.0},
    ])
    def test_out_of_range_values_rejected(self, values):
        with pytest.raises(VollabError, match=next(iter(values))):
            NetConfig(**values)

    @pytest.mark.parametrize("values", [
        {"epochs": 2.5}, {"batch_size": True}, {"learning_rate": True}, {"patience": 0},
        {"epochs": "3"},
    ], ids=lambda values: "{}={!r}".format(*next(iter(values.items()))))
    def test_non_int_non_real_and_zero_patience_rejected(self, values):
        # these used to be accepted, or to raise a bare TypeError
        with pytest.raises(VollabError, match=next(iter(values))):
            NetConfig(**values)

    def test_defaults_describe_published_architecture(self):
        c = NetConfig()
        assert (c.conv_channels, c.heads, c.head_size) == (64, 4, 16)
        assert (c.gru1_units, c.gru2_units) == (64, 32)
        assert (c.learning_rate, c.batch_size, c.epochs, c.patience) == (0.07, 32, 32, 5)


class TestInit:
    def test_deterministic(self):
        a = init_params(TINY_CONFIG, 3, seed=9)
        b = init_params(TINY_CONFIG, 3, seed=9)
        assert sorted(a) == sorted(b)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_biases_zero_ln_scale_one(self):
        p = init_params(TINY_CONFIG, 3, seed=1)
        np.testing.assert_array_equal(p["conv1_b"], 0.0)
        np.testing.assert_array_equal(p["ln1_g"], 1.0)
        np.testing.assert_array_equal(p["ln2_b"], 0.0)


class TestForward:
    def test_shapes(self, rng):
        x, _ = tiny_batch(rng)
        p = init_params(TINY_CONFIG, 3, seed=2)
        preds, attn = forward(p, x, TINY_CONFIG)
        assert preds.shape == (4,)
        assert attn.shape == (4, TINY_CONFIG.heads, 5, 5)

    def test_attention_weights_are_distributions(self, rng):
        x, _ = tiny_batch(rng)
        p = init_params(TINY_CONFIG, 3, seed=2)
        _, attn = forward(p, x, TINY_CONFIG)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-10)
        assert attn.min() >= 0

    def test_eval_mode_is_deterministic(self, rng):
        x, _ = tiny_batch(rng)
        p = init_params(TINY_CONFIG, 3, seed=2)
        a, _ = forward(p, x, TINY_CONFIG, train_mode=False, seed=1)
        b, _ = forward(p, x, TINY_CONFIG, train_mode=False, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_dropout_depends_on_seed_in_train_mode(self, rng):
        x, _ = tiny_batch(rng)
        p = init_params(TINY_CONFIG, 3, seed=2)
        a, _ = forward(p, x, TINY_CONFIG, train_mode=True, seed=1)
        b, _ = forward(p, x, TINY_CONFIG, train_mode=True, seed=2)
        c, _ = forward(p, x, TINY_CONFIG, train_mode=True, seed=1)
        np.testing.assert_array_equal(a, c)
        assert not np.array_equal(a, b)

    def test_per_sample_independence(self, rng):
        # prediction for a block must not depend on other blocks in the batch
        x, _ = tiny_batch(rng, batch=6)
        p = init_params(TINY_CONFIG, 3, seed=2)
        full, _ = forward(p, x, TINY_CONFIG)
        solo, _ = forward(p, x[2:3], TINY_CONFIG)
        np.testing.assert_allclose(full[2], solo[0], atol=1e-12)

    def test_rejects_wrong_rank_or_width(self, rng):
        p = init_params(TINY_CONFIG, 3, seed=2)
        with pytest.raises(VollabError):
            forward(p, np.zeros((4, 5)), TINY_CONFIG)
        with pytest.raises(VollabError):
            forward(p, np.zeros((4, 5, 7)), TINY_CONFIG)


class TestBackward:
    def test_grad_for_every_tensor(self, rng):
        x, y = tiny_batch(rng)
        p = init_params(TINY_CONFIG, 3, seed=3)
        loss, grads = mae_and_grads(p, x, y, TINY_CONFIG, train_mode=False)
        assert sorted(grads) == sorted(p)
        for k, g in grads.items():
            assert g.shape == p[k].shape, k
            assert np.all(np.isfinite(g)), k

    def test_gradients_match_the_recursive_sort_bit_for_bit(self, rng):
        x, y = tiny_batch(rng)
        p = init_params(TINY_CONFIG, 3, seed=3)
        _, grads = mae_and_grads(p, x, y, TINY_CONFIG, train_mode=True, seed=11)
        pred, nodes, _ = build_graph(p, x, TINY_CONFIG, train_mode=True, seed=11)
        recursive_backward((pred - Tensor(y, requires_grad=False)).abs().mean())
        for k, t in nodes.items():
            assert grads[k].tobytes() == t.grad.tobytes(), k

    def test_long_sequence_does_not_hit_the_recursion_limit(self, rng):
        x, y = tiny_batch(rng, batch=2, s=300)
        p = init_params(TINY_CONFIG, 3, seed=3)
        loss, grads = mae_and_grads(p, x, y, TINY_CONFIG)
        assert np.isfinite(loss)
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_graph_is_freed_without_the_cyclic_collector(self, rng):
        x, y = tiny_batch(rng)
        p = init_params(TINY_CONFIG, 3, seed=3)
        gc.collect()
        gc.disable()
        try:
            mae_and_grads(p, x, y, TINY_CONFIG)
            assert gc.collect() == 0  # nothing was left for the collector
        finally:
            gc.enable()

    def test_clip_global_norm(self):
        g = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped = clip_global_norm(g, 1.0)
        total = np.sqrt(sum(float((v ** 2).sum()) for v in clipped.values()))
        assert total == pytest.approx(1.0)
        untouched = clip_global_norm(g, 100.0)
        np.testing.assert_array_equal(untouched["a"], g["a"])


def assert_same_bits(a, b, what):
    """Equal dtype, shape and bits.  x87's 80-bit longdouble sits in 16 bytes
    whose padding is left undefined, so a longdouble is compared by value
    and sign, which fixes its 80 bits."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape), what
    if a.dtype == np.longdouble:
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), what
    else:
        assert a.tobytes() == b.tobytes(), what


class TestFusedGru:
    """Each GRU direction is one node; its output and every gradient equal
    the composed per-op graph's (oracles.composed_gru_direction) bit for
    bit, and each gradient keeps the layout of its tensor's data."""

    @staticmethod
    def _graph_grads(params, x, y, cfg, train_mode, seed, gru):
        old = vollab.net._gru_direction
        vollab.net._gru_direction = gru
        try:
            pred, nodes, _ = build_graph(params, x, cfg, train_mode, seed)
        finally:
            vollab.net._gru_direction = old
        (pred - Tensor(y, requires_grad=False)).abs().mean().backward()
        return pred.data, {k: t.grad for k, t in nodes.items()}

    @settings(max_examples=60, deadline=None)
    @given(default=st.booleans(), batch=st.integers(1, 32), train_mode=st.booleans(),
           longdouble=st.booleans(), seed=st.integers(0, 2**16))
    def test_whole_net_matches_the_composed_graph(self, default, batch, train_mode,
                                                  longdouble, seed):
        cfg = NetConfig() if default else TINY_CONFIG
        dtype = np.longdouble if longdouble else np.float64
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, 5, 3)).astype(dtype)
        y = rng.normal(size=batch).astype(dtype)
        p = {k: v.astype(dtype) for k, v in init_params(cfg, 3, seed=seed).items()}
        fused = self._graph_grads(p, x, y, cfg, train_mode, seed, vollab.net._gru_direction)
        composed = self._graph_grads(p, x, y, cfg, train_mode, seed, composed_gru_direction)
        assert_same_bits(fused[0], composed[0], "prediction")
        for k in p:
            assert_same_bits(fused[1][k], composed[1][k], k)
            assert fused[1][k].strides == composed[1][k].strides, k

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_one_direction_matches_on_any_input_layout(self, rng, layout, reverse):
        B, T, D, U = 6, 7, 5, 4
        base = rng.normal(size=(B, 2 * T, D))
        data = {"C": np.ascontiguousarray(base[:, :T]), "F": np.asfortranarray(base[:, :T]),
                "strided": base[:, ::2]}[layout]
        weights = {}
        for g in ("z", "r", "h"):
            weights[f"d_w{g}"] = rng.normal(size=(D, U))
            weights[f"d_u{g}"] = rng.normal(size=(U, U))
            weights[f"d_b{g}"] = rng.normal(size=U)
        c = rng.normal(size=(B, T, U))
        runs = []
        for gru in (vollab.net._gru_direction, composed_gru_direction):
            x = Tensor(data)
            p = {k: Tensor(v) for k, v in weights.items()}
            out = gru(x, p, "d", U, reverse)
            (out * Tensor(c, requires_grad=False)).sum().backward()
            runs.append((out.data, x.grad, {k: p[f"d_{k}"].grad for k in GRU_WEIGHTS}))
        (out_f, dx_f, g_f), (out_c, dx_c, g_c) = runs
        assert_same_bits(out_f, out_c, "output")
        assert_same_bits(dx_f, dx_c, "x")
        assert dx_f.strides == dx_c.strides
        for k in GRU_WEIGHTS:
            assert_same_bits(g_f[k], g_c[k], k)


class TestTrain:
    def test_learns_linear_readout(self, rng):
        x = rng.normal(size=(80, 5, 3))
        y = 0.5 * x[:, :, 0].mean(axis=1)
        cfg = NetConfig(
            conv_channels=8, heads=2, head_size=4, fcl1_units=8,
            gru1_units=8, gru2_units=4, epochs=20, patience=20,
            learning_rate=0.02, seed=1,
        )
        res = train(cfg, (x, y))
        base = float(np.abs(y[-16:]).mean())  # predict-zero yardstick
        assert res.best_val_mae < base

    def test_best_epoch_snapshot_returned(self, rng):
        x = rng.normal(size=(40, 5, 3))
        y = rng.normal(size=40)
        cfg = NetConfig(
            conv_channels=8, heads=2, head_size=4, fcl1_units=8,
            gru1_units=8, gru2_units=4, epochs=8, patience=8, seed=2,
        )
        res = train(cfg, (x, y))
        assert res.best_val_mae == min(res.val_history)
        assert res.val_history[res.best_epoch - 1] == res.best_val_mae
        # returned params really achieve the reported validation error
        cut = int(round(len(x) * 0.8))
        got = float(np.mean(np.abs(predict(res.params, x[cut:], cfg) - y[cut:])))
        assert got == pytest.approx(res.best_val_mae, rel=1e-12)

    def test_early_stopping_counts(self, rng):
        x = rng.normal(size=(40, 5, 3))
        y = rng.normal(size=40)
        cfg = NetConfig(
            conv_channels=8, heads=2, head_size=4, fcl1_units=8,
            gru1_units=8, gru2_units=4, epochs=30, patience=2, seed=3,
        )
        res = train(cfg, (x, y))
        assert res.epochs_run <= 30
        if res.epochs_run < 30:
            assert res.epochs_run - res.best_epoch == 2

    def test_deterministic(self, rng):
        x = rng.normal(size=(30, 5, 3))
        y = rng.normal(size=30)
        cfg = NetConfig(
            conv_channels=8, heads=2, head_size=4, fcl1_units=8,
            gru1_units=8, gru2_units=4, epochs=4, seed=5,
        )
        a = train(cfg, (x, y))
        b = train(cfg, (x, y))
        assert a.val_history == b.val_history
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])


class TestPersistence:
    def test_round_trip(self, tmp_path, rng):
        p = init_params(TINY_CONFIG, 3, seed=7)
        f = tmp_path / "params.txt"
        save_params(p, f)
        q = load_params(f)
        assert sorted(q) == sorted(p)
        for k in p:
            np.testing.assert_array_equal(q[k], p[k])
            assert q[k].shape == p[k].shape
