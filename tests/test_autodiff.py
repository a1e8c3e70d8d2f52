"""Finite-difference checks for every primitive in the autodiff engine, and
the release of a graph by its one backward."""

import tracemalloc

import numpy as np
import pytest

from oracles import recursive_backward, stack
from vollab.autodiff import Tensor, concat, softmax
from vollab.net import NetConfig, init_params, mae_and_grads


def fd_grad(fn, x, h=1e-6):
    """Central-difference gradient of a scalar fn at x (elementwise)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2 * h)
        it.iternext()
    return g


def check(build, x, h=1e-6, atol=1e-7):
    """build(Tensor) -> Tensor scalar; compare backward against FD."""
    t = Tensor(np.asarray(x, dtype=float))
    out = build(t)
    out.backward()
    want = fd_grad(lambda v: float(build(Tensor(v)).data), np.asarray(x, float), h)
    np.testing.assert_allclose(t.grad, want, atol=atol, rtol=1e-6)


class TestElementwise:
    def test_add_mul_sub(self, rng):
        x = rng.normal(size=(3, 4))
        check(lambda t: ((t + 2.0) * t - t * 0.5).sum(), x)

    def test_div_pow(self, rng):
        x = rng.uniform(0.5, 2.0, size=(3, 3))
        check(lambda t: (t / (t + 1.0)).sum(), x)
        check(lambda t: (t ** 3).sum(), x)

    def test_exp_log_tanh_sigmoid(self, rng):
        x = rng.uniform(0.2, 1.5, size=(2, 5))
        check(lambda t: t.exp().sum(), x)
        check(lambda t: t.tanh().sum(), x)
        check(lambda t: t.sigmoid().sum(), x)

    def test_abs_away_from_kink(self, rng):
        x = rng.normal(size=10)
        x[np.abs(x) < 0.1] = 0.5
        check(lambda t: t.abs().sum(), x)

    def test_abs_subgradient_at_zero(self):
        t = Tensor(np.array([0.0]))
        t.abs().sum().backward()
        assert t.grad[0] == 0.0


class TestBroadcasting:
    def test_row_vector_broadcast(self, rng):
        x = rng.normal(size=(1, 4))
        other = rng.normal(size=(3, 4))
        check(lambda t: (t + Tensor(other, requires_grad=False)).sum(), x)

    def test_scalar_broadcast(self, rng):
        x = rng.normal(size=())
        other = rng.normal(size=(2, 3))
        check(lambda t: (t * Tensor(other, requires_grad=False)).sum(), x)


class TestMatmul:
    def test_2d(self, rng):
        A = rng.normal(size=(3, 4))
        B = rng.normal(size=(4, 2))
        check(lambda t: (t @ Tensor(B, requires_grad=False)).sum(), A)
        check(lambda t: (Tensor(A, requires_grad=False) @ t).sum(), B)

    def test_batched(self, rng):
        A = rng.normal(size=(5, 3, 4))
        B = rng.normal(size=(5, 4, 2))
        check(lambda t: (t @ Tensor(B, requires_grad=False)).sum(), A)
        check(lambda t: (Tensor(A, requires_grad=False) @ t).sum(), B)


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self, rng):
        x = rng.normal(size=(3, 4))
        check(lambda t: (t.sum(axis=0) ** 2).sum(), x)
        check(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), x)

    def test_mean(self, rng):
        x = rng.normal(size=(4, 2))
        check(lambda t: (t.mean(axis=1) ** 2).sum(), x)
        check(lambda t: t.mean(), x)

    def test_getitem(self, rng):
        x = rng.normal(size=(4, 5))
        check(lambda t: (t[1:3, ::2] ** 2).sum(), x)

    def test_getitem_accumulates_on_repeats(self):
        t = Tensor(np.arange(3.0))
        (t[np.array([0, 0, 2])].sum()).backward()
        np.testing.assert_array_equal(t.grad, [2.0, 0.0, 1.0])

    def test_reshape_transpose_flip_pad(self, rng):
        x = rng.normal(size=(2, 3, 4))
        check(lambda t: (t.reshape(6, 4) ** 2).sum(), x)
        check(lambda t: (t.transpose(2, 0, 1) ** 2).mean(), x)
        check(lambda t: (t.pad_axis(1, 2, 1) ** 2).sum(), x)


class TestCombinators:
    def test_concat(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 2))

        def f(t):
            return (concat([t, Tensor(b, requires_grad=False)], axis=1) ** 2).sum()

        check(f, a)

    def test_stack(self, rng):
        a = rng.normal(size=(2, 3))
        check(lambda t: (stack([t, t * 2.0], axis=0) ** 2).sum(), a)

    def test_softmax(self, rng):
        x = rng.normal(size=(3, 5))
        check(lambda t: (softmax(t, axis=-1) * np.arange(5.0)).sum(), x)

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(4, 6)) * 10
        s = softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


class TestEngine:
    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([2.0]))
        y = t * t  # d/dt = 2t via two paths
        y.sum().backward()
        assert t.grad[0] == pytest.approx(4.0)

    def test_no_grad_for_constants(self):
        c = Tensor(np.ones(3), requires_grad=False)
        t = Tensor(np.ones(3))
        (t * c).sum().backward()
        assert c.grad is None

    def test_dtype_preserved_in_longdouble(self):
        x = Tensor(np.ones(4, dtype=np.longdouble) * 0.3)
        y = (x.tanh() * x.exp()).sum()
        assert np.asarray(y.data).dtype == np.longdouble
        y.backward()
        assert x.grad.dtype == np.longdouble

    def test_grad_is_laid_out_like_data(self, rng):
        t = Tensor(np.asfortranarray(rng.normal(size=(3, 4))))
        (t * 2.0).sum().backward()
        assert t.grad.strides == t.data.strides

    def test_diamond_graph(self, rng):
        x = rng.normal(size=5)

        def f(t):
            a = t.tanh()
            b = t.exp()
            return (a * b + a).sum()

        check(f, x)


def graph_nodes(root):
    """Every tensor reachable from root through _prev."""
    seen, todo = {id(root): root}, [root]
    while todo:
        for p in todo.pop()._prev:
            if id(p) not in seen:
                seen[id(p)] = p
                todo.append(p)
    return list(seen.values())


class TestGraphRelease:
    @staticmethod
    def build(rng_seed):
        rng = np.random.default_rng(rng_seed)
        w = Tensor(rng.normal(size=(4, 3)))
        x = Tensor(rng.normal(size=(2, 5, 4)))
        c = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=False)
        h = (x @ w).tanh()
        a = softmax(h * c, axis=-1)
        z = concat([a, h[:, ::2, :].pad_axis(1, 0, 2)], axis=2)
        out = (z.reshape(10, 6).transpose(1, 0) ** 2).mean() + (h - a).abs().sum()
        return out, {"w": w, "x": x, "c": c}

    def test_backward_releases_interior_nodes_and_keeps_leaf_grads(self):
        out, leaves = self.build(7)
        nodes = graph_nodes(out)
        interior = [t for t in nodes if t._prev]
        # x, w, c and the constants that mean and softmax lift
        leaf_nodes = [t for t in nodes if not t._prev]
        assert len(interior) > 10 and len(leaf_nodes) > len(leaves)
        out.backward()
        for t in interior:
            assert t.grad is None and t._backward is None and t._prev == ()
        for t in leaf_nodes:  # only a constant takes no gradient
            assert (t.grad is not None) == t.requires_grad
        oracle_out, oracle_leaves = self.build(7)
        recursive_backward(oracle_out)
        for name in ("w", "x"):
            assert leaves[name].grad.tobytes() == oracle_leaves[name].grad.tobytes(), name

    def test_default_net_step_peak_memory(self):
        # activations and gradients are freed as the reverse sweep passes
        # them; holding the whole graph to the end took 12.5 MB
        x, y = np.random.default_rng(0).normal(size=(32, 5, 12)), np.zeros(32)
        params = init_params(NetConfig(), 12)
        tracemalloc.start()
        try:
            mae_and_grads(params, x, y, NetConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9e6
