"""Minimal reverse-mode automatic differentiation on numpy arrays.

Just enough ops for the forecasting network: broadcasting arithmetic,
batched matmul, elementwise nonlinearities, reductions, slicing, padding,
concatenation and reshapes.  Gradients propagate in float of whatever
dtype the leaves carry, so the whole graph can run in float64 or
longdouble (used by the finite-difference checks).
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` after a broadcast."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "_backward", "_prev", "requires_grad")

    def __init__(self, data, prev=(), requires_grad=True):
        self.data = np.asarray(data)
        self.grad = None
        self._backward = None
        self._prev = prev
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    # -- graph plumbing ----------------------------------------------------
    def _accum(self, g):
        if not self.requires_grad:
            return
        if self.grad is None:
            # 0 + g, laid out like data: a gradient's layout picks the BLAS
            # kernel of the next matmul it enters, and so that matmul's bits
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self):
        """Add d(self)/d(leaf) into every leaf's grad, releasing the graph.

        Each interior node is dropped once its _backward has run: its grad,
        _backward and _prev are cleared, so its closure's activations and its
        gradient are freed as the sweep passes.  A graph supports one
        backward; leaves keep their grad.
        """
        # depth-first post-order over _prev, in order; an explicit stack, as
        # a recurrent graph is deeper than Python's recursion limit
        topo, seen = [], {id(self)}
        stack = [(self, iter(self._prev))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._prev)))
                    break
            else:
                stack.pop()
                topo.append(t)
        self.grad = np.ones_like(self.data)
        while topo:
            t = topo.pop()
            if not t._prev:  # a leaf
                continue
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)
            t.grad = t._backward = None
            t._prev = ()

    # -- arithmetic --------------------------------------------------------
    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x), requires_grad=False)

    def __add__(self, other):
        other = self._lift(other)
        out = Tensor(self.data + other.data, (self, other))

        def bw(g):
            self._accum(_unbroadcast(g, self.shape))
            other._accum(_unbroadcast(g, other.shape))

        out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))
        out._backward = lambda g: self._accum(-g)
        return out

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        out = Tensor(self.data * other.data, (self, other))

        def bw(g):
            self._accum(_unbroadcast(g * other.data, self.shape))
            other._accum(_unbroadcast(g * self.data, other.shape))

        out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return self * other ** -1.0

    def __pow__(self, p: float):
        out = Tensor(self.data ** p, (self,))
        out._backward = lambda g: self._accum(g * p * self.data ** (p - 1.0))
        return out

    def __matmul__(self, other):
        other = self._lift(other)
        out = Tensor(self.data @ other.data, (self, other))

        def bw(g):
            ga = g @ np.swapaxes(other.data, -1, -2)
            gb = np.swapaxes(self.data, -1, -2) @ g
            self._accum(_unbroadcast(ga, self.shape))
            other._accum(_unbroadcast(gb, other.shape))

        out._backward = bw
        return out

    # -- nonlinearities ----------------------------------------------------
    # Each backward closes over the output array, not the output tensor: a
    # tensor whose closure refers to itself is a reference cycle, and a
    # graph in cycles outlives its step until the cyclic collector runs.
    def exp(self):
        out = Tensor(np.exp(self.data), (self,))
        y = out.data
        out._backward = lambda g: self._accum(g * y)
        return out

    def tanh(self):
        out = Tensor(np.tanh(self.data), (self,))
        y = out.data
        out._backward = lambda g: self._accum(g * (1.0 - y ** 2))
        return out

    def sigmoid(self):
        out = Tensor(1.0 / (1.0 + np.exp(-self.data)), (self,))
        y = out.data
        out._backward = lambda g: self._accum(g * y * (1.0 - y))
        return out

    def abs(self):
        out = Tensor(np.abs(self.data), (self,))
        # subgradient at 0 is taken as 0
        out._backward = lambda g: self._accum(g * np.sign(self.data))
        return out

    # -- reductions ----------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.shape).copy())

        out._backward = bw
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape ops -----------------------------------------------------------
    def __getitem__(self, key):
        out = Tensor(self.data[key], (self,))
        # a key of ints and slices selects each element at most once
        basic = all(k is None or k is Ellipsis or isinstance(k, (int, slice))
                    for k in (key if isinstance(key, tuple) else (key,)))

        def bw(g):
            full = np.zeros_like(self.data)
            if basic:
                full[key] += g
            else:
                np.add.at(full, key, g)
            self._accum(full)

        out._backward = bw
        return out

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), (self,))
        out._backward = lambda g: self._accum(g.reshape(self.shape))
        return out

    def transpose(self, *axes):
        out = Tensor(self.data.transpose(*axes), (self,))
        inv = np.argsort(axes)
        out._backward = lambda g: self._accum(g.transpose(*inv))
        return out

    def pad_axis(self, axis: int, before: int, after: int):
        width = [(0, 0)] * self.data.ndim
        width[axis] = (before, after)
        out = Tensor(np.pad(self.data, width), (self,))
        sl = [slice(None)] * self.data.ndim
        sl[axis] = slice(before, before + self.shape[axis])
        out._backward = lambda g: self._accum(g[tuple(sl)])
        return out


def concat(tensors, axis: int) -> Tensor:
    datas = [t.data for t in tensors]
    out = Tensor(np.concatenate(datas, axis=axis), tuple(tensors))
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accum(g[tuple(sl)])

    out._backward = bw
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    # shifting by a detached max leaves both value and gradient unchanged
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True), requires_grad=False)
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)
