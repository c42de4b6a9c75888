"""Minimal dense fp64 tensor with reverse-mode automatic differentiation.

Shapes are plain tuples, rank <= 4, with the N x C x H x W layout used for
feature maps. Every op validates that its output is finite; NaN/Inf raises
NonFiniteError instead of propagating silently.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def is_int(value) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(value, name: str, low=None) -> int:
    """`value` as an int; raise ValueError naming `name` unless it is an
    integer (`is_int`) and, if `low` is given, >= `low`."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_real(value, name: str, low=None, strict: bool = False) -> float:
    """`value` as a float; raise ValueError naming `name` unless it is a
    real number, never a bool, that is finite (an int beyond the float
    range is not) and, if `low` is given, > `low` if `strict` else >= it."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        ok = math.isfinite(value) and (
            low is None or value > low or not strict and value == low)
    except OverflowError:
        ok = False
    if not ok:
        bound = "" if low is None else f" and {'>' if strict else '>='} {low}"
        raise ValueError(f"{name} must be finite{bound}, got {value}")
    return float(value)


class NonFiniteError(ArithmeticError):
    """An op produced NaN or Inf."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


# Ops that can overflow run with numpy's floating-point warnings off:
# _from_op raises NonFiniteError naming the op instead. One shared errstate
# decorator costs less per call than a `with` block and is thread-safe.
ignore_fp_errors = np.errstate(all="ignore")


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def logistic(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic sigmoid of an array: 1 / (1 + e^-x) for
    x >= 0 and e^x / (1 + e^x) below, both from e = e^-|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _spread(g, axis, keepdims: bool, shape: tuple) -> np.ndarray:
    """Gradient of a sum over `axis` of a `shape` array: `g` copied back
    over the summed axes."""
    g = np.asarray(g)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


class Tensor:
    """Dense fp64 array with optional gradient tracking.

    A Tensor is immutable once produced by an op except for its `grad`
    buffer. The graph built by ops is confined to one thread of execution.
    `Adam.step` writes into parameters and a train-mode forward into
    running statistics in place, and backward closures read those arrays
    (an eval-mode `_gated_fuse` reads a running mean), so a graph must not
    be backpropagated after a step or a train-mode forward of its model.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")
    # numpy defers `ndarray <op> Tensor` to the Tensor's reflected method
    # instead of building an object array of Tensors
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        if self.data.ndim > 4:
            raise ValueError(f"rank {self.data.ndim} > 4 not supported")
        _check_finite(self.data, "tensor")
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data, parents, backward_fn, op: str) -> "Tensor":
        """The output of op `op`: `backward_fn(g)` returns the gradient
        for each of `parents`, one per entry and in that order."""
        data = np.asarray(data, dtype=np.float64)
        _check_finite(data, op)
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = False
        out.grad = None
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff -------------------------------------------------------------

    @ignore_fp_errors
    def backward(self, grad=None) -> None:
        """Reverse-mode sweep from this tensor through its graph, with
        numpy's floating-point warnings off: a non-finite gradient is
        left for `Adam.step` to reject. A node whose backward returns a
        gradient count other than its parent count raises ValueError."""
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        grads = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node))
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            if node._backward_fn is None:
                continue
            for parent, pg in zip(node._parents, node._backward_fn(g),
                                  strict=True):
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- elementwise ops ------------------------------------------------------

    def __add__(self, other):
        return _binary(self, other, "add")

    def __radd__(self, other):
        return _binary(other, self, "add")

    def __neg__(self):
        return _unary(self, "neg")

    def __sub__(self, other):
        return _binary(self, other, "sub")

    def __rsub__(self, other):
        return _binary(other, self, "sub")

    def __mul__(self, other):
        return _binary(self, other, "mul")

    def __rmul__(self, other):
        return _binary(other, self, "mul")

    def __truediv__(self, other):
        return _binary(self, other, "div")

    def __rtruediv__(self, other):
        return _binary(other, self, "div")

    def __pow__(self, exponent: float):
        return _unary(self, "pow", exponent)

    def exp(self):
        return _unary(self, "exp")

    def log(self):
        return _unary(self, "log")

    def relu(self):
        return _unary(self, "relu")

    def sigmoid(self):
        return _unary(self, "sigmoid")

    def abs(self):
        return _unary(self, "abs")

    def clamp(self, lo=None, hi=None):
        """Clip values; gradient passes through only inside [lo, hi]."""
        return _unary(self, "clamp", lo, hi)

    # -- reductions -----------------------------------------------------------

    @ignore_fp_errors
    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            return (_spread(g, axis, keepdims, self.shape),)

        return Tensor._from_op(out_data, (self,), bwd, "sum")

    @ignore_fp_errors
    def mean(self, axis=None, keepdims: bool = False):
        """`sum` times the reciprocal count, as one node."""
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = math.prod(self.shape[a] for a in axes)
        scale = 1.0 / count
        out_data = self.data.sum(axis=axis, keepdims=keepdims) * scale

        def bwd(g):
            return (_spread(g * scale, axis, keepdims, self.shape),)

        return Tensor._from_op(out_data, (self,), bwd, "mean")

    def max(self, axis):
        """Max over the given axes, which are dropped; ties share the
        gradient equally."""
        out_data = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == out_data).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True)

        def bwd(g):
            return (mask * np.expand_dims(g, axis),)

        return Tensor._from_op(np.squeeze(out_data, axis=axis), (self,), bwd,
                               "max")

    # -- shape ops ------------------------------------------------------------

    def reshape(self, shape):
        src_shape = self.shape

        def bwd(g):
            return (g.reshape(src_shape),)

        return Tensor._from_op(self.data.reshape(shape), (self,), bwd, "reshape")


# forward of each unary op given the operand array x and the op's constant
# arguments, then its partial given the output gradient g, x, the output y
# and those arguments
_UNARY_OPS = {
    "neg": (lambda x: -x, lambda g, x, y: -g),
    "pow": (lambda x, e: x ** e, lambda g, x, y, e: g * e * x ** (e - 1)),
    "exp": (np.exp, lambda g, x, y: g * y),
    "log": (np.log, lambda g, x, y: g / x),
    "relu": (lambda x: x * (x > 0.0), lambda g, x, y: g * (x > 0.0)),
    "sigmoid": (logistic, lambda g, x, y: g * y * (1.0 - y)),
    "abs": (np.abs, lambda g, x, y: g * np.sign(x)),
    "clamp": (np.clip, lambda g, x, y, lo, hi: g * (
        (lo is None or x >= lo) & (hi is None or x <= hi))),
}


@ignore_fp_errors
def _unary(x: Tensor, op: str, *args) -> Tensor:
    """`op` of `x` with the constant arguments `args`, as one node."""
    forward, partial = _UNARY_OPS[op]
    xd = x.data
    yd = forward(xd, *args)

    def bwd(g):
        return (partial(g, xd, yd, *args),)

    return Tensor._from_op(yd, (x,), bwd, op)


# forward of each binary op, then its partials with respect to the left and
# the right operand, given the output gradient g and the operand arrays x, y
_BINARY_OPS = {
    "add": (np.add, lambda g, x, y: g, lambda g, x, y: g),
    "sub": (np.subtract, lambda g, x, y: g, lambda g, x, y: -g),
    "mul": (np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x),
    "div": (np.divide, lambda g, x, y: g / y,
            lambda g, x, y: -g * x / y ** 2),
}


@ignore_fp_errors
def _binary(x, y, op: str) -> Tensor:
    """`x <op> y` as one node. An operand that is not a Tensor is a
    constant: it must be finite, and it is neither a parent nor given a
    gradient."""
    forward, dx, dy = _BINARY_OPS[op]
    xd, yd = _operand(x, op), _operand(y, op)
    partials = [(t, d) for t, d in ((x, dx), (y, dy)) if isinstance(t, Tensor)]

    def bwd(g):
        return [_unbroadcast(d(g, xd, yd), t.shape) for t, d in partials]

    return Tensor._from_op(forward(xd, yd), [t for t, _ in partials], bwd, op)


def _operand(v, op: str) -> np.ndarray:
    if isinstance(v, Tensor):
        return v.data
    v = np.asarray(v, dtype=np.float64)
    if not (math.isfinite(v) if v.ndim == 0 else np.isfinite(v).all()):
        raise NonFiniteError(f"non-finite constant operand of op '{op}'")
    return v


def concat(tensors, axis: int) -> Tensor:
    """Concatenate a list of Tensors along `axis`, with the gradient split
    back to the parts."""
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        pieces = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            pieces.append(g[tuple(idx)])
        return pieces

    return Tensor._from_op(out_data, tensors, bwd, "concat")
