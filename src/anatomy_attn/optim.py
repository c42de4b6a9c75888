"""Adam optimizer over tensor-core parameters, kept in one flat store."""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError, check_real

BETA1 = 0.9
BETA2 = 0.99
EPS = 1e-8


class Adam:
    """Adam with (beta1, beta2) = (BETA1, BETA2), denominator guard EPS and
    a fixed lr.

    The optimizer owns one contiguous float64 store: construction copies
    the parameters into it in list order and rebinds each `p.data` to a
    view of it. A step is `zero_grad`, `backward` of a loss that reaches
    every parameter, then `step`, which updates the whole store and the
    moments in place with whole-array ufuncs. Elementwise operations round
    each element the same way whatever the layout, so every parameter
    moves exactly as under a per-tensor update. To set a parameter, write
    into `p.data[...]`: a parameter whose `.data` was rebound no longer
    views the store, and `step` raises ValueError naming it."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = check_real(lr, "lr", 0)  # lr 0 holds every parameter still
        if not self.params:
            raise ValueError("params must hold at least one parameter")
        first = {}
        for i, p in enumerate(self.params):
            j = first.setdefault(id(p), i)
            if j != i:
                raise ValueError(f"params lists parameter {j} twice "
                                 f"(again at {i})")
        self.t = 0
        sizes = [p.size for p in self.params]
        self._store = np.concatenate([p.data.ravel() for p in self.params])
        chunks = np.split(self._store, np.cumsum(sizes)[:-1])
        self._views = [c.reshape(p.shape) for c, p in zip(chunks, self.params)]
        for p, view in zip(self.params, self._views):
            p.data = view
        self._m = np.zeros_like(self._store)
        self._v = np.zeros_like(self._store)
        self._g = np.empty_like(self._store)
        self._tmp = np.empty_like(self._store)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Update every parameter on its own gradient. ValueError for a
        parameter that no longer views the store or a missing or
        wrong-shaped gradient, NonFiniteError for a non-finite one; each
        raises before any parameter, moment or `t` changes."""
        for i, (p, view) in enumerate(zip(self.params, self._views)):
            if p.data is not view:
                raise ValueError(f"parameter {i} {view.shape} no longer "
                                 f"views the Adam store: its .data was "
                                 f"rebound; write into .data[...] instead")
            if p.grad is None:
                raise ValueError(f"parameter {i} {view.shape} has no gradient")
            if p.grad.shape != view.shape:
                raise ValueError(f"gradient of parameter {i} has shape "
                                 f"{p.grad.shape}, expected {view.shape}")
        g = np.concatenate([p.grad.ravel() for p in self.params], out=self._g)
        if not np.isfinite(g).all():
            for i, p in enumerate(self.params):
                if not np.isfinite(p.grad).all():
                    raise NonFiniteError(f"non-finite gradient of parameter "
                                         f"{i} {p.grad.shape} in Adam.step")
        self.t += 1
        m, v, tmp = self._m, self._v, self._tmp
        # m = BETA1 m + (1 - BETA1) g; v = BETA2 v + (1 - BETA2) g g
        np.multiply(m, BETA1, out=m)
        np.multiply(g, 1 - BETA1, out=tmp)
        np.add(m, tmp, out=m)
        np.multiply(v, BETA2, out=v)
        np.multiply(g, 1 - BETA2, out=tmp)
        np.multiply(tmp, g, out=tmp)
        np.add(v, tmp, out=v)
        # p -= lr m_hat / (sqrt(v_hat) + EPS), with g as the denominator
        np.divide(v, 1 - BETA2 ** self.t, out=g)
        np.sqrt(g, out=g)
        np.add(g, EPS, out=g)
        np.divide(m, 1 - BETA1 ** self.t, out=tmp)
        np.multiply(tmp, self.lr, out=tmp)
        np.divide(tmp, g, out=tmp)
        np.subtract(self._store, tmp, out=self._store)
