"""Adam optimizer over tensor-core parameters."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.99
EPS = 1e-8


class Adam:
    """Adam with (beta1, beta2) = (BETA1, BETA2), denominator guard EPS and
    a fixed lr."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self._m[i] = BETA1 * self._m[i] + (1 - BETA1) * g
            self._v[i] = BETA2 * self._v[i] + (1 - BETA2) * g * g
            m_hat = self._m[i] / (1 - BETA1 ** self.t)
            v_hat = self._v[i] / (1 - BETA2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)
