"""Adam: the bias-corrected update, parameters without a gradient, and
non-finite gradients."""

import numpy as np
import pytest

from anatomy_attn.optim import Adam
from anatomy_attn.tensor import NonFiniteError, Tensor


def test_two_steps_match_hand_computed_update():
    # (beta1, beta2, eps) = (0.9, 0.99, 1e-8); the 1e-9 entry is small
    # enough that eps changes its step tenfold
    g1 = np.array([0.3, -1.5, 1e-9])
    g2 = np.array([-0.7, 0.2, 1e-9])
    p0 = np.array([1.0, -2.0, 0.5])
    lr = 0.1
    m1, v1 = 0.1 * g1, 0.01 * g1 ** 2
    p1 = p0 - lr * (m1 / 0.1) / (np.sqrt(v1 / 0.01) + 1e-8)
    m2, v2 = 0.9 * m1 + 0.1 * g2, 0.99 * v1 + 0.01 * g2 ** 2
    p2 = p1 - lr * (m2 / 0.19) / (np.sqrt(v2 / 0.0199) + 1e-8)

    p = Tensor(p0, requires_grad=True)
    opt = Adam([p], lr)
    for g, expected in ((g1, p1), (g2, p2)):
        p.grad = g.copy()
        opt.step()
        np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-15)


def test_parameter_without_gradient_is_unchanged():
    # its moments from the first step would move it if Adam did not skip it
    p = Tensor([1.0, 2.0], requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.array([0.5, -0.5])
    opt.step()
    after_first = p.data.copy()
    opt.zero_grad()
    opt.step()
    np.testing.assert_array_equal(p.data, after_first)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_gradient_raises_before_any_change(bad):
    # the bad gradient is the second one: the first must not move either
    p, q = Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0])
    opt = Adam([p, q], lr=0.1)
    p.grad, q.grad = np.array([0.5, -0.5]), np.array([0.25])
    opt.step()
    state = [a.copy() for a in (p.data, q.data, *opt._m, *opt._v)]
    p.grad, q.grad = np.array([0.5, -0.5]), np.array([bad])
    with pytest.raises(NonFiniteError, match="parameter 1"):
        opt.step()
    assert opt.t == 1
    for a, b in zip(state, (p.data, q.data, *opt._m, *opt._v), strict=True):
        assert a.tobytes() == b.tobytes()
