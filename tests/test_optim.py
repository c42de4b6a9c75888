"""Adam: the bias-corrected update, the one update path that every
parameter takes, a missing or non-finite gradient, bad arguments, and
the flat store that the parameters view."""

import re

import numpy as np
import pytest

from anatomy_attn.model import ModelConfig, ToyModel
from anatomy_attn.optim import BETA1, BETA2, EPS, Adam
from anatomy_attn.tensor import NonFiniteError, Tensor


def _per_tensor_steps(values, grads_per_step, lr):
    """The per-tensor update that the flat store replaced: the parameter
    values after each step."""
    values = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    after = []
    for t, grads in enumerate(grads_per_step, start=1):
        for i, g in enumerate(grads):
            m[i] = BETA1 * m[i] + (1 - BETA1) * g
            v2[i] = BETA2 * v2[i] + (1 - BETA2) * g * g
            m_hat = m[i] / (1 - BETA1 ** t)
            v_hat = v2[i] / (1 - BETA2 ** t)
            values[i] = values[i] - lr * m_hat / (np.sqrt(v_hat) + EPS)
        after.append([v.copy() for v in values])
    return after


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


def test_missing_gradient_raises_before_any_change():
    # the gradient of parameter 1 is missing: parameter 0, whose gradient
    # is there, must not move either
    p, q = Tensor([1.0, 2.0], requires_grad=True), Tensor([[3.0, 4.0]])
    opt = Adam([p, q], lr=0.1)
    p.grad, q.grad = np.array([0.5, -0.5]), np.array([[0.25, -1.0]])
    opt.step()
    state = [a.copy() for a in (opt._store, opt._m, opt._v)]
    opt.zero_grad()
    p.grad = np.array([0.5, -0.5])
    with pytest.raises(ValueError, match=r"^parameter 1 \(1, 2\) has no "
                                         r"gradient$"):
        opt.step()
    assert opt.t == 1
    for a, b in zip(state, (opt._store, opt._m, opt._v), strict=True):
        assert a.tobytes() == b.tobytes()


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


def test_steps_match_the_per_tensor_update_bit_for_bit():
    # mixed shapes and gradients over ten decades (eps matters at the
    # small end)
    rng = np.random.default_rng(0)
    shapes = [(3, 4), (5,), (), (2, 1, 3, 3), (1,)]
    values = [rng.normal(size=shape) for shape in shapes]
    grads_per_step = [
        [rng.normal(size=shape) * 10.0 ** rng.uniform(-9, 1, size=shape)
         for shape in shapes]
        for _ in range(7)]
    lr = 3e-3
    params = [Tensor(v, requires_grad=True) for v in values]
    opt = Adam(params, lr)
    expected = _per_tensor_steps(values, grads_per_step, lr)
    for grads, want in zip(grads_per_step, expected, strict=True):
        opt.zero_grad()
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        for p, w in zip(params, want, strict=True):
            assert p.shape == w.shape
            assert p.data.tobytes() == w.tobytes()


def _assert_views_store(opt):
    for i, p in enumerate(opt.params):
        assert np.shares_memory(p.data, opt._store), i


def test_parameters_view_the_store_after_construction_step_and_load():
    model = ToyModel(ModelConfig(image_size=16, mask_size=4,
                                 backbone_widths=(2, 3, 3, 4)), seed=0)
    params = [t for _, t in model.parameters()]
    before = [p.data.copy() for p in params]
    opt = Adam(params, lr=0.1)
    _assert_views_store(opt)
    assert opt._store.size == sum(p.size for p in params)
    for p, b in zip(params, before, strict=True):
        assert p.data.tobytes() == b.tobytes()

    rng = np.random.default_rng(1)
    for p in params:
        p.grad = rng.normal(size=p.shape)
    opt.step()
    _assert_views_store(opt)
    assert all(not np.array_equal(p.data, b) for p, b in zip(params, before))

    model.load_state({name: arr + 1.0
                      for name, arr in model.snapshot().items()})
    _assert_views_store(opt)
    stepped = [p.data.copy() for p in params]
    opt.step()
    assert all(not np.array_equal(p.data, s) for p, s in zip(params, stepped))


def test_rebound_parameter_raises_before_any_change():
    p, q = Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0])
    opt = Adam([p, q], lr=0.1)
    q.data = q.data + 1.0  # a new array: the store no longer holds q
    p.grad, q.grad = np.array([0.5, -0.5]), np.array([0.25])
    with pytest.raises(ValueError, match=r"^parameter 1 \(1,\) no longer "
                                         r"views the Adam store"):
        opt.step()
    assert opt.t == 0
    assert p.data.tolist() == [1.0, 2.0]


def test_gradient_of_the_wrong_shape_raises():
    p = Tensor([1.0, 2.0], requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.array([[0.5, -0.5]])
    with pytest.raises(ValueError, match=r"^gradient of parameter 0 has "
                                         r"shape \(1, 2\), expected \(2,\)"):
        opt.step()
    assert opt.t == 0


@pytest.mark.parametrize("lr, message", [
    (np.nan, "lr must be finite and >= 0, got nan"),
    (np.inf, "lr must be finite and >= 0, got inf"),
    (-0.1, "lr must be finite and >= 0, got -0.1"),
    pytest.param(10 ** 400, f"lr must be finite and >= 0, got {10 ** 400}",
                 id="int beyond float"),
    (True, "lr must be a real number, got True"),
    ("0.1", "lr must be a real number, got '0.1'")])
def test_bad_lr_rejected(lr, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Adam([Tensor([1.0])], lr)


def test_zero_lr_holds_parameters_still():
    p = Tensor([1.0, -2.0], requires_grad=True)
    opt = Adam([p], lr=0)
    p.grad = np.array([0.5, -0.5])
    opt.step()
    assert p.data.tolist() == [1.0, -2.0]


@pytest.mark.parametrize("make, message", [
    (lambda p, q: [p, q, p], "params lists parameter 0 twice (again at 2)"),
    (lambda p, q: [q, q], "params lists parameter 0 twice (again at 1)"),
    (lambda p, q: [], "params must hold at least one parameter")],
    ids=["first again", "adjacent", "empty"])
def test_bad_params_rejected(make, message):
    p, q = Tensor([1.0]), Tensor([2.0])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Adam(make(p, q), 0.1)
