"""Tensor core: forward values, reverse-mode gradients, error handling."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anatomy_attn import NonFiniteError, Tensor, concat
from anatomy_attn.ops import LinearParams, fully_connected
from anatomy_attn.tensor import check_int, check_real


def _grad_of(f, x_data):
    x = Tensor(x_data, requires_grad=True)
    f(x).backward()
    return x.grad


class TestForward:
    def test_arithmetic_values(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        np.testing.assert_array_equal((a + b).data, [5, 7, 9])
        np.testing.assert_array_equal((a - b).data, [-3, -3, -3])
        np.testing.assert_array_equal((a * b).data, [4, 10, 18])
        np.testing.assert_allclose((a / b).data, [0.25, 0.4, 0.5])
        np.testing.assert_array_equal((-a).data, [-1, -2, -3])
        np.testing.assert_array_equal((a ** 2).data, [1, 4, 9])

    def test_scalar_operands(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_array_equal((a + 1.0).data, [2, 3])
        np.testing.assert_array_equal((2.0 - a).data, [1, 0])
        np.testing.assert_array_equal((6.0 / a).data, [6, 3])

    def test_ndarray_left_operand_gives_a_tensor(self):
        a = Tensor([1.0, 2.0])
        m = np.array([[3.0], [4.0]])
        for got, want in ((m + a, [[4, 5], [5, 6]]), (m - a, [[2, 1], [3, 2]]),
                          (m * a, [[3, 6], [4, 8]]),
                          (m / a, [[3, 1.5], [4, 2]])):
            assert isinstance(got, Tensor)
            np.testing.assert_array_equal(got.data, want)

    def test_unary_values(self):
        x = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(x.relu().data, [0, 0, 2])
        np.testing.assert_array_equal(x.abs().data, [1, 0, 2])
        np.testing.assert_allclose(x.exp().data, np.exp([-1, 0, 2]))
        assert x.sigmoid().data[1] == 0.5
        np.testing.assert_allclose(Tensor([1.0, np.e]).log().data, [0, 1])

    def test_sigmoid_is_stable_at_large_magnitudes(self):
        out = Tensor([-1000.0, 1000.0]).sigmoid().data
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_sigmoid_equals_the_formula_with_three_exps(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.concatenate([
            [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, tiny, -tiny,
             1e-310, -1e-310],
            np.random.default_rng(0).normal(scale=10.0, size=1000)])
        want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        np.testing.assert_array_equal(Tensor(x).sigmoid().data, want)

    def test_clamp(self):
        x = Tensor([-2.0, 0.0, 2.0])
        np.testing.assert_array_equal(x.clamp(lo=-1, hi=1).data, [-1, 0, 1])
        np.testing.assert_array_equal(x.clamp(lo=0).data, [0, 0, 2])
        np.testing.assert_array_equal(x.clamp(hi=0).data, [-2, 0, 0])

    def test_reductions(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        assert x.sum().data == 66.0
        assert x.mean().data == 5.5
        np.testing.assert_array_equal(x.sum(axis=0).data, [12, 15, 18, 21])
        np.testing.assert_array_equal(x.max(axis=1).data, [3, 7, 11])
        assert x.sum(axis=1, keepdims=True).shape == (3, 1)

    def test_reshape_and_concat(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert a.reshape((3, 2)).shape == (3, 2)
        c = concat([a, a], axis=0)
        assert c.shape == (4, 3)

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))


class TestBackward:
    def test_sum_of_product(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, [3, 4])
        np.testing.assert_array_equal(b.grad, [1, 2])

    def test_chain_and_accumulation(self):
        # y = x*x + x uses x twice: dy/dx = 2x + 1
        x = Tensor([3.0], requires_grad=True)
        (x * x + x).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_broadcast_gradient_is_unreduced(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (1, 3)
        np.testing.assert_array_equal(b.grad, [[2, 2, 2]])

    def test_scalar_broadcast_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        (a * 3.0).sum().backward()
        np.testing.assert_array_equal(a.grad, 3 * np.ones((2, 2)))

    def test_division_gradients(self):
        g = _grad_of(lambda x: (1.0 / x).sum(), np.array([2.0, 4.0]))
        np.testing.assert_allclose(g, [-0.25, -0.0625])

    def test_relu_subgradient_zero_at_origin(self):
        g = _grad_of(lambda x: x.relu().sum(), np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(g, [0, 0, 1])

    def test_max_ties_share_gradient(self):
        g = _grad_of(lambda x: x.max(axis=0).sum(),
                     np.array([2.0, 2.0, 1.0]))
        np.testing.assert_allclose(g, [0.5, 0.5, 0.0])

    def test_mean_gradient(self):
        g = _grad_of(lambda x: x.mean(), np.ones((2, 3)))
        np.testing.assert_allclose(g, np.full((2, 3), 1 / 6))

    @pytest.mark.parametrize("axis", [None, 0, 3, (2, 3), (0, 2, 3),
                                      (0, 1, 2, 3)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_mean_is_one_node_equal_to_sum_times_reciprocal(self, axis,
                                                            keepdims, rng):
        data = rng.normal(size=(2, 3, 4, 5))
        upstream = rng.normal(size=data.sum(axis=axis, keepdims=keepdims)
                              .shape)
        count = data.size // data.sum(axis=axis, keepdims=True).size
        x, ref = Tensor(data, requires_grad=True), Tensor(data,
                                                          requires_grad=True)
        out = x.mean(axis=axis, keepdims=keepdims)
        want = ref.sum(axis=axis, keepdims=keepdims) * (1.0 / count)
        assert out._parents == (x,)
        np.testing.assert_array_equal(out.data, want.data)
        out.backward(upstream)
        want.backward(upstream)
        np.testing.assert_array_equal(x.grad, ref.grad)

    def test_clamp_gradient_passes_inside_only(self):
        g = _grad_of(lambda x: x.clamp(lo=-1, hi=1).sum(),
                     np.array([-2.0, 0.5, 2.0]))
        np.testing.assert_array_equal(g, [0, 1, 0])

    def test_concat_splits_gradient(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        w = Tensor(np.arange(5.0))
        (concat([a, b], axis=0) * w).sum().backward()
        np.testing.assert_array_equal(a.grad, [0, 1])
        np.testing.assert_array_equal(b.grad, [2, 3, 4])

    def test_backward_into_diamond_graph(self):
        # z = (x + x) * (x + x) = 4x^2, dz/dx = 8x
        x = Tensor([1.5], requires_grad=True)
        s = x + x
        (s * s).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    @pytest.mark.parametrize("op", [
        lambda a: a + 2.0, lambda a: 2.0 + a, lambda a: a - 2.0,
        lambda a: 2.0 - a, lambda a: a * 2.0, lambda a: 2.0 * a,
        lambda a: a / 2.0, lambda a: 2.0 / a, lambda a: np.ones(2) - a],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul", "div", "rdiv",
             "ndarray_rsub"])
    def test_constant_operand_is_not_a_parent(self, op):
        a = Tensor([1.0, 4.0])
        out = op(a)
        assert out._parents == (a,)
        assert len(out._backward_fn(np.ones(2))) == 1

    def test_subtraction_is_one_node_with_both_gradients(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        out = a - b
        assert out._parents == (a, b)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, [[-2, -2, -2]])
        np.testing.assert_array_equal(_grad_of(lambda x: (1.0 - x).sum(),
                                               np.ones(2)), [-1, -1])

    @pytest.mark.parametrize("count", [1, 3], ids=["too_few", "too_many"])
    def test_gradient_count_must_match_parents(self, count):
        # a closure that drops or adds a gradient would otherwise lose one
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        out = Tensor._from_op(x.data * y.data, (x, y),
                              lambda g: (g,) * count, "bad_mul")
        with pytest.raises(ValueError):
            out.backward()

    def test_no_grad_tensors_stay_untouched(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])
        (a * b).sum().backward()
        assert b.grad is None


class TestNonFinite:
    def test_division_by_zero_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0]) / Tensor([0.0])

    def test_log_of_zero_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor([0.0]).log()

    def test_overflowing_exp_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor([1e308]).exp()

    def test_nan_construction_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])

    @pytest.mark.parametrize("op, name", [
        (lambda: Tensor([1.0]) / np.inf, "div"),
        (lambda: Tensor([1.0]) * np.array([np.nan]), "mul"),
        (lambda: np.inf - Tensor([1.0]), "sub")],
        ids=["div_inf", "mul_nan_array", "inf_minus"])
    def test_non_finite_constant_operand_raises(self, op, name):
        with pytest.raises(NonFiniteError,
                           match=f"constant operand of op '{name}'"):
            op()

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b, lambda a, b: a * b,
        lambda a, b: fully_connected(a, LinearParams(b, Tensor([0.0]))),
        lambda a, b: concat([a, b], axis=0).sum(),
        lambda a, b: concat([a, b], axis=1).mean()],
        ids=["add", "mul", "fully_connected", "sum", "mean"])
    def test_overflow_raises_without_numpy_warning(self, op):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                op(Tensor([[1.7e308]]), Tensor([[1.7e308]]))

    def test_overflowing_backward_leaves_inf_without_numpy_warning(self):
        # 1 / 1e-310 overflows in log's backward; Adam.step rejects it
        x = Tensor(np.full(2, 1e-310), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x.log().sum().backward()
        np.testing.assert_array_equal(x.grad, [np.inf, np.inf])


class TestNumberRules:
    @pytest.mark.parametrize("value, low, message", [
        (True, 0, "n must be an integer, got True"),
        (np.True_, 0, "n must be an integer, got np.True_"),
        (2.0, 0, "n must be an integer, got 2.0"),
        ("3", 0, "n must be an integer, got '3'"),
        (None, 0, "n must be an integer, got None"),
        (0, 1, "n must be >= 1, got 0"),
        (np.int64(-3), 0, "n must be >= 0, got -3")])
    def test_check_int_rejects(self, value, low, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_int(value, "n", low)

    def test_check_int_returns_an_int(self):
        assert check_int(5, "n", 5) == 5
        value = check_int(np.int32(7), "n", 0)
        assert type(value) is int and value == 7
        assert check_int(-3, "n") == -3  # no lower bound without `low`

    @pytest.mark.parametrize("value, kw, message", [
        (True, {}, "x must be a real number, got True"),
        ("0.5", {}, "x must be a real number, got '0.5'"),
        (None, {"low": 0}, "x must be a real number, got None"),
        (1j, {}, "x must be a real number, got 1j"),
        (np.nan, {}, "x must be finite, got nan"),
        (-np.inf, {}, "x must be finite, got -inf"),
        (10 ** 400, {}, f"x must be finite, got {10 ** 400}"),
        (-0.5, {"low": 0}, "x must be finite and >= 0, got -0.5"),
        (np.nan, {"low": 0}, "x must be finite and >= 0, got nan"),
        (0.0, {"low": 0, "strict": True}, "x must be finite and > 0, got 0.0"),
        (0, {"low": 0, "strict": True}, "x must be finite and > 0, got 0"),
        (np.inf, {"low": 0, "strict": True},
         "x must be finite and > 0, got inf")])
    def test_check_real_rejects(self, value, kw, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_real(value, "x", **kw)

    @pytest.mark.parametrize("value, kw", [
        (0, {"low": 0}), (-1e300, {}), (np.float32(0.5), {"low": 0,
                                                          "strict": True}),
        (3, {"low": 2.5, "strict": True}), (np.int64(2), {"low": 2})])
    def test_check_real_returns_a_float(self, value, kw):
        out = check_real(value, "x", **kw)
        assert type(out) is float and out == float(value)


finite_arrays = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1,
    max_size=8).map(lambda v: np.array(v, dtype=np.float64))


class TestProperties:
    @given(finite_arrays)
    @settings(max_examples=50, deadline=None)
    def test_sum_gradient_is_ones(self, data):
        g = _grad_of(lambda x: x.sum(), data)
        np.testing.assert_array_equal(g, np.ones_like(data))

    @given(finite_arrays)
    @settings(max_examples=50, deadline=None)
    def test_linearity_of_gradient(self, data):
        # grad of 3*f is 3*grad of f for f = sum of squares
        g1 = _grad_of(lambda x: (x * x).sum(), data)
        g3 = _grad_of(lambda x: ((x * x).sum() * 3.0), data)
        np.testing.assert_allclose(g3, 3 * g1, rtol=1e-12)

    @given(finite_arrays)
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_symmetry(self, data):
        s_pos = Tensor(data).sigmoid().data
        s_neg = Tensor(-data).sigmoid().data
        np.testing.assert_allclose(s_pos + s_neg, np.ones_like(data),
                                   atol=1e-12)
