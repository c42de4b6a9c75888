"""Neural-net ops: golden values, shape/error contracts, invariances."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from anatomy_attn.gradcheck import grad_check
from anatomy_attn.tensor import NonFiniteError, Tensor
from anatomy_attn.ops import (BN_EPSILON, BatchNormState, LinearParams,
                              _windows, batch_norm, conv3x3, conv_1x1,
                              fully_connected, resize, softmax_channels,
                              softmax_pair)


class TestFullyConnected:
    def test_hand_computed_example(self):
        # W = [[1,2],[0,-1]], b = [1,0], v = [1,1] -> [1*1+2*1+1, -1] = [4,-1]
        p = LinearParams(Tensor([[1.0, 2.0], [0.0, -1.0]]), Tensor([1.0, 0.0]))
        out = fully_connected(Tensor([[1.0, 1.0]]), p)
        np.testing.assert_array_equal(out.data, [[4.0, -1.0]])

    def test_width_mismatch_rejected(self, rng):
        p = LinearParams.init(4, 2, rng)
        with pytest.raises(ValueError, match=re.escape(
                "fully_connected: input dim 3 != weight in-dim 4")):
            fully_connected(Tensor(np.zeros((2, 3))), p)

    def test_init_shapes_and_zero_bias(self, rng):
        p = LinearParams.init(6, 4, rng)
        assert p.weight.shape == (4, 6)
        np.testing.assert_array_equal(p.bias.data, np.zeros(4))


class TestConv1x1:
    def test_rank3_input_rejected(self):
        with pytest.raises(ValueError,
                           match="conv_1x1 expects a rank-4 input"):
            conv_1x1(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3))),
                     Tensor(np.zeros(2)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "conv_1x1: weight in-channels 2 != input channels 3")):
            conv_1x1(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.zeros((4, 2))),
                     Tensor(np.zeros(4)))

    def test_equals_channel_matmul(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        w = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(rng.normal(size=5))
        out = conv_1x1(x, w, b)
        expected = np.einsum("oc,nchw->nohw", w.data, x.data) \
            + b.data.reshape(1, 5, 1, 1)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


def _nine_tap_conv3x3(x, w, b, stride, g):
    """Reference 3x3 conv (padding 1) as one einsum per tap.

    Returns the output and the gradients for x, w and b under upstream g.
    """
    _, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ho, wo = g.shape[2:]
    out = np.zeros(g.shape)
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for di in range(3):
        for dj in range(3):
            taps = (slice(None), slice(None),
                    slice(di, di + stride * ho, stride),
                    slice(dj, dj + stride * wo, stride))
            out += np.einsum("oc,nchw->nohw", w[:, :, di, dj], xp[taps])
            gw[:, :, di, dj] = np.einsum("nohw,nchw->oc", g, xp[taps])
            gxp[taps] += np.einsum("oc,nohw->nchw", w[:, :, di, dj], g)
    out += b.reshape(1, -1, 1, 1)
    return out, gxp[:, :, 1:1 + h, 1:1 + wd], gw, g.sum(axis=(0, 2, 3))


class TestConv3x3:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("hw", [(7, 7), (8, 8), (7, 8), (3, 4)])
    def test_windows_equal_strided_sliding_window_view(self, rng, hw,
                                                        stride):
        xp = rng.normal(size=(2, 3) + hw)
        got = _windows(xp, stride)
        want = sliding_window_view(xp, (3, 3),
                                   axis=(2, 3))[:, :, ::stride, ::stride]
        assert got.shape == want.shape
        assert got.strides == want.strides
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, want)

    def test_identity_kernel(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0  # center tap only
        out = conv3x3(x, Tensor(w), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, x.data)

    def test_all_ones_kernel_counts_neighborhood(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        out = conv3x3(x, Tensor(np.ones((1, 1, 3, 3))),
                      Tensor(np.zeros(1)))
        # zero padding: corner sees 4 ones, edge 6, center 9
        np.testing.assert_array_equal(
            out.data[0, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="conv3x3 channel mismatch"):
            conv3x3(Tensor(np.zeros((1, 2, 4, 4))),
                    Tensor(np.zeros((3, 1, 3, 3))), Tensor(np.zeros(3)))

    def test_stride2_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        out = conv3x3(x, Tensor(rng.normal(size=(4, 3, 3, 3))),
                      Tensor(np.zeros(4)), stride=2)
        assert out.shape == (2, 4, 4, 4)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (2, 3, 7, 7),
                                       (3, 2, 1, 1), (2, 1, 6, 5),
                                       (1, 4, 5, 6)])
    def test_matches_nine_tap_einsum(self, rng, shape, stride):
        x_data = rng.normal(size=shape)
        w_data = rng.normal(size=(4, shape[1], 3, 3))
        b_data = rng.normal(size=4)
        x, w, b = (Tensor(a, requires_grad=True)
                   for a in (x_data, w_data, b_data))
        out = conv3x3(x, w, b, stride=stride)
        g = rng.normal(size=out.shape)
        out.backward(g)
        want_out, *want_grads = _nine_tap_conv3x3(x_data, w_data, b_data,
                                                  stride, g)
        # same sums in the same order: the forward is bit-identical
        np.testing.assert_array_equal(out.data, want_out)
        for got, want in zip((x.grad, w.grad, b.grad), want_grads):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("stride", [1, 2])
    def test_backward_keeps_no_patch_matrix(self, rng, stride):
        # The im2col matrix is 9 / stride**2 times the input; the backward
        # closure may hold the padded input but must rebuild the patches.
        x = Tensor(rng.normal(size=(4, 3, 16, 16)), requires_grad=True)
        out = conv3x3(x, Tensor(rng.normal(size=(5, 3, 3, 3))),
                      Tensor(np.zeros(5)), stride=stride)
        padded = 4 * 3 * 18 * 18
        held = [cell.cell_contents for cell in out._backward_fn.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert arrays
        assert max(a.size for a in arrays) <= padded


class TestResize:
    def test_bilinear_1d_golden(self):
        # 2 -> 4 upsample of [0, 1] along each axis
        x = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 1, 2))
        out = resize(x, (1, 4), "bilinear")
        np.testing.assert_allclose(out.data[0, 0, 0], [0.0, 0.25, 0.75, 1.0],
                                   atol=1e-12)

    def test_nearest_preserves_value_set(self, rng):
        x = Tensor(rng.integers(0, 2, size=(1, 1, 4, 4)).astype(float))
        out = resize(x, (7, 7), "nearest")
        assert set(np.unique(out.data)) <= set(np.unique(x.data))

    def test_nearest_upsample_block(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 0, 0] = 1.0
        out = resize(Tensor(x), (4, 4), "nearest")
        np.testing.assert_array_equal(out.data[0, 0, :2, :2], np.ones((2, 2)))
        assert out.data.sum() == 4.0

    def test_identity_when_same_size(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        for method in ("bilinear", "nearest"):
            np.testing.assert_allclose(resize(x, (5, 5), method).data, x.data,
                                       atol=1e-12)

    def test_bilinear_preserves_constant(self):
        x = Tensor(np.full((1, 1, 3, 3), 2.5))
        out = resize(x, (8, 5), "bilinear")
        np.testing.assert_allclose(out.data, 2.5, atol=1e-12)

    def test_downsample_shape(self, rng):
        out = resize(Tensor(rng.normal(size=(2, 3, 8, 8))), (3, 5))
        assert out.shape == (2, 3, 3, 5)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            resize(Tensor(np.zeros((1, 1, 2, 2))), (4, 4), "bicubic")

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            resize(Tensor(np.zeros((1, 1, 2, 2))), (0, 4))

    @pytest.mark.parametrize("method", ["bilinear", "nearest"])
    @pytest.mark.parametrize("src,dst", [((4, 4), (7, 5)), ((8, 6), (3, 2)),
                                         ((5, 3), (5, 9)), ((1, 4), (3, 1))])
    def test_backward_is_adjoint(self, rng, method, src, dst):
        # <resize(x), g> == <x, d resize(x) . g> for a linear map
        x = Tensor(rng.normal(size=(2, 3) + src))
        x.requires_grad = True
        g = rng.normal(size=(2, 3) + dst)
        out = resize(x, dst, method)
        out.backward(g)
        np.testing.assert_allclose(np.vdot(out.data, g),
                                   np.vdot(x.data, x.grad),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("target", [(3, 3), (7, 5), (16, 16)])
    def test_nearest_binary_mask_stays_exact(self, rng, target):
        mask = rng.integers(0, 2, size=(2, 1, 6, 6)).astype(float)
        out = resize(Tensor(mask), target, "nearest").data
        assert set(np.unique(out)) <= {0.0, 1.0}
        ri = np.minimum((np.arange(target[0]) * 6 / target[0]).astype(int), 5)
        cj = np.minimum((np.arange(target[1]) * 6 / target[1]).astype(int), 5)
        np.testing.assert_array_equal(out, mask[:, :, ri[:, None], cj])


def _composite_batch_norm(x, s, train):
    """Batch norm assembled from primitive tensor ops (the unfused form)."""
    axes = (0,) if x.data.ndim == 2 else (0, 2, 3)
    shape = (1, s.channels) + (1,) * (x.data.ndim - 2)
    gamma, beta = s.gamma.reshape(shape), s.beta.reshape(shape)
    if train:
        xm = x - x.mean(axis=axes, keepdims=True)
        var = (xm * xm).mean(axis=axes, keepdims=True)
        return xm / (var + BN_EPSILON) ** 0.5 * gamma + beta
    rm = Tensor(s.running_mean.reshape(shape))
    rstd = Tensor(np.sqrt(s.running_var + BN_EPSILON).reshape(shape))
    return (x - rm) / rstd * gamma + beta


def _bn_state(rng, channels):
    return BatchNormState(Tensor(rng.normal(size=channels)),
                          Tensor(rng.normal(size=channels)),
                          rng.normal(size=channels),
                          rng.uniform(0.5, 2.0, size=channels))


class TestBatchNorm:
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(5, 3), (4, 3, 3, 2)])
    def test_matches_composite_formula(self, rng, train, shape):
        x_data = rng.normal(size=shape) * 2 + 1
        g = rng.normal(size=shape)
        results = []
        for fn in (batch_norm, _composite_batch_norm):
            s = _bn_state(np.random.default_rng(5), 3)
            x = Tensor(x_data.copy())
            for t in (x, s.gamma, s.beta):
                t.requires_grad = True
            out = fn(x, s, train)
            out.backward(g)
            results.append((out.data, x.grad, s.gamma.grad, s.beta.grad))
        for fused, composite in zip(*results):
            np.testing.assert_allclose(fused, composite, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_single_graph_node(self, rng, train):
        s = _bn_state(rng, 3)
        x = Tensor(rng.normal(size=(4, 3)))
        assert batch_norm(x, s, train)._parents == (x, s.gamma, s.beta)

    def test_overflowing_batch_variance_raises_and_keeps_running_stats(self):
        s = BatchNormState.init(1)
        with pytest.raises(NonFiniteError, match="batch_norm"):
            batch_norm(Tensor([[1e200], [1.0], [2.0]]), s, True)
        np.testing.assert_array_equal(s.running_mean, [0.0])
        np.testing.assert_array_equal(s.running_var, [1.0])

    @pytest.mark.parametrize("shape", [(5, 3), (2, 3, 3, 3)])
    def test_eval_mode_gradcheck(self, rng, shape):
        s = _bn_state(rng, 3)

        def target(x, gamma, beta):
            t = BatchNormState(gamma, beta, s.running_mean, s.running_var)
            return (batch_norm(x, t, False)
                    * batch_norm(x, t, False).sigmoid()).sum()

        report = grad_check(target, [Tensor(rng.normal(size=shape)),
                                     s.gamma, s.beta])
        assert report.passed, report

    def test_rank3_rejected(self):
        with pytest.raises(ValueError):
            batch_norm(Tensor(np.zeros((2, 1, 3))), BatchNormState.init(1),
                       True)

    def test_two_point_normalization(self):
        # values [1, 3]: mean 2, biased std 1 -> normalized [-1, 1]
        s = BatchNormState.init(1)
        out = batch_norm(Tensor([[1.0], [3.0]]), s, True)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-2)

    def test_train_output_zero_mean_unit_var(self, rng):
        s = BatchNormState.init(3)
        out = batch_norm(Tensor(rng.normal(size=(16, 3, 4, 4))), s,
                         True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1, atol=1e-3)

    def test_running_stats_update(self, rng):
        s = BatchNormState.init(2)
        mean_array, var_array = s.running_mean, s.running_var
        x = rng.normal(size=(8, 2)) * 3 + 5
        batch_norm(Tensor(x), s, True)
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        np.testing.assert_allclose(s.running_mean, 0.9 * 0 + 0.1 * mu)
        np.testing.assert_allclose(s.running_var, 0.9 * 1 + 0.1 * var)
        # in place, like every update of model state
        assert s.running_mean is mean_array and s.running_var is var_array

    def test_eval_uses_running_stats(self):
        s = BatchNormState.init(1)
        s.running_mean[:] = 2.0
        s.running_var[:] = 4.0
        out = batch_norm(Tensor([[4.0]]), s, False)
        np.testing.assert_allclose(out.data, [[1.0]], atol=1e-2)

    def test_gamma_beta_affine(self):
        s = BatchNormState.init(1)
        s.gamma.data[:] = 3.0
        s.beta.data[:] = 1.0
        out = batch_norm(Tensor([[1.0]]), s, False)
        np.testing.assert_allclose(out.data, [[4.0]], atol=1e-2)

    def test_train_needs_two_elements(self):
        s = BatchNormState.init(2)
        with pytest.raises(ValueError):
            batch_norm(Tensor([[1.0, 2.0]]), s, True)

    def test_channel_mismatch_rejected(self):
        s = BatchNormState.init(2)
        with pytest.raises(ValueError):
            batch_norm(Tensor(np.zeros((4, 3))), s, True)

    def test_integer_running_stats_are_tracked_as_float64(self, rng):
        s = BatchNormState(Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           np.zeros(2, dtype=int), np.ones(2, dtype=int))
        x = rng.normal(size=(4, 2))
        batch_norm(Tensor(x), s, True)
        np.testing.assert_array_equal(s.running_mean, 0.1 * x.mean(axis=0))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="^batch_norm needs at least one "
                           "element per channel$"):
            batch_norm(Tensor(np.zeros((0, 2))), BatchNormState.init(2), False)


class TestSoftmaxPair:
    def test_log2_example(self):
        # logits (ln 2, 0): softmax = (2/3, 1/3)
        a, b = softmax_pair(Tensor([[np.log(2.0)]]), Tensor([[0.0]]))
        np.testing.assert_allclose(a.data, 2 / 3, atol=1e-12)
        np.testing.assert_allclose(b.data, 1 / 3, atol=1e-12)

    def test_equal_logits_give_half(self, rng):
        z = Tensor(rng.normal(size=(2, 5)))
        a, b = softmax_pair(z, z)
        np.testing.assert_allclose(a.data, 0.5, atol=1e-12)
        np.testing.assert_allclose(b.data, 0.5, atol=1e-12)

    def test_saturation_is_stable(self):
        a, b = softmax_pair(Tensor([[800.0]]), Tensor([[-800.0]]))
        np.testing.assert_allclose(a.data, 1.0, atol=1e-12)
        np.testing.assert_allclose(b.data, 0.0, atol=1e-12)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x, y, c):
        a1, _ = softmax_pair(Tensor([[x]]), Tensor([[y]]))
        a2, _ = softmax_pair(Tensor([[x + c]]), Tensor([[y + c]]))
        np.testing.assert_allclose(a1.data, a2.data, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            softmax_pair(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))))


class TestSoftmaxChannels:
    def test_sums_to_one(self, rng):
        out = softmax_channels(Tensor(rng.normal(size=(2, 3, 4, 4)))).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out > 0).all()

    def test_uniform_logits(self):
        out = softmax_channels(Tensor(np.zeros((1, 3, 2, 2)))).data
        np.testing.assert_allclose(out, 1 / 3, atol=1e-12)
