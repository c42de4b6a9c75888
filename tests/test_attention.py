"""Attention block: pooling identities, coupled softmax, mask gating."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anatomy_attn.attention import (AaaParams, AnatomyMasks, PwapParams,
                                    _gated_fuse, aaa_forward,
                                    couple_attention, pwap)
from anatomy_attn.ops import batch_norm, named_tensors, resize
from anatomy_attn.tensor import NonFiniteError, Tensor


def _masks(rng, n, h, w):
    lung = (rng.random((n, 1, h, w)) < 0.4).astype(float)
    heart = (rng.random((n, 1, h, w)) < 0.3).astype(float) * (1 - lung)
    return AnatomyMasks(lung, heart)


class TestPwap:
    def test_zero_init_equals_mean_pooling(self, rng):
        # K = 0, b = 0 -> P = 0.5 everywhere -> probability-weighted sum
        # collapses to the plain spatial mean (up to the denominator guard)
        feat = Tensor(rng.normal(size=(3, 4, 5, 5)))
        pooled, prob = pwap(feat, PwapParams.init(4))
        np.testing.assert_allclose(prob.data, 0.5, atol=1e-12)
        np.testing.assert_allclose(pooled.data, feat.data.mean(axis=(2, 3)),
                                   atol=1e-9)

    def test_weights_in_unit_interval(self, rng):
        params = PwapParams(Tensor(rng.normal(size=(1, 2))),
                            Tensor(rng.normal(size=1)))
        _, prob = pwap(Tensor(rng.normal(size=(2, 2, 4, 4))), params)
        assert prob.shape == (2, 1, 4, 4)
        assert ((prob.data > 0) & (prob.data < 1)).all()

    def test_saturated_weights_select_one_pixel(self):
        # single channel; drive P -> 1 at the one positive pixel and -> 0
        # elsewhere, so pooling returns that pixel's value
        feat = np.zeros((1, 1, 2, 2))
        feat[0, 0, 0, 0] = 1.0
        params = PwapParams(Tensor([[80.0]]), Tensor([-40.0]))
        pooled, _ = pwap(Tensor(feat), params)
        np.testing.assert_allclose(pooled.data, [[1.0]], atol=1e-8)

    def test_constant_feature_is_fixed_point(self, rng):
        feat = Tensor(np.full((2, 3, 4, 4), 1.7))
        params = PwapParams(Tensor(rng.normal(size=(1, 3))),
                            Tensor(rng.normal(size=1)))
        pooled, _ = pwap(feat, params)
        np.testing.assert_allclose(pooled.data, 1.7, atol=1e-6)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            pwap(Tensor(rng.normal(size=(1, 3, 2, 2))), PwapParams.init(4))


class TestCoupleAttention:
    def test_log2_identity(self):
        # logits (ln 2, 0, 0): A_LE = 2/3, A_HE = 1/2,
        # A_BkS = (1/3 + 1/2)/2 = 5/12
        a_le, a_he, a_bks = couple_attention(
            Tensor([[np.log(2.0)]]), Tensor([[0.0]]), Tensor([[0.0]]))
        np.testing.assert_allclose(a_le.data, 2 / 3, atol=1e-12)
        np.testing.assert_allclose(a_he.data, 1 / 2, atol=1e-12)
        np.testing.assert_allclose(a_bks.data, 5 / 12, atol=1e-12)

    def test_equal_logits_give_halves(self, rng):
        z = rng.normal(size=(2, 4))
        a_le, a_he, a_bks = couple_attention(Tensor(z), Tensor(z), Tensor(z))
        for t in (a_le, a_he, a_bks):
            np.testing.assert_allclose(t.data, 0.5, atol=1e-12)

    def test_complement_identity(self, rng):
        # A_BkS = ((1 - A_LE) + (1 - A_HE)) / 2 by construction
        a1, a2, a3 = (Tensor(rng.normal(size=(3, 5))) for _ in range(3))
        a_le, a_he, a_bks = couple_attention(a1, a2, a3)
        np.testing.assert_allclose(
            a_bks.data, ((1 - a_le.data) + (1 - a_he.data)) / 2, atol=1e-12)

    def test_lung_heart_symmetry(self, rng):
        # swapping the outer logits swaps the enhancer roles and leaves the
        # background suppressor unchanged
        a1, a2, a3 = (Tensor(rng.normal(size=(2, 4))) for _ in range(3))
        le, he, bks = couple_attention(a1, a2, a3)
        le2, he2, bks2 = couple_attention(a3, a2, a1)
        np.testing.assert_allclose(le2.data, he.data, atol=1e-12)
        np.testing.assert_allclose(he2.data, le.data, atol=1e-12)
        np.testing.assert_allclose(bks2.data, bks.data, atol=1e-12)

    def test_outputs_in_unit_interval(self, rng):
        outs = couple_attention(*(Tensor(rng.normal(size=(2, 6)) * 10)
                                  for _ in range(3)))
        for t in outs:
            assert ((t.data >= 0) & (t.data <= 1)).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            couple_attention(Tensor(np.zeros((1, 2))),
                             Tensor(np.zeros((1, 2))),
                             Tensor(np.zeros((1, 3))))

    @given(st.floats(-30, 30), st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_bks_averages_complements(self, x, y, z):
        a_le, a_he, a_bks = couple_attention(
            Tensor([[x]]), Tensor([[y]]), Tensor([[z]]))
        expected = ((1 - a_le.data) + (1 - a_he.data)) / 2
        np.testing.assert_allclose(a_bks.data, expected, atol=1e-12)


class TestAnatomyMasks:
    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            AnatomyMasks(np.full((1, 1, 2, 2), 0.5), np.zeros((1, 1, 2, 2)))

    def test_overlap_rejected(self):
        ones = np.ones((1, 1, 2, 2))
        with pytest.raises(ValueError):
            AnatomyMasks(ones, ones)

    def test_union(self, rng):
        m = _masks(rng, 2, 4, 4)
        np.testing.assert_array_equal(m.union(), m.lung + m.heart)

    def test_resized_stays_binary_and_disjoint(self, rng):
        m = _masks(rng, 1, 8, 8).resized((5, 5))
        assert set(np.unique(m.lung)) <= {0.0, 1.0}
        assert (m.lung * m.heart == 0).all()

    def test_holds_float64_arrays(self):
        m = AnatomyMasks(np.ones((2, 1, 3, 3), dtype=bool),
                         np.zeros((2, 1, 3, 3), dtype=int))
        for arr in (m.lung, m.heart, m.resized((5, 4)).lung, m.union()):
            assert type(arr) is np.ndarray and arr.dtype == np.float64

    @pytest.mark.parametrize("shape", [(4, 2, 8, 8), (4, 8, 8), (8, 8),
                                       (1, 4, 1, 8, 8)],
                             ids=["2 channels", "rank 3", "rank 2", "rank 5"])
    def test_shape_other_than_n1hw_rejected(self, shape):
        with pytest.raises(ValueError, match=r"is not \[N,1,h,w\]"):
            AnatomyMasks(np.zeros(shape), np.zeros(shape))

    def test_lung_heart_shape_mismatch_names_both(self):
        with pytest.raises(ValueError, match=r"\(2, 1, 4, 4\) vs "
                                             r"\(3, 1, 4, 4\)"):
            AnatomyMasks(np.zeros((2, 1, 4, 4)), np.zeros((3, 1, 4, 4)))

    @pytest.mark.parametrize("src, dst", [((8, 8), (5, 5)), ((16, 12), (4, 3)),
                                          ((5, 5), (8, 8)), ((4, 3), (16, 7))],
                             ids=["down", "down uneven", "up", "up uneven"])
    def test_resized_equals_nearest_resize_op(self, rng, src, dst):
        m = _masks(rng, 3, *src)
        out = m.resized(dst)
        for got, arr in ((out.lung, m.lung), (out.heart, m.heart)):
            ref = resize(Tensor(arr), dst, "nearest").data
            assert got.shape == ref.shape == (3, 1) + dst
            assert got.tobytes() == ref.tobytes()


class TestAaaForward:
    def test_output_shape(self, rng):
        feat = Tensor(rng.normal(size=(2, 4, 5, 5)))
        params = AaaParams.init(4, 0.5, rng)
        out = aaa_forward(feat, _masks(rng, 2, 5, 5), params, True)
        assert out.shape == (2, 4, 5, 5)

    def test_spatial_mismatch_rejected(self, rng):
        feat = Tensor(rng.normal(size=(2, 4, 5, 5)))
        params = AaaParams.init(4, 0.5, rng)
        with pytest.raises(ValueError):
            aaa_forward(feat, _masks(rng, 2, 4, 4), params, True)

    def test_encoder_hidden_width_expands(self, rng):
        # reduction ratio 0.5 means the encoder hidden layer has 2x channels
        params = AaaParams.init(4, 0.5, rng)
        assert params.enc1.fc1.weight.shape == (8, 4)
        assert params.enc1.fc2.weight.shape == (4, 8)

    def test_masked_branches_gate_by_region(self, rng):
        # with empty anatomy masks the lung/heart branches contribute a
        # constant (their BN beta), so two different features with the same
        # background branch give the same lung/heart contribution
        n, c, h, w = 2, 3, 4, 4
        zeros = AnatomyMasks(np.zeros((n, 1, h, w)), np.zeros((n, 1, h, w)))
        params = AaaParams.init(c, 0.5, rng)
        feat = Tensor(rng.normal(size=(n, c, h, w)))
        out = aaa_forward(feat, zeros, params, True)
        assert out.shape == (n, c, h, w)
        assert np.isfinite(out.data).all()

    def test_lung_heart_role_swap_symmetry(self, rng):
        # swapping lung<->heart masks together with encoder 1<->3 and the
        # lung/heart BN branches leaves the output unchanged
        n, c, h, w = 2, 4, 5, 5
        feat = Tensor(rng.normal(size=(n, c, h, w)))
        masks = _masks(rng, n, h, w)
        params = AaaParams.init(c, 0.5, rng)
        for t in [t for _, t in named_tensors(params, "p")]:
            t.data = t.data + 0.1 * rng.normal(size=t.data.shape)
        out = aaa_forward(feat, masks, params, True).data.copy()

        swapped_masks = AnatomyMasks(masks.heart, masks.lung)
        swapped = AaaParams(params.enc3, params.enc2, params.enc1,
                            params.intra_pwap, params.bn_he, params.bn_le,
                            params.bn_bks, params.bn_fuse)
        out_swapped = aaa_forward(feat, swapped_masks, swapped, True).data
        np.testing.assert_allclose(out_swapped, out, atol=1e-9)

    def test_deterministic(self, rng):
        feat = Tensor(rng.normal(size=(2, 4, 5, 5)))
        masks = _masks(rng, 2, 5, 5)
        params = AaaParams.init(4, 0.5, np.random.default_rng(1))
        a = aaa_forward(feat, masks, params, True).data.copy()
        params2 = AaaParams.init(4, 0.5, np.random.default_rng(1))
        b = aaa_forward(feat, masks, params2, True).data
        np.testing.assert_array_equal(a, b)


def _composite_gated_fuse(feat, a_le, a_he, a_bks, masks, p, train):
    """The AAA tail assembled from primitive ops (the unfused form)."""
    n, c, _, _ = feat.shape
    r_le = a_le.reshape((n, c, 1, 1)) * masks.lung * feat
    r_he = a_he.reshape((n, c, 1, 1)) * masks.heart * feat
    r_bks = a_bks.reshape((n, c, 1, 1)) * feat
    fused = (batch_norm(r_le, p.bn_le, train)
             + batch_norm(r_he, p.bn_he, train)
             + batch_norm(r_bks, p.bn_bks, train))
    return batch_norm(fused, p.bn_fuse, train)


def _bn_tail(p):
    return (p.bn_le, p.bn_he, p.bn_bks, p.bn_fuse)


def _tail_case(shape, empty_masks):
    """Fresh (feat, a_le, a_he, a_bks, masks, params) with random gammas,
    betas and running statistics, the same for every call."""
    rng = np.random.default_rng(3)
    n, c, h, w = shape
    params = AaaParams.init(c, 0.5, rng)
    for s in _bn_tail(params):
        s.gamma.data = rng.normal(size=c)
        s.beta.data = rng.normal(size=c)
        s.running_mean = rng.normal(size=c)
        s.running_var = rng.uniform(0.5, 2.0, size=c)
    masks = _masks(rng, n, h, w)
    if empty_masks:
        masks = AnatomyMasks(np.zeros((n, 1, h, w)), np.zeros((n, 1, h, w)))
    feat = Tensor(rng.normal(size=shape) * 2 + 1)
    attn = [Tensor(rng.uniform(size=(n, c))) for _ in range(3)]
    return (feat, *attn, masks, params)


class TestGatedFuse:
    @pytest.mark.parametrize("empty_masks", [False, True],
                             ids=["masks", "empty masks"])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(2, 4, 5, 5), (16, 32, 16, 16)])
    def test_matches_composite_tail(self, shape, train, empty_masks):
        g = np.random.default_rng(4).normal(size=shape)
        results = []
        for fn in (_gated_fuse, _composite_gated_fuse):
            feat, a_le, a_he, a_bks, masks, p = _tail_case(shape, empty_masks)
            leaves = [feat, a_le, a_he, a_bks] + [
                t for s in _bn_tail(p) for t in (s.gamma, s.beta)]
            for t in leaves:
                t.requires_grad = True
            out = fn(feat, a_le, a_he, a_bks, masks, p, train)
            out.backward(g)
            results.append(([out.data], [t.grad for t in leaves],
                            [a for s in _bn_tail(p)
                             for a in (s.running_mean, s.running_var)]))
        # each group agrees to 1e-12 of its largest reference magnitude:
        # the branch betas' gradients are zero up to rounding when bn_fuse
        # is in train mode
        for fused, composite in zip(*results):
            assert len(fused) == len(composite)
            scale = max(np.abs(a).max() for a in composite)
            for x, y in zip(fused, composite):
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_tail_is_one_graph_node(self, rng, train):
        feat = Tensor(rng.normal(size=(2, 4, 5, 5)))
        params = AaaParams.init(4, 0.5, rng)
        out = aaa_forward(feat, _masks(rng, 2, 5, 5), params, train)
        assert out._parents[0] is feat
        assert out._parents[4:] == tuple(
            t for s in _bn_tail(params) for t in (s.gamma, s.beta))
        # the attention vectors come straight from couple_attention
        assert all(a.shape == (2, 4) for a in out._parents[1:4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_names_op_and_keeps_running_stats(self, bad):
        feat, a_le, a_he, a_bks, masks, p = _tail_case((2, 4, 5, 5), False)
        before = [a.copy() for s in _bn_tail(p)
                  for a in (s.running_mean, s.running_var)]
        feat.data[1, 2, 3, 4] = bad
        with pytest.raises(NonFiniteError, match="gated_fuse"):
            _gated_fuse(feat, a_le, a_he, a_bks, masks, p, True)
        after = [a for s in _bn_tail(p)
                 for a in (s.running_mean, s.running_var)]
        for x, y in zip(after, before):
            np.testing.assert_array_equal(x, y)
