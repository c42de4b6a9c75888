"""Attention block: pooling identities, coupled softmax, mask gating."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anatomy_attn.attention import (PWAP_EPSILON, AaaParams, AnatomyMasks,
                                    AttentionEncoderParams, PwapParams,
                                    _gated_fuse, aaa_forward,
                                    couple_attention, encode_attention, pwap)
from anatomy_attn.ops import (BatchNormState, LinearParams, batch_norm,
                              conv_1x1, fully_connected, resize, softmax_pair,
                              walk)
from anatomy_attn.tensor import NonFiniteError, Tensor, concat


def _masks(rng, n, h, w):
    lung = (rng.random((n, 1, h, w)) < 0.4).astype(float)
    heart = (rng.random((n, 1, h, w)) < 0.3).astype(float) * (1 - lung)
    return AnatomyMasks(lung, heart)


def _rows(block, rows):
    """A copy of the stacked parameter block `block` whose every tensor
    and running statistic holds the rows `rows` (an index or a list of
    them), as fresh leaves."""
    if isinstance(block, Tensor):
        return Tensor(block.data[rows].copy(), requires_grad=True)
    if isinstance(block, np.ndarray):
        return block[rows].copy()
    return type(block)(*(_rows(getattr(block, f.name), rows)
                         for f in fields(block)))


def _leaf_grads(block):
    return [t.grad for _, t in walk(block, "", Tensor)]


def _running(block):
    return [a for _, s in walk(block, "", BatchNormState)
            for a in (s.running_mean, s.running_var)]


def _stacked(get, block):
    """get(block) for a stacked block, or for a list of its per-row copies
    with each array stacked back to [3,...]."""
    if isinstance(block, list):
        return [np.array(rows) for rows in zip(*map(get, block))]
    return get(block)


class TestPwap:
    def test_zero_init_equals_mean_pooling(self, rng):
        # K = 0, b = 0 -> P = 0.5 everywhere -> probability-weighted sum
        # collapses to the plain spatial mean (up to the denominator guard)
        feat = Tensor(rng.normal(size=(3, 4, 5, 5)))
        pooled, prob = pwap(feat, PwapParams.init(4))
        np.testing.assert_allclose(prob, 0.5, atol=1e-12)
        np.testing.assert_allclose(pooled.data, feat.data.mean(axis=(2, 3)),
                                   atol=1e-9)

    def test_weights_in_unit_interval(self, rng):
        params = PwapParams(Tensor(rng.normal(size=(1, 2))),
                            Tensor(rng.normal(size=1)))
        _, prob = pwap(Tensor(rng.normal(size=(2, 2, 4, 4))), params)
        assert isinstance(prob, np.ndarray) and prob.dtype == np.float64
        assert prob.shape == (2, 1, 4, 4)
        assert ((prob > 0) & (prob < 1)).all()

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

    def test_rank3_rejected(self, rng):
        with pytest.raises(ValueError,
                           match="^pwap expects a rank-4 feature map$"):
            pwap(Tensor(rng.normal(size=(3, 2, 2))), PwapParams.init(3))

    @pytest.mark.parametrize("other", [None, "before", "after"])
    def test_equals_primitive_chain_bit_for_bit(self, rng, other):
        # `other`: feat also feeds a third consumer, added to the loss
        # before or after the pooling term
        arrays = (rng.normal(size=(2, 4, 5, 5)), rng.normal(size=(1, 4)),
                  rng.normal(size=1))
        g = rng.normal(size=(2, 4))
        results = []
        for pool in (lambda f, p: pwap(f, p)[0], _primitive_pwap):
            feat, k, b = (Tensor(x, requires_grad=True) for x in arrays)
            pooled = pool(feat, PwapParams(k, b))
            loss = (pooled * g).sum()
            third = (feat.sigmoid() * 0.3).sum()
            if other == "before":
                loss = third + loss
            elif other == "after":
                loss = loss + third
            loss.backward()
            results.append((pooled.data, feat.grad, k.grad, b.grad))
        for x, y in zip(*results):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()

    def test_one_node_with_feat_as_two_parents(self, rng):
        feat = Tensor(rng.normal(size=(2, 4, 5, 5)))
        params = PwapParams(Tensor(rng.normal(size=(1, 4))),
                            Tensor(rng.normal(size=1)))
        pooled, _ = pwap(feat, params)
        assert pooled._parents == (feat, feat, params.kernel, params.bias)

    def test_overflow_names_pwap_without_a_numpy_warning(self):
        feat = Tensor(np.full((2, 4, 5, 5), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="'pwap'"):
                pwap(feat, PwapParams.init(4))


def _primitive_pwap(feat, p):
    """PWAP from primitive ops, one node each: the chain `pwap` replaces."""
    prob = conv_1x1(feat, p.kernel, p.bias).sigmoid()
    return ((feat * prob).sum(axis=(2, 3))
            / (prob.sum(axis=(2, 3)) + PWAP_EPSILON))


def _couple(*logits):
    """The three [N,C] rows (A_LE, A_HE, A_BkS) of `couple_attention` on
    the stacked logits."""
    return couple_attention(Tensor(np.stack(logits))).data


class TestCoupleAttention:
    def test_log2_identity(self):
        # logits (ln 2, 0, 0): A_LE = 2/3, A_HE = 1/2,
        # A_BkS = (1/3 + 1/2)/2 = 5/12
        a_le, a_he, a_bks = _couple([[np.log(2.0)]], [[0.0]], [[0.0]])
        np.testing.assert_allclose(a_le, 2 / 3, atol=1e-12)
        np.testing.assert_allclose(a_he, 1 / 2, atol=1e-12)
        np.testing.assert_allclose(a_bks, 5 / 12, atol=1e-12)

    def test_equal_logits_give_halves(self, rng):
        z = rng.normal(size=(2, 4))
        np.testing.assert_allclose(_couple(z, z, z), 0.5, atol=1e-12)

    def test_complement_identity(self, rng):
        # A_BkS = ((1 - A_LE) + (1 - A_HE)) / 2 by construction
        a_le, a_he, a_bks = _couple(*rng.normal(size=(3, 3, 5)))
        np.testing.assert_allclose(
            a_bks, ((1 - a_le) + (1 - a_he)) / 2, atol=1e-12)

    def test_lung_heart_symmetry(self, rng):
        # swapping the outer logits swaps the enhancer roles and leaves the
        # background suppressor unchanged
        a1, a2, a3 = rng.normal(size=(3, 2, 4))
        le, he, bks = _couple(a1, a2, a3)
        le2, he2, bks2 = _couple(a3, a2, a1)
        np.testing.assert_allclose(le2, he, atol=1e-12)
        np.testing.assert_allclose(he2, le, atol=1e-12)
        np.testing.assert_allclose(bks2, bks, atol=1e-12)

    def test_outputs_in_unit_interval(self, rng):
        outs = _couple(*rng.normal(size=(3, 2, 6)) * 10)
        assert ((outs >= 0) & (outs <= 1)).all()

    def test_extreme_logits_are_finite_without_numpy_warning(self):
        # a1 - a2 overflows to inf, where the logistic saturates
        a = Tensor(np.array([[[1e308, -1e308]], [[-1e308, 1e308]],
                             [[1e308, -1e308]]]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = couple_attention(a)
            out.sum().backward()
        np.testing.assert_array_equal(out.data, [[[1.0, 0.0]], [[1.0, 0.0]],
                                                 [[0.0, 1.0]]])
        assert np.isfinite(a.grad).all()

    def test_shape_mismatch_rejected(self):
        # anything but three stacked [N,C] logit rows
        for shape in [(2, 1, 2), (4, 1, 2), (3, 2), (3, 1, 2, 2)]:
            with pytest.raises(ValueError, match=r"\[3,N,C\]"):
                couple_attention(Tensor(np.zeros(shape)))

    @given(st.floats(-30, 30), st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_bks_averages_complements(self, x, y, z):
        a_le, a_he, a_bks = _couple([[x]], [[y]], [[z]])
        expected = ((1 - a_le) + (1 - a_he)) / 2
        np.testing.assert_allclose(a_bks, expected, atol=1e-12)


class TestAnatomyMasks:
    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            AnatomyMasks(np.full((1, 1, 2, 2), 0.5), np.zeros((1, 1, 2, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.5, 2.0,
                                       -1.0])
    @pytest.mark.parametrize("name", ["lung", "heart"])
    def test_non_binary_value_named(self, name, value):
        masks = {"lung": np.zeros((1, 1, 2, 2)),
                 "heart": np.zeros((1, 1, 2, 2))}
        masks[name][0, 0, 1, 0] = value
        with pytest.raises(ValueError, match=f"{name} mask is not binary"):
            AnatomyMasks(**masks)

    def test_negative_zero_is_binary(self):
        m = AnatomyMasks(np.full((1, 1, 2, 2), -0.0), np.eye(2)[None, None])
        np.testing.assert_array_equal(m.union(), np.eye(2)[None, None])

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
        assert params.enc.fc1.weight.shape == (3, 8, 4)
        assert params.enc.fc2.weight.shape == (3, 4, 8)
        assert params.enc.bn1.gamma.shape == (3, 8)
        assert params.bn_branches.gamma.shape == (3, 4)

    def test_encoder_rows_are_drawn_encoder_by_encoder(self):
        # the values of three separately built encoders: fc1 then fc2 of
        # encoder 1, then of encoder 2, then of encoder 3
        stacked_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
        enc = AttentionEncoderParams.init(4, 0.5, stacked_rng)
        rows = [(LinearParams.init(4, 8, rng), LinearParams.init(8, 4, rng))
                for _ in range(3)]
        for k, (fc1, fc2) in enumerate(rows):
            for stacked, row in ((enc.fc1, fc1), (enc.fc2, fc2)):
                for field in ("weight", "bias"):
                    got = getattr(stacked, field).data[k]
                    want = getattr(row, field).data
                    assert got.tobytes() == want.tobytes()
        # and the generator is left where the three pairs leave it
        assert stacked_rng.random() == rng.random()

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
        # swapping lung<->heart masks together with the encoder rows 1<->3
        # and the lung/heart batch-norm rows leaves the output unchanged
        n, c, h, w = 2, 4, 5, 5
        feat = Tensor(rng.normal(size=(n, c, h, w)))
        masks = _masks(rng, n, h, w)
        params = AaaParams.init(c, 0.5, rng)
        for _, t in walk(params, "p", Tensor):
            t.data = t.data + 0.1 * rng.normal(size=t.data.shape)
        out = aaa_forward(feat, masks, params, True).data.copy()

        swapped_masks = AnatomyMasks(masks.heart, masks.lung)
        swapped = replace(params, enc=_rows(params.enc, [2, 1, 0]),
                          bn_branches=_rows(params.bn_branches, [1, 0, 2]))
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


# one-hot [3,1,1] row selectors: (x * _ROWS[k]).sum(axis=0) is row k of a
# [3,N,C] x exactly, and its gradient lands in row k only
_ROWS = np.eye(3)[:, :, None, None]


def _composite_gated_fuse(feat, att, masks, branches, fuse, train):
    """The AAA tail assembled from primitive ops (the unfused form), with
    one batch-norm state per branch: `branches` holds le, he, bks."""
    n, c, _, _ = feat.shape
    a_le, a_he, a_bks = ((att * row).sum(axis=0).reshape((n, c, 1, 1))
                         for row in _ROWS)
    r_le = a_le * masks.lung * feat
    r_he = a_he * masks.heart * feat
    r_bks = a_bks * feat
    bn_le, bn_he, bn_bks = branches
    fused = (batch_norm(r_le, bn_le, train)
             + batch_norm(r_he, bn_he, train)
             + batch_norm(r_bks, bn_bks, train))
    return batch_norm(fused, fuse, train)


def _tail_case(shape, empty_masks):
    """Fresh (feat, att, masks, params) with random gammas, betas and
    running statistics, the same for every call."""
    rng = np.random.default_rng(3)
    n, c, h, w = shape
    params = AaaParams.init(c, 0.5, rng)
    for s in (params.bn_branches, params.bn_fuse):
        s.gamma.data = rng.normal(size=s.gamma.shape)
        s.beta.data = rng.normal(size=s.gamma.shape)
        s.running_mean = rng.normal(size=s.gamma.shape)
        s.running_var = rng.uniform(0.5, 2.0, size=s.gamma.shape)
    masks = _masks(rng, n, h, w)
    if empty_masks:
        masks = AnatomyMasks(np.zeros((n, 1, h, w)), np.zeros((n, 1, h, w)))
    feat = Tensor(rng.normal(size=shape) * 2 + 1)
    att = Tensor(rng.uniform(size=(3, n, c)))
    return feat, att, masks, params


class TestGatedFuse:
    @pytest.mark.parametrize("empty_masks", [False, True],
                             ids=["masks", "empty masks"])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(2, 4, 5, 5), (16, 32, 16, 16)])
    def test_matches_composite_tail(self, shape, train, empty_masks):
        # the composite runs on per-row branch states built from the
        # stacks, and its gradients and statistics are stacked back
        g = np.random.default_rng(4).normal(size=shape)
        results = []
        for fused in (True, False):
            feat, att, masks, p = _tail_case(shape, empty_masks)
            feat.requires_grad = att.requires_grad = True
            if fused:
                branches = p.bn_branches
                out = _gated_fuse(feat, att, masks, p, train)
            else:
                branches = [_rows(p.bn_branches, k) for k in range(3)]
                out = _composite_gated_fuse(feat, att, masks, branches,
                                            p.bn_fuse, train)
            out.backward(g)
            results.append((
                [out.data],
                [feat.grad, att.grad] + _stacked(_leaf_grads, branches)
                + _leaf_grads(p.bn_fuse),
                _stacked(_running, branches) + _running(p.bn_fuse)))
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
        assert len(out._parents) == 6 and out._parents[0] is feat
        assert out._parents[2:] == (
            params.bn_branches.gamma, params.bn_branches.beta,
            params.bn_fuse.gamma, params.bn_fuse.beta)
        # the stacked attention vectors come straight from couple_attention
        # (one node), whose one parent is the encoders' node
        att = out._parents[1]
        assert att.shape == (3, 2, 4)
        (logits,) = att._parents
        assert logits.shape == (3, 2, 4)
        assert logits._parents[1:] == tuple(
            t for _, t in walk(params.enc, "e", Tensor))
        assert len(logits._parents) == 9
        assert logits._parents[0]._parents  # pooled, built by pwap

    def test_channel_mismatch_rejected(self):
        feat, att, masks, _ = _tail_case((2, 4, 5, 5), False)
        p = AaaParams.init(3, 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="^_gated_fuse: 4 channels vs "
                           "batch-norm state with 3$"):
            _gated_fuse(feat, att, masks, p, False)

    def test_one_element_per_channel_rejected(self):
        feat, att, masks, p = _tail_case((1, 4, 1, 1), False)
        with pytest.raises(ValueError, match="^_gated_fuse needs >= 2 "
                           "elements per channel$"):
            _gated_fuse(feat, att, masks, p, False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_names_op_and_keeps_running_stats(self, bad):
        feat, att, masks, p = _tail_case((2, 4, 5, 5), False)
        before = [a.copy() for a in _running(p)]
        feat.data[1, 2, 3, 4] = bad
        with pytest.raises(NonFiniteError, match="gated_fuse"):
            _gated_fuse(feat, att, masks, p, True)
        after = _running(p)
        for x, y in zip(after, before, strict=True):
            np.testing.assert_array_equal(x, y)


def _primitive_attention(pooled, encoders, train):
    """Encoders and coupling from primitive ops, one node per layer, on
    the three per-row `encoders`: the form `encode_attention` and
    `couple_attention` replace. The concat
    root takes (a_le, a_he, a_bks) in `_gated_fuse`'s parent order, so
    pooled's three gradients add up in the model's order."""
    def encode(e):
        h = batch_norm(fully_connected(pooled, e.fc1).relu(), e.bn1, train)
        return batch_norm(fully_connected(h, e.fc2).relu(), e.bn2, train)

    a1, a2, a3 = (encode(e) for e in encoders)
    a_le, a_le_bar = softmax_pair(a1, a2)
    a_he_bar, a_he = softmax_pair(a2, a3)
    a_bks = (a_le_bar + a_he_bar) * 0.5
    n, c = pooled.shape
    return concat([t.reshape((1, n, c)) for t in (a_le, a_he, a_bks)], axis=0)


def _encoder_case(n, c):
    """Fresh (pooled, stacked encoders) with jittered weights and random
    gammas, betas and running statistics, the same for every call."""
    rng = np.random.default_rng(5)
    params = AaaParams.init(c, 0.5, rng)
    for _, t in walk(params, "p", Tensor):
        t.data = t.data + 0.3 * rng.normal(size=t.shape)
    for _, s in walk(params.enc, "e", BatchNormState):
        s.running_mean = rng.normal(size=s.gamma.shape)
        s.running_var = rng.uniform(0.5, 2.0, size=s.gamma.shape)
    return Tensor(rng.normal(size=(n, c))), params.enc


class TestGroupedAttention:
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("n, c", [(2, 4), (16, 16), (16, 32), (5, 16)],
                             ids=["2x4", "16x16", "16x32", "odd last batch"])
    def test_equals_primitive_chain_bit_for_bit(self, n, c, train):
        # the primitive chain runs on per-row leaves built from the
        # stacks, and its gradients and statistics are stacked back
        g = np.random.default_rng(6).normal(size=(3, n, c))
        results = []
        for fused in (True, False):
            pooled, enc = _encoder_case(n, c)
            pooled.requires_grad = True
            if fused:
                out = couple_attention(encode_attention(pooled, enc, train))
            else:
                enc = [_rows(enc, k) for k in range(3)]
                out = _primitive_attention(pooled, enc, train)
            out.backward(g)
            results.append([out.data, pooled.grad]
                           + _stacked(_leaf_grads, enc)
                           + _stacked(_running, enc))
        fused, primitive = results
        assert len(fused) == len(primitive) == 1 + 1 + 8 + 4
        for x, y in zip(fused, primitive):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_running_statistics_move_only_in_train(self, train):
        pooled, enc = _encoder_case(4, 8)
        before = [a.copy() for a in _running(enc)]
        encode_attention(pooled, enc, train)
        # per encoder row: 2 batch norms x mean, var
        assert [not np.array_equal(x[k], y[k])
                for x, y in zip(_running(enc), before, strict=True)
                for k in range(3)] == [train] * 12

    def test_overflowing_batch_variance_raises_and_keeps_running_stats(self):
        pooled, enc = _encoder_case(4, 8)
        pooled.data[2] = 1e160
        before = [a.copy() for a in _running(enc)]
        with pytest.raises(NonFiniteError, match="encode_attention"):
            encode_attention(pooled, enc, True)
        for x, y in zip(_running(enc), before, strict=True):
            np.testing.assert_array_equal(x, y)

    def test_one_sample_rejected_in_train(self):
        pooled, enc = _encoder_case(1, 4)
        with pytest.raises(ValueError, match=">= 2 elements"):
            encode_attention(pooled, enc, True)
        assert encode_attention(pooled, enc, False).shape == (3, 1, 4)

    def test_width_mismatch_rejected(self):
        pooled, enc = _encoder_case(4, 8)
        with pytest.raises(ValueError, match="pooled width 6"):
            encode_attention(Tensor(np.zeros((4, 6))), enc, True)
