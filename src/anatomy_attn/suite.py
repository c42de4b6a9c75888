"""Finite-difference verification suite covering every exported
differentiable op, the attention blocks, the loss suite, and the
end-to-end model configurations."""

from __future__ import annotations

import zlib

import numpy as np

from .attention import (AaaParams, AnatomyMasks, PwapParams, aaa_forward,
                        couple_attention, pwap)
from .gradcheck import grad_check
from .model import ModelConfig, ToyModel, bce_loss
from .ops import (BatchNormState, LinearParams, batch_norm, conv3x3, conv_1x1,
                  fully_connected, named_tensors, resize, softmax_channels,
                  softmax_pair)
from .seg import (CycleNets, SegBatch, adv_losses, cycle_losses, fakes,
                  gen_losses, pixel_ce)
from .tensor import Tensor


def _rand(rng, *shape):
    return Tensor(rng.normal(size=shape))


def _binary_masks(rng, n, h, w):
    lung = (rng.random((n, 1, h, w)) < 0.4).astype(float)
    heart = (rng.random((n, 1, h, w)) < 0.3).astype(float) * (1 - lung)
    return AnatomyMasks(lung, heart)


def _op_targets(rng):
    """(name, f, inputs, max_coords) for the tensor-core ops, which probe
    every coordinate."""
    targets = []

    x = _rand(rng, 2, 3, 4, 4)
    y = _rand(rng, 2, 3, 4, 4)
    targets.append(("elementwise", lambda a, b: (
        (a * b + a / (b * b + 1.0) - a.relu() + a.sigmoid() * b.abs()
         + (a * a + 0.5).log() + (a * 0.1).exp()).sum()), [x, y]))

    targets.append(("reductions", lambda a: (
        a.mean(axis=(2, 3)).reshape((6,)).sum() + a.max(axis=(2, 3)).sum()
        + a.clamp(lo=-0.5, hi=0.5).sum()), [_rand(rng, 2, 3, 4, 4)]))

    w11 = _rand(rng, 5, 3)
    b11 = _rand(rng, 5)
    targets.append(("conv_1x1", lambda a, w, b: conv_1x1(a, w, b).sum(),
                    [_rand(rng, 2, 3, 4, 4), w11, b11]))

    for stride in (1, 2):
        w33 = _rand(rng, 4, 3, 3, 3)
        b33 = _rand(rng, 4)
        targets.append((f"conv3x3_stride{stride}",
                        lambda a, w, b, s=stride:
                        (conv3x3(a, w, b, stride=s) ** 2).sum(),
                        [_rand(rng, 2, 3, 6, 6), w33, b33]))

    fc = LinearParams.init(6, 4, rng)
    targets.append(("fully_connected",
                    lambda v, w, b:
                    (fully_connected(v, LinearParams(w, b)) ** 2).sum(),
                    [_rand(rng, 3, 6), fc.weight, fc.bias]))

    for method in ("bilinear", "nearest"):
        targets.append((f"resize_{method}",
                        lambda a, m=method:
                        (resize(a, (7, 5), m) ** 2).sum(),
                        [_rand(rng, 2, 2, 4, 4)]))

    def bn_target(a, gamma, beta):
        s = BatchNormState(gamma, beta, np.zeros(3), np.ones(3))
        return (batch_norm(a, s, True) * batch_norm(a, s, True).sigmoid()).sum()

    targets.append(("batch_norm_4d", bn_target,
                    [_rand(rng, 3, 3, 4, 4), _rand(rng, 3), _rand(rng, 3)]))
    targets.append(("batch_norm_2d", bn_target,
                    [_rand(rng, 5, 3), _rand(rng, 3), _rand(rng, 3)]))

    targets.append(("softmax_pair", lambda a, b: (
        (softmax_pair(a, b)[0] ** 2).sum()
        + softmax_pair(a, b)[1].log().sum() * -0.1),
        [_rand(rng, 1, 8), _rand(rng, 1, 8)]))

    targets.append(("bce_sigmoid",
                    lambda z: bce_loss(z.sigmoid(), _LABELS),
                    [Tensor(np.random.default_rng(7).normal(size=(4, 3)))]))
    return [target + (None,) for target in targets]


_LABELS = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]], float)


def _coords(named, per_tensor: int) -> list:
    """`per_tensor` probes for each (name, tensor), and three times as
    many for a [3,...] stack of an attention block's encoders or branch
    batch norms: as many as its three rows would get as separate tensors."""
    return [per_tensor * (3 if name.split(".")[1] in ("enc", "bn_branches")
                          else 1) for name, _ in named]


# one-hot [3,1,1] row selectors: (x * _ROWS[k]).sum(axis=0) is row k of a
# [3,N,C] x exactly, so the couple_attention target keeps its old value
_ROWS = np.eye(3)[:, :, None, None]


def _attention_targets(rng):
    targets = []
    feat = _rand(rng, 2, 4, 5, 5)
    kernel = _rand(rng, 1, 4)
    kbias = _rand(rng, 1)

    # P is a constant array; V reaches the weights both through the
    # weighted sum and through the normalizer
    targets.append(("pwap", lambda f, k, b:
                    (pwap(f, PwapParams(k, b))[0] ** 2).sum(),
                    [feat, kernel, kbias], None))

    targets.append(("couple_attention", lambda a: sum(
        ((couple_attention(a) * row).sum(axis=0) ** 2).sum() for row in _ROWS),
        [_rand(rng, 3, 2, 6)], None))

    params = AaaParams.init(4, 0.5, rng)
    masks = _binary_masks(rng, 2, 5, 5)
    f_us = _rand(rng, 2, 4, 5, 5)

    def aaa_target(f, *tensors):
        return (aaa_forward(f, masks, params, True) ** 2).sum()

    named = list(named_tensors(params, "aaa"))
    targets.append(("aaa_forward", aaa_target,
                    [f_us] + [t for _, t in named],
                    [6] + _coords(named, 6)))
    return targets


_JITTER_SCALE = 1e-2


def _jitter(tensors, rng):
    """Nudge parameters off their init values by _JITTER_SCALE standard
    normals, so no ReLU/max/clamp corner sits exactly at the evaluation
    point (zero-init biases otherwise leave pre-activations exactly at the
    kink, where central differences and any subgradient legitimately
    disagree)."""
    for t in tensors:
        t.data = t.data + _JITTER_SCALE * rng.normal(size=t.data.shape)


def _seg_targets(rng):
    nets = CycleNets.init(width=4, seed=3)
    _jitter([t for _, t in nets.parameters()], rng)
    batch = SegBatch(
        Tensor(rng.normal(size=(2, 1, 6, 6))),
        Tensor(_onehot_masks(rng, 2, 6, 6)),
        Tensor(rng.normal(size=(2, 1, 6, 6))))
    net_tensors = [t for _, t in nets.parameters()]

    # fakes built inside each target, so the differences see the generators
    def make(fn, build):
        def target(*tensors):
            first, *rest = fn(batch, nets, *build()).values()
            return sum(rest, first)
        return target

    onehot = Tensor(_onehot_masks(rng, 1, 4, 4))
    targets = [("pixel_ce",
                lambda x: pixel_ce(onehot, softmax_channels(x)),
                [Tensor(np.random.default_rng(11).normal(size=(1, 3, 4, 4)))],
                None)]
    for name, fn, build in (
            ("gen_losses", gen_losses,
             lambda: (nets.g_mc(batch.annotated_masks),)),
            ("adv_losses", adv_losses, lambda: fakes(batch, nets)),
            ("cycle_losses", cycle_losses, lambda: fakes(batch, nets))):
        targets.append((name, make(fn, build), net_tensors, 6))
    return targets


def _onehot_masks(rng, n, h, w):
    cls = rng.integers(0, 3, size=(n, h, w))
    return np.eye(3)[cls].transpose(0, 3, 1, 2).astype(float)


def _model_targets(rng):
    targets = []
    labels = (rng.random((2, 2)) < 0.5).astype(float)
    masks = _binary_masks(rng, 2, 4, 4)
    for level in ("L0", "L1", "L2", "L3"):
        for pool in ("pwap", "average", "max", "gem"):
            cfg = ModelConfig(image_size=8, mask_size=4,
                              attention_level=level, pooling=pool,
                              backbone_widths=(2, 3, 3, 4), n_classes=2)
            model = ToyModel(cfg, seed=5)
            named = model.parameters()
            tensors = [t for _, t in named]
            _jitter(tensors, rng)
            image = _rand(rng, 2, 1, 8, 8)

            def target(img, *params, m=model):
                return bce_loss(m.forward(img, masks, True), labels)

            targets.append((f"model_{level}_{pool}", target,
                            [image] + tensors, [2] + _coords(named, 2)))
    return targets


def run_gradcheck_suite(tol: float = 1e-4, include_models: bool = True):
    """Run every target; returns a list of GradCheckReport."""
    rng = np.random.default_rng(42)
    targets = _op_targets(rng) + _attention_targets(rng) + _seg_targets(rng)
    if include_models:
        targets += _model_targets(rng)

    reports = []
    for name, f, inputs, max_coords in targets:
        # crc32, not hash(): str hashes are salted per process
        coord_rng = np.random.default_rng(zlib.crc32(name.encode()))
        reports.append(grad_check(f, inputs, tol=tol, name=name,
                                  max_coords=max_coords, rng=coord_rng))
    return reports
