"""Finite-difference verification suite covering every exported
differentiable op, the attention blocks, the loss suite, and the
end-to-end model configurations.

`TARGETS` maps each target's name to its builder, `build(rng) -> (f,
inputs, max_coords)`. A target's generator is seeded by its name alone and
feeds both its inputs and its probe coordinates, so adding, removing or
reordering targets leaves every other report unchanged."""

from __future__ import annotations

import zlib
from functools import partial

import numpy as np

from .attention import (AaaParams, AnatomyMasks, PwapParams, aaa_forward,
                        couple_attention, pwap)
from .gradcheck import grad_check
from .model import ModelConfig, ToyModel, bce_loss
from .ops import (BatchNormState, LinearParams, batch_norm, conv3x3, conv_1x1,
                  fully_connected, resize, softmax_channels, softmax_pair,
                  walk)
from .parallel import parallel_map
from .seg import (CycleNets, SegBatch, adv_losses, cycle_losses, fakes,
                  gen_losses, pixel_ce)
from .tensor import Tensor


def _rand(rng, *shape):
    return Tensor(rng.normal(size=shape))


def _normals(f, *shapes):
    """Builder of a target on standard-normal inputs of `shapes`, drawn in
    order, that probes every coordinate."""
    return lambda rng: (f, [_rand(rng, *s) for s in shapes], None)


def _binary_masks(rng, n, h, w):
    lung = (rng.random((n, 1, h, w)) < 0.4).astype(float)
    heart = (rng.random((n, 1, h, w)) < 0.3).astype(float) * (1 - lung)
    return AnatomyMasks(lung, heart)


def _onehot_masks(rng, n, h, w):
    cls = rng.integers(0, 3, size=(n, h, w))
    return np.eye(3)[cls].transpose(0, 3, 1, 2).astype(float)


def _bn_target(a, gamma, beta):
    s = BatchNormState(gamma, beta, np.zeros(3), np.ones(3))
    return (batch_norm(a, s, True) * batch_norm(a, s, True).sigmoid()).sum()


def _bce_sigmoid(rng):
    labels = (rng.random((4, 3)) < 0.5).astype(float)
    return lambda z: bce_loss(z.sigmoid(), labels), [_rand(rng, 4, 3)], None


def _pixel_ce(rng):
    onehot = Tensor(_onehot_masks(rng, 1, 4, 4))
    return (lambda x: pixel_ce(onehot, softmax_channels(x)),
            [_rand(rng, 1, 3, 4, 4)], None)


def _coords(named, per_tensor: int) -> list:
    """`per_tensor` probes for each (name, tensor), and three times as
    many for a [3,...] stack of an attention block's encoders or branch
    batch norms: as many as its three rows would get as separate tensors."""
    return [per_tensor * (3 if name.split(".")[1] in ("enc", "bn_branches")
                          else 1) for name, _ in named]


def _aaa_forward(rng):
    params = AaaParams.init(4, 0.5, rng)
    named = list(walk(params, "aaa", Tensor))
    masks = _binary_masks(rng, 2, 5, 5)

    def target(f, *tensors):
        return (aaa_forward(f, masks, params, True) ** 2).sum()

    return (target, [_rand(rng, 2, 4, 5, 5)] + [t for _, t in named],
            [6] + _coords(named, 6))


_JITTER_SCALE = 1e-2


def _jitter(tensors, rng):
    """Nudge parameters off their init values by _JITTER_SCALE standard
    normals, so no ReLU/max/clamp corner sits exactly at the evaluation
    point (zero-init biases otherwise leave pre-activations exactly at the
    kink, where central differences and any subgradient legitimately
    disagree)."""
    for t in tensors:
        t.data[...] += _JITTER_SCALE * rng.normal(size=t.data.shape)


def _seg(fn, fake_inputs, rng):
    """The parts of cycle-trainer loss `fn`, summed, as a function of the
    jittered nets' parameters. `fake_inputs(batch, nets)` runs inside each
    evaluation, so the differences see the generators."""
    nets = CycleNets.init(width=4, seed=3)
    tensors = nets.parameters()
    _jitter(tensors, rng)
    batch = SegBatch(_rand(rng, 2, 1, 6, 6),
                     Tensor(_onehot_masks(rng, 2, 6, 6)),
                     _rand(rng, 2, 1, 6, 6))

    def target(*tensors):
        first, *rest = fn(batch, nets, *fake_inputs(batch, nets)).values()
        return sum(rest, first)

    return target, tensors, 6


def _model(level, pool, rng):
    cfg = ModelConfig(image_size=8, mask_size=4, attention_level=level,
                      pooling=pool, backbone_widths=(2, 3, 3, 4), n_classes=2)
    model = ToyModel(cfg, seed=5)
    named = model.parameters()
    tensors = [t for _, t in named]
    _jitter(tensors, rng)
    masks = _binary_masks(rng, 2, 4, 4)
    labels = (rng.random((2, 2)) < 0.5).astype(float)

    def target(img, *params):
        return bce_loss(model.forward(img, masks, True), labels)

    return (target, [_rand(rng, 2, 1, 8, 8)] + tensors,
            [2] + _coords(named, 2))


TARGETS = {
    "elementwise": _normals(lambda a, b: (
        a * b + a / (b * b + 1.0) - a.relu() + a.sigmoid() * b.abs()
        + (a * a + 0.5).log() + (a * 0.1).exp()).sum(),
        (2, 3, 4, 4), (2, 3, 4, 4)),
    "reductions": _normals(lambda a: (
        a.mean(axis=(2, 3)).reshape((6,)).sum() + a.max(axis=(2, 3)).sum()
        + a.clamp(lo=-0.5, hi=0.5).sum()), (2, 3, 4, 4)),
    "conv_1x1": _normals(lambda a, w, b: conv_1x1(a, w, b).sum(),
                         (2, 3, 4, 4), (5, 3), (5,)),
    **{f"conv3x3_stride{s}": _normals(
        lambda a, w, b, s=s: (conv3x3(a, w, b, stride=s) ** 2).sum(),
        (2, 3, 6, 6), (4, 3, 3, 3), (4,)) for s in (1, 2)},
    "fully_connected": _normals(
        lambda v, w, b: (fully_connected(v, LinearParams(w, b)) ** 2).sum(),
        (3, 6), (4, 6), (4,)),
    **{f"resize_{m}": _normals(
        lambda a, m=m: (resize(a, (7, 5), m) ** 2).sum(), (2, 2, 4, 4))
       for m in ("bilinear", "nearest")},
    "batch_norm_4d": _normals(_bn_target, (3, 3, 4, 4), (3,), (3,)),
    "batch_norm_2d": _normals(_bn_target, (5, 3), (3,), (3,)),
    "softmax_pair": _normals(lambda a, b: (
        (softmax_pair(a, b)[0] ** 2).sum()
        + softmax_pair(a, b)[1].log().sum() * -0.1), (1, 8), (1, 8)),
    "bce_sigmoid": _bce_sigmoid,
    # P is a constant array; V reaches the weights both through the
    # weighted sum and through the normalizer
    "pwap": _normals(
        lambda f, k, b: (pwap(f, PwapParams(k, b))[0] ** 2).sum(),
        (2, 4, 5, 5), (1, 4), (1,)),
    "couple_attention": _normals(lambda a: (couple_attention(a) ** 2).sum(),
                                 (3, 2, 6)),
    "aaa_forward": _aaa_forward,
    "pixel_ce": _pixel_ce,
    "gen_losses": partial(_seg, gen_losses, lambda batch, nets: (
        nets.g_mc(batch.annotated_masks),)),
    "adv_losses": partial(_seg, adv_losses, fakes),
    "cycle_losses": partial(_seg, cycle_losses, fakes),
    **{f"model_{level}_{pool}": partial(_model, level, pool)
       for level in ("L0", "L1", "L2", "L3")
       for pool in ("pwap", "average", "max", "gem")},
}


def _check(name: str, tol: float):
    """Build target `name` and check it, from one generator seeded by the
    name (crc32, not hash(): str hashes are salted per process)."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    f, inputs, max_coords = TARGETS[name](rng)
    return grad_check(f, inputs, tol=tol, name=name, max_coords=max_coords,
                      rng=rng)


def run_gradcheck_suite(tol: float = 1e-4, include_models: bool = True):
    """Check every target of `TARGETS`, the `model_*` ones only with
    `include_models`, through `parallel.parallel_map`; returns a list of
    GradCheckReport in table order."""
    names = [name for name in TARGETS
             if include_models or not name.startswith("model_")]
    return parallel_map(partial(_check, tol=tol), names)
