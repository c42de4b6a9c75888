"""Anatomy-aware attention block and probabilistic weighted average pooling.

The attention block recalibrates a feature map with three coupled
channel-attention vectors: a lung enhancer and a heart enhancer gated by
binary anatomy masks, plus a background suppressor that sees the whole
feature map. The three encoders are one grouped layer, in the manner of
grouped branches (Xie et al. 2017): their parameters are stored stacked
on a leading group axis, and `encode_attention` runs them as one graph
node. The three vectors travel as one stacked [3,N,C] tensor (rows:
encoder 1, 2, 3, then A_LE, A_HE, A_BkS), which `couple_attention`
couples as a second node. Pooling weights come from a learned 1x1
conv + sigmoid, normalized by their spatial sum, all one `pwap` node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (BN_EPSILON, BatchNormState, LinearParams, bn_arrays,
                  resample)
from .tensor import Tensor, ignore_fp_errors, logistic

PWAP_EPSILON = 1e-8


@dataclass
class PwapParams:
    """1x1 pooling-weight filter K plus bias.

    K and bias init to zero, so freshly built pooling starts as plain
    mean pooling (weights all 0.5, which cancel in the normalization).
    """

    kernel: Tensor
    bias: Tensor

    @classmethod
    def init(cls, channels: int):
        return cls(Tensor(np.zeros((1, channels)), requires_grad=True),
                   Tensor(np.zeros(1), requires_grad=True))


@dataclass
class AttentionEncoderParams:
    """The three FC -> ReLU -> BN -> FC -> ReLU -> BN bottlenecks, stacked:
    row k of every array is encoder k (fc weights [3,out,in], the rest
    [3,width]).

    Hidden width is round(C / r). With the published r = 0.5 this is an
    expansion to 2C; r is kept configurable.
    """

    fc1: LinearParams
    bn1: BatchNormState
    fc2: LinearParams
    bn2: BatchNormState

    @classmethod
    def init(cls, channels: int, r: float, rng: np.random.Generator):
        hidden = max(1, round(channels / r))
        # encoder by encoder, fc1 before fc2: three separate encoders' draws
        rows = [(LinearParams.init(channels, hidden, rng),
                 LinearParams.init(hidden, channels, rng)) for _ in range(3)]

        def stack(fcs):
            return LinearParams(
                Tensor(np.array([fc.weight.data for fc in fcs]),
                       requires_grad=True),
                Tensor(np.array([fc.bias.data for fc in fcs]),
                       requires_grad=True))

        fc1, fc2 = (stack(fcs) for fcs in zip(*rows))
        return cls(fc1, BatchNormState.init((3, hidden)),
                   fc2, BatchNormState.init((3, channels)))


@dataclass
class AnatomyMasks:
    """Binary lung and heart masks, float64 [N,1,h,w], pixelwise disjoint."""

    lung: np.ndarray
    heart: np.ndarray

    def __post_init__(self):
        self.lung = np.asarray(self.lung, dtype=np.float64)
        self.heart = np.asarray(self.heart, dtype=np.float64)
        if self.lung.ndim != 4 or self.lung.shape[1] != 1:
            raise ValueError(f"lung mask shape {self.lung.shape} is not "
                             f"[N,1,h,w]")
        if self.lung.shape != self.heart.shape:
            raise ValueError(f"lung/heart mask shape mismatch: "
                             f"{self.lung.shape} vs {self.heart.shape}")
        for name, m in (("lung", self.lung), ("heart", self.heart)):
            if not ((m == 0.0) | (m == 1.0)).all():
                raise ValueError(f"{name} mask is not binary")
        if np.any(self.lung * self.heart > 0):
            raise ValueError("lung and heart masks overlap")

    @property
    def spatial(self) -> tuple:
        return self.lung.shape[2:]

    def resized(self, target: tuple) -> "AnatomyMasks":
        """Nearest-neighbor resize by the 0/1 matrices of `ops.resize`."""
        if self.spatial == tuple(target):
            return self
        return AnatomyMasks(resample(self.lung, target, "nearest"),
                            resample(self.heart, target, "nearest"))

    def union(self) -> np.ndarray:
        return np.maximum(self.lung, self.heart)


@dataclass
class AaaParams:
    """One attention block: the three stacked encoders sharing channel
    count C, an intra-block pooling head, the three branch batch norms
    stacked [3,C] (rows le, he, bks) and the fusing batch norm."""

    enc: AttentionEncoderParams
    intra_pwap: PwapParams
    bn_branches: BatchNormState
    bn_fuse: BatchNormState

    @classmethod
    def init(cls, channels: int, r: float, rng: np.random.Generator):
        return cls(AttentionEncoderParams.init(channels, r, rng),
                   PwapParams.init(channels),
                   BatchNormState.init((3, channels)),
                   BatchNormState.init(channels))


@ignore_fp_errors
def pwap(feat: Tensor, p: PwapParams):
    """Probability-weighted spatial pooling, as one graph node.

    Returns (V, P): per-pixel weights P = sigmoid(K * F + b) in (0,1), a
    plain [N,1,H,W] array, and V_c = sum_ij(F_c * P) / (sum_ij P +
    PWAP_EPSILON) as a Tensor. The intra-block and post-block uses share
    this one code path.

    Forward and backward compute, in order, the arrays of the primitive
    chain conv_1x1 -> sigmoid -> mul -> sum / (sum + eps), so they equal
    it bit for bit. The parents are (feat, feat, kernel, bias): the
    weighted-sum partial and the logit partial of feat reach the tape as
    separate entries, so a feat with other consumers (the AAA block's
    gated tail) sums its gradients in the chain's order. Adding the two
    inside the node would round differently and change training
    histories.
    """
    k, b = p.kernel.data, p.bias.data
    f = feat.data
    if f.ndim != 4:
        raise ValueError("pwap expects a rank-4 feature map")
    if k.shape[1] != f.shape[1]:
        raise ValueError(f"pwap: kernel in-channels {k.shape[1]} != "
                         f"feature channels {f.shape[1]}")
    prob = logistic(np.einsum("oc,nchw->nohw", k, f)
                    + b.reshape(1, -1, 1, 1))                  # [N,1,H,W]
    num = (f * prob).sum(axis=(2, 3))                          # [N,C]
    den = prob.sum(axis=(2, 3)) + PWAP_EPSILON                 # [N,1]

    def bwd(g):
        g_num = (g / den)[:, :, None, None]
        g_den = (-g * num / den ** 2).sum(axis=1, keepdims=True)
        g_prob = ((g_num * f).sum(axis=1, keepdims=True)
                  + g_den[:, :, None, None])
        g_logit = g_prob * prob * (1.0 - prob)
        return (g_num * prob, np.einsum("oc,nohw->nchw", k, g_logit),
                np.einsum("nohw,nchw->oc", g_logit, f),
                g_logit.sum(axis=(0, 2, 3)).reshape(b.shape))

    pooled = Tensor._from_op(num / den, (feat, feat, p.kernel, p.bias), bwd,
                             "pwap")
    return pooled, prob


@ignore_fp_errors
def encode_attention(pooled: Tensor, enc: AttentionEncoderParams,
                     train: bool) -> Tensor:
    """pooled[N,C] -> [3,N,C]: row k is encoder k's
    FC -> ReLU -> BN -> FC -> ReLU -> BN, all three as one graph node.

    Each layer reads the stacked [3,...] parameters directly: batched
    matmuls (equal bit for bit to one `v @ W.T` per encoder) and batch
    norms over axis 1 by `ops.bn_arrays`. The parents are pooled and the
    eight stacked leaves, per layer weight, bias, gamma, beta (their
    checkpoint-name order). The backward sums pooled's three input
    gradients in encoder order. With `train`, both batch-norm states
    track their batch statistics once the output has passed the
    finiteness check.
    """
    n, c = pooled.shape
    width = enc.fc1.weight.shape[2]
    if width != c:
        raise ValueError(f"encode_attention: pooled width {c} != encoder "
                         f"input width {width}")
    if train and n < 2:
        raise ValueError("train-mode batch_norm needs >= 2 elements "
                         "per channel for the variance")

    v, saved, parents, tracked = pooled.data, [], (pooled,), []
    for fc, bn in ((enc.fc1, enc.bn1), (enc.fc2, enc.bn2)):
        w = fc.weight.data                                    # [3,out,in]
        h = np.matmul(v, w.transpose(0, 2, 1)) + fc.bias.data[:, None, :]
        mask = h > 0.0
        running = None if train else (bn.running_mean[:, None, :],
                                      bn.running_var[:, None, :])
        out, mean, var, bn_bwd = bn_arrays(
            h * mask, (1,), bn.gamma.data[:, None, :],
            bn.beta.data[:, None, :], running, "encode_attention")
        saved.append((v, w, mask, bn_bwd))
        parents += (fc.weight, fc.bias, bn.gamma, bn.beta)
        tracked.append((bn, mean, var))
        v = out

    def bwd(g):
        grads = []              # per layer: [3,...] weight, bias, gamma, beta
        for v, w, mask, bn_bwd in reversed(saved):
            g, d_gamma, d_beta = bn_bwd(g)
            g = g * mask
            d_w = np.matmul(np.swapaxes(v, -1, -2), g).transpose(0, 2, 1)
            grads[:0] = [d_w, g.sum(axis=1), d_gamma, d_beta]
            g = np.matmul(g, w)
        return [g[0] + g[1] + g[2]] + grads

    out = Tensor._from_op(v, parents, bwd, "encode_attention")
    if train:
        for bn, mean, var in tracked:
            bn.track(mean[:, 0], var[:, 0])
    return out


@ignore_fp_errors
def couple_attention(a: Tensor) -> Tensor:
    """Coupled two-way softmaxes, [3,N,C] logits (a1, a2, a3) ->
    [3,N,C] rows (A_LE, A_HE, A_BkS), as one graph node.

    With d = (a1 - a2, a2 - a3) and the logistic sigma:
    A_LE = sigma(d1), A_HE = sigma(-d2), A_BkS = (sigma(-d1) + sigma(d2))/2.
    a2 feeds both pairs: the lung and heart enhancers stay independent of
    each other while the background suppressor averages their complements.
    """
    if a.data.ndim != 3 or a.shape[0] != 3:
        raise ValueError(f"couple_attention expects [3,N,C] logits, got "
                         f"shape {a.shape}")
    d = a.data[:2] - a.data[1:]
    pos, neg = logistic(d), logistic(-d)

    # rounds as the sub/neg/sigmoid/add/mul chain it replaces did:
    # (g * s) * (1 - s) per sigmoid, and a2's two terms in one subtraction
    def bwd(g):
        half = g[2] * 0.5
        gd = (np.array((g[0], half)) * pos * (1.0 - pos)
              - np.array((half, g[1])) * neg * (1.0 - neg))
        return (np.array((gd[0], gd[1] - gd[0], -gd[1])),)

    return Tensor._from_op(np.array((pos[0], neg[1], (neg[0] + pos[1]) * 0.5)),
                           (a,), bwd, "couple_attention")


# Region mask of each branch over the pixel partition (lung, heart, rest):
# the enhancers see one region each, the background suppressor all three.
_BRANCH_REGIONS = np.array([[1.0, 0.0, 0.0],
                            [0.0, 1.0, 0.0],
                            [1.0, 1.0, 1.0]])


def aaa_forward(feat_us: Tensor, masks: AnatomyMasks, p: AaaParams,
                train: bool) -> Tensor:
    """Recalibrate feat_us[N,C,H,W] with mask-gated channel attention.

    The caller resizes masks to the feature resolution. Attention vectors
    broadcast over space; masks broadcast over channels. Every batch norm
    of the block follows `train`, as in `ops.batch_norm`. The three
    encoders are the single node `encode_attention` and their coupling the
    single node `couple_attention`. The gate and batch-norm tail is the
    single node `_gated_fuse`, which factors over the pixel regions lung,
    heart and rest; that is exact only because the masks are binary and
    disjoint, as `AnatomyMasks` enforces.
    """
    n, c, h, w = feat_us.shape
    if masks.spatial != (h, w):
        raise ValueError(f"mask spatial {masks.spatial} != feature ({h},{w})")
    pooled, _ = pwap(feat_us, p.intra_pwap)
    att = couple_attention(encode_attention(pooled, p.enc, train))
    return _gated_fuse(feat_us, att, masks, p, train)


@ignore_fp_errors
def _gated_fuse(feat: Tensor, att: Tensor, masks: AnatomyMasks, p: AaaParams,
                train: bool) -> Tensor:
    """bn_fuse(bn_le(a_le*lung*f) + bn_he(a_he*heart*f) + bn_bks(a_bks*f))
    as one graph node with parents feat, the stacked [3,N,C] attention
    vectors att = (a_le, a_he, a_bks) and the four batch-norm gammas and
    betas: the [3,C] stacks of bn_branches (rows le, he, bks), then
    bn_fuse's.

    Relies on the masks being binary and disjoint, which `AnatomyMasks`
    enforces: the pixels split into regions R = (lung, heart, rest), each
    branch is f times a per-(n, c, region) coefficient, and every batch
    statistic follows from the [N,C,3] region sums Q1 = f @ R.T and
    Q2 = (f*f) @ R.T (one-pass variance, clamped at 0). The output is
    f * (G @ R) + const[c]. The backward applies the closed-form
    batch-norm gradient (Ioffe & Szegedy 2015) to bn_fuse and then to each
    branch in the same region algebra, from Vg = g @ R.T and
    Ug = (f*g) @ R.T, and expands dfeat = c1*g + c2*f + c3 with each
    [N,C,3] coefficient taken through @ R. Without `train`, every state
    normalizes with its running statistics, as constants, so the forward
    computes no batch statistic and no Q1 or Q2; the backward computes
    Q1 and Q2 if it runs. With `train`, running statistics are updated,
    branches before fuse, once the output has passed the finiteness
    check.
    """
    n, c, h, w = feat.shape
    branches, fuse = p.bn_branches, p.bn_fuse
    for s in (branches, fuse):
        if s.channels != c:
            raise ValueError(f"_gated_fuse: {c} channels vs batch-norm state "
                             f"with {s.channels}")
    count = n * h * w
    if count < 2:
        raise ValueError("_gated_fuse needs >= 2 elements per channel")

    f = feat.data.reshape(n, c, h * w)
    lung = masks.lung.reshape(n, 1, h * w)
    heart = masks.heart.reshape(n, 1, h * w)
    region = np.concatenate((lung, heart, 1.0 - lung - heart), axis=1)
    region_t = region.transpose(0, 2, 1)                      # [N,P,3]

    def region_sums():                                        # [N,C,3] each
        return f @ region_t, (f * f) @ region_t

    # branch k is f * (A[k] @ R), A[k] of shape [N,C,3]
    a = att.data[..., None] * _BRANCH_REGIONS[:, None, None, :]
    if train:
        q1, q2 = sums = region_sums()
        batch_mean = (a * q1).sum(axis=(1, 3)) / count        # [3,C]
        batch_var = np.maximum((a * a * q2).sum(axis=(1, 3)) / count
                               - batch_mean ** 2, 0.0)
        centre, var = batch_mean, batch_var
    else:
        sums = None
        centre, var = branches.running_mean, branches.running_var
    std = np.sqrt(var + BN_EPSILON)
    scale = branches.gamma.data / std

    # fused = f * (B @ R) + shift[c]; bn_fuse sees z = f * (B @ R)
    b = (scale[:, None, :, None] * a).sum(axis=0)             # [N,C,3]
    shift = (branches.beta.data - scale * centre).sum(axis=0)
    if train:
        z_mean = (b * q1).sum(axis=(0, 2)) / count
        z_var = np.maximum((b * b * q2).sum(axis=(0, 2)) / count
                           - z_mean ** 2, 0.0)
        fuse_centre, fuse_var = z_mean + shift, z_var
    else:
        fuse_centre, fuse_var = fuse.running_mean, fuse.running_var
    z_centre = fuse_centre - shift
    fuse_std = np.sqrt(fuse_var + BN_EPSILON)
    alpha = fuse.gamma.data / fuse_std
    gate = alpha[:, None] * b                                 # G, [N,C,3]
    const = fuse.beta.data - alpha * z_centre
    out_data = f * (gate @ region) + const[:, None]

    def bwd(g):
        q1, q2 = region_sums() if sums is None else sums
        cnt = region.sum(axis=2)[:, None, :]                  # [N,1,3]
        gf = g.reshape(n, c, h * w)
        vg = gf @ region_t
        ug = (f * gf) @ region_t
        sum_g = vg.sum(axis=(0, 2))
        d_fuse_gamma = ((b * ug).sum(axis=(0, 2))
                        - z_centre * sum_g) / fuse_std
        # d fused = alpha*g + e0[c] + (e1 @ R) * f
        mean_g = train * sum_g / count
        mean_gz = train * d_fuse_gamma / count
        e0 = alpha * (mean_gz * z_centre / fuse_std - mean_g)
        e1 = -(alpha * mean_gz / fuse_std)[:, None] * b
        # region sums of d fused and of d fused * f
        s0 = alpha[:, None] * vg + e0[:, None] * cnt + e1 * q1
        s1 = alpha[:, None] * ug + e0[:, None] * q1 + e1 * q2
        sum_s0 = s0.sum(axis=(0, 2))
        d_gamma = ((a * s1).sum(axis=(1, 3)) - centre * sum_s0) / std
        d_beta = np.tile(sum_s0, (3, 1))                      # [3,C]
        # zero in exact arithmetic, but dropping it changes the rounding
        mean_d = train * d_beta / count
        mean_dx = train * d_gamma / count
        k4 = (slice(None), None, slice(None), None)           # [3,C] -> 4-D
        d_a = scale[k4] * (s1 - mean_d[k4] * q1
                           - (a * q2 - centre[k4] * q1) * (mean_dx / std)[k4])
        c1 = gate
        c2 = (scale[k4] * a * (e1 - a * (mean_dx / std)[k4])).sum(axis=0)
        c3 = (scale[k4] * a * (e0 - mean_d + centre * mean_dx / std)[k4]
              ).sum(axis=0)
        d_feat = (c1 @ region) * gf + (c2 @ region) * f + c3 @ region
        return (d_feat.reshape(n, c, h, w),
                np.array((d_a[0, :, :, 0], d_a[1, :, :, 1],
                          d_a[2].sum(axis=2))),
                d_gamma, d_beta, d_fuse_gamma, sum_g)

    out = Tensor._from_op(
        out_data.reshape(n, c, h, w),
        (feat, att, branches.gamma, branches.beta, fuse.gamma, fuse.beta),
        bwd, "gated_fuse")
    if train:
        branches.track(batch_mean, batch_var)
        fuse.track(fuse_centre, z_var)
    return out
