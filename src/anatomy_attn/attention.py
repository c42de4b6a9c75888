"""Anatomy-aware attention block and probabilistic weighted average pooling.

The attention block recalibrates a feature map with three coupled
channel-attention vectors: a lung enhancer and a heart enhancer gated by
binary anatomy masks, plus a background suppressor that sees the whole
feature map. The three vectors travel as one stacked [3,N,C] tensor
(rows: encoder 1, 2, 3, then A_LE, A_HE, A_BkS): `encode_attention` runs
the three encoders as one graph node on a leading group axis, in the
manner of grouped branches (Xie et al. 2017), and `couple_attention`
couples them as a second node. Pooling weights come from a learned 1x1
conv + sigmoid, normalized by their spatial sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (BN_EPSILON, BatchNormState, LinearParams, bn_arrays,
                  conv_1x1, interp_matrix)
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
    """FC -> ReLU -> BN -> FC -> ReLU -> BN bottleneck.

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
        return cls(LinearParams.init(channels, hidden, rng),
                   BatchNormState.init(hidden),
                   LinearParams.init(hidden, channels, rng),
                   BatchNormState.init(channels))

    def leaves(self) -> tuple:
        """The learnable tensors, in checkpoint-name order."""
        return (self.fc1.weight, self.fc1.bias, self.bn1.gamma, self.bn1.beta,
                self.fc2.weight, self.fc2.bias, self.bn2.gamma, self.bn2.beta)


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
            vals = np.unique(m)
            if not np.all(np.isin(vals, (0.0, 1.0))):
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
        rm = interp_matrix(self.spatial[0], target[0], "nearest")
        cm = interp_matrix(self.spatial[1], target[1], "nearest")
        return AnatomyMasks(rm @ self.lung @ cm.T, rm @ self.heart @ cm.T)

    def union(self) -> np.ndarray:
        return np.maximum(self.lung, self.heart)


@dataclass
class AaaParams:
    """One attention block: three encoders sharing channel count C, an
    intra-block pooling head, and four independent BN states."""

    enc1: AttentionEncoderParams
    enc2: AttentionEncoderParams
    enc3: AttentionEncoderParams
    intra_pwap: PwapParams
    bn_le: BatchNormState
    bn_he: BatchNormState
    bn_bks: BatchNormState
    bn_fuse: BatchNormState

    @classmethod
    def init(cls, channels: int, r: float, rng: np.random.Generator):
        return cls(AttentionEncoderParams.init(channels, r, rng),
                   AttentionEncoderParams.init(channels, r, rng),
                   AttentionEncoderParams.init(channels, r, rng),
                   PwapParams.init(channels),
                   BatchNormState.init(channels), BatchNormState.init(channels),
                   BatchNormState.init(channels), BatchNormState.init(channels))


def pwap(feat: Tensor, p: PwapParams):
    """Probability-weighted spatial pooling.

    Returns (V, P): per-pixel weights P = sigmoid(K * F + b) in (0,1), and
    V_c = sum_ij(F_c * P) / (sum_ij P + PWAP_EPSILON). The intra-block and
    post-block uses share this one code path.
    """
    prob = conv_1x1(feat, p.kernel, p.bias).sigmoid()          # [N,1,H,W]
    weighted = feat * prob                                     # broadcast C
    pooled = weighted.sum(axis=(2, 3)) / (prob.sum(axis=(2, 3))
                                          + PWAP_EPSILON)      # [N,C]/[N,1]
    return pooled, prob


@ignore_fp_errors
def encode_attention(pooled: Tensor, encoders, train: bool) -> Tensor:
    """pooled[N,C] -> [3,N,C]: row k is encoder k's
    FC -> ReLU -> BN -> FC -> ReLU -> BN, all three as one graph node.

    Each layer stacks the three encoders' parameters on a leading group
    axis: batched matmuls (equal bit for bit to one `v @ W.T` per
    encoder) and batch norms over axis 1 by `ops.bn_arrays`. The parents
    are pooled and the 24 per-encoder leaves, so parameters and their
    names do not change; the backward returns one slice per leaf and
    sums pooled's three input gradients in encoder order. With `train`,
    each of the six batch-norm states tracks its own batch statistics
    once the output has passed the finiteness check.
    """
    n, c = pooled.shape
    widths = sorted({e.fc1.weight.shape[1] for e in encoders})
    if widths != [c]:
        raise ValueError(f"encode_attention: pooled width {c} != encoder "
                         f"input widths {widths}")
    if train and n < 2:
        raise ValueError("train-mode batch_norm needs >= 2 elements "
                         "per channel for the variance")
    layers = [(tuple(e.fc1 for e in encoders), tuple(e.bn1 for e in encoders)),
              (tuple(e.fc2 for e in encoders), tuple(e.bn2 for e in encoders))]

    def stacked(arrays):                                      # [3,1,width]
        return np.array(arrays)[:, None, :]

    v, saved, tracked = pooled.data, [], []
    for fcs, bns in layers:
        w = np.array([fc.weight.data for fc in fcs])          # [3,out,in]
        h = np.matmul(v, w.transpose(0, 2, 1)) + stacked(
            [fc.bias.data for fc in fcs])
        mask = h > 0.0
        running = None if train else (stacked([s.running_mean for s in bns]),
                                      stacked([s.running_var for s in bns]))
        out, mean, var, bn_bwd = bn_arrays(
            h * mask, (1,), stacked([s.gamma.data for s in bns]),
            stacked([s.beta.data for s in bns]), running)
        saved.append((v, w, mask, bn_bwd))
        if train:
            tracked += zip(bns, mean, var)
        v = out

    leaves = tuple(t for e in encoders for t in e.leaves())

    def bwd(g):
        grads = []                       # [3,...] arrays in `leaves` order
        for v, w, mask, bn_bwd in reversed(saved):
            g, d_gamma, d_beta = bn_bwd(g)
            g = g * mask
            d_w = np.matmul(np.swapaxes(v, -1, -2), g).transpose(0, 2, 1)
            grads[:0] = [d_w, g.sum(axis=1), d_gamma, d_beta]
            g = np.matmul(g, w)
        return [(pooled, g[0] + g[1] + g[2])] + list(zip(
            leaves, (d[k] for k in range(len(encoders)) for d in grads)))

    out = Tensor._from_op(v, (pooled,) + leaves, bwd, "encode_attention")
    for s, mean, var in tracked:
        s.track(mean.reshape(-1), var.reshape(-1))
    return out


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
        return [(a, np.array((gd[0], gd[1] - gd[0], -gd[1])))]

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
    att = couple_attention(
        encode_attention(pooled, (p.enc1, p.enc2, p.enc3), train))
    return _gated_fuse(feat_us, att, masks, p, train)


@ignore_fp_errors
def _gated_fuse(feat: Tensor, att: Tensor, masks: AnatomyMasks, p: AaaParams,
                train: bool) -> Tensor:
    """bn_fuse(bn_le(a_le*lung*f) + bn_he(a_he*heart*f) + bn_bks(a_bks*f))
    as one graph node with parents feat, the stacked [3,N,C] attention
    vectors att = (a_le, a_he, a_bks) and the eight batch-norm gammas and
    betas.

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
    normalizes with its running statistics, as constants. With it,
    running statistics are updated in the order le, he, bks, fuse once
    the output has passed the finiteness check.
    """
    n, c, h, w = feat.shape
    branches = (p.bn_le, p.bn_he, p.bn_bks)
    fuse = p.bn_fuse
    states = branches + (fuse,)
    for s in states:
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
    q1 = f @ region_t                                         # [N,C,3]
    q2 = (f * f) @ region_t

    # branch k is f * (A[k] @ R), A[k] of shape [N,C,3]
    a = att.data[..., None] * _BRANCH_REGIONS[:, None, None, :]
    batch_mean = (a * q1).sum(axis=(1, 3)) / count            # [3,C]
    batch_var = np.maximum((a * a * q2).sum(axis=(1, 3)) / count
                           - batch_mean ** 2, 0.0)
    if train:
        centre, var = batch_mean, batch_var
    else:
        centre = np.array([s.running_mean for s in branches])
        var = np.array([s.running_var for s in branches])
    std = np.sqrt(var + BN_EPSILON)
    gamma = np.array([s.gamma.data for s in branches])
    beta = np.array([s.beta.data for s in branches])
    scale = gamma / std

    # fused = f * (B @ R) + shift[c]; bn_fuse sees z = f * (B @ R)
    b = (scale[:, None, :, None] * a).sum(axis=0)             # [N,C,3]
    shift = (beta - scale * centre).sum(axis=0)
    z_mean = (b * q1).sum(axis=(0, 2)) / count
    z_var = np.maximum((b * b * q2).sum(axis=(0, 2)) / count
                       - z_mean ** 2, 0.0)
    fuse_centre, fuse_var = ((z_mean + shift, z_var) if train
                             else (fuse.running_mean, fuse.running_var))
    z_centre = fuse_centre - shift
    fuse_std = np.sqrt(fuse_var + BN_EPSILON)
    alpha = fuse.gamma.data / fuse_std
    gate = alpha[:, None] * b                                 # G, [N,C,3]
    const = fuse.beta.data - alpha * z_centre
    out_data = f * (gate @ region) + const[:, None]

    def bwd(g):
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
        # zero in exact arithmetic, but dropping it changes the rounding
        mean_d = train * np.tile(sum_s0, (3, 1)) / count      # [3,C]
        mean_dx = train * d_gamma / count
        k4 = (slice(None), None, slice(None), None)           # [3,C] -> 4-D
        d_a = scale[k4] * (s1 - mean_d[k4] * q1
                           - (a * q2 - centre[k4] * q1) * (mean_dx / std)[k4])
        c1 = gate
        c2 = (scale[k4] * a * (e1 - a * (mean_dx / std)[k4])).sum(axis=0)
        c3 = (scale[k4] * a * (e0 - mean_d + centre * mean_dx / std)[k4]
              ).sum(axis=0)
        d_feat = (c1 @ region) * gf + (c2 @ region) * f + c3 @ region
        return [(feat, d_feat.reshape(n, c, h, w)),
                (att, np.array((d_a[0, :, :, 0], d_a[1, :, :, 1],
                                d_a[2].sum(axis=2)))),
                (p.bn_le.gamma, d_gamma[0]), (p.bn_le.beta, sum_s0),
                (p.bn_he.gamma, d_gamma[1]), (p.bn_he.beta, sum_s0),
                (p.bn_bks.gamma, d_gamma[2]), (p.bn_bks.beta, sum_s0),
                (fuse.gamma, d_fuse_gamma), (fuse.beta, sum_g)]

    out = Tensor._from_op(
        out_data.reshape(n, c, h, w),
        (feat, att) + tuple(t for s in states
                                          for t in (s.gamma, s.beta)),
        bwd, "gated_fuse")
    if train:
        for s, m, v in zip(states, (*batch_mean, z_mean + shift),
                           (*batch_var, z_var)):
            s.track(m, v)
    return out
