"""Anatomy-aware attention block and probabilistic weighted average pooling.

The attention block recalibrates a feature map with three coupled
channel-attention vectors: a lung enhancer and a heart enhancer gated by
binary anatomy masks, plus a background suppressor that sees the whole
feature map. Pooling weights come from a learned 1x1 conv + sigmoid,
normalized by their spatial sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (BatchNormState, LinearParams, batch_norm, conv_1x1,
                  fully_connected, resize, softmax_pair)
from .tensor import Tensor


@dataclass
class PwapParams:
    """1x1 pooling-weight filter K plus bias and a denominator guard.

    K and bias init to zero, so freshly built pooling starts as plain
    mean pooling (weights all 0.5, which cancel in the normalization).
    """

    kernel: Tensor
    bias: Tensor
    epsilon_denom: float = 1e-8

    def __post_init__(self):
        if self.epsilon_denom <= 0:
            raise ValueError("epsilon_denom must be > 0")

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
        if r <= 0:
            raise ValueError("reduction ratio must be > 0")
        hidden = max(1, round(channels / r))
        return cls(LinearParams.init(channels, hidden, rng),
                   BatchNormState.init(hidden),
                   LinearParams.init(hidden, channels, rng),
                   BatchNormState.init(channels))

    def apply(self, v: Tensor) -> Tensor:
        h = batch_norm(fully_connected(v, self.fc1).relu(), self.bn1)
        return batch_norm(fully_connected(h, self.fc2).relu(), self.bn2)


@dataclass
class AnatomyMasks:
    """Binary lung and heart masks, shape [N,1,h,w], pixelwise disjoint."""

    lung: Tensor
    heart: Tensor

    def __post_init__(self):
        if self.lung.shape != self.heart.shape:
            raise ValueError("lung/heart mask shape mismatch")
        for name, m in (("lung", self.lung), ("heart", self.heart)):
            vals = np.unique(m.data)
            if not np.all(np.isin(vals, (0.0, 1.0))):
                raise ValueError(f"{name} mask is not binary")
        if np.any(self.lung.data * self.heart.data > 0):
            raise ValueError("lung and heart masks overlap")

    @property
    def spatial(self) -> tuple:
        return self.lung.shape[2:]

    def resized(self, target: tuple) -> "AnatomyMasks":
        """Nearest-neighbor resize, preserving the binary value set."""
        if self.spatial == tuple(target):
            return self
        return AnatomyMasks(resize(self.lung, target, "nearest"),
                            resize(self.heart, target, "nearest"))

    def union(self) -> Tensor:
        return Tensor(np.maximum(self.lung.data, self.heart.data))


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
    V_c = sum_ij(F_c * P) / (sum_ij P + epsilon). The intra-block and
    post-block uses share this one code path.
    """
    prob = conv_1x1(feat, p.kernel, p.bias).sigmoid()          # [N,1,H,W]
    weighted = feat * prob                                     # broadcast C
    pooled = weighted.sum(axis=(2, 3)) / (prob.sum(axis=(2, 3))
                                          + p.epsilon_denom)   # [N,C]/[N,1]
    return pooled, prob


def couple_attention(a1: Tensor, a2: Tensor, a3: Tensor):
    """Coupled two-way softmaxes producing (A_LE, A_HE, A_BkS).

    a2 feeds both pairs: the lung and heart enhancers stay independent of
    each other while the background suppressor averages their complements.
    """
    if not a1.shape == a2.shape == a3.shape:
        raise ValueError("couple_attention shape mismatch")
    a_le, a_le_bar = softmax_pair(a1, a2)
    a_he_bar, a_he = softmax_pair(a2, a3)
    a_bks = (a_le_bar + a_he_bar) * 0.5
    return a_le, a_he, a_bks


def aaa_forward(feat_us: Tensor, masks: AnatomyMasks, p: AaaParams) -> Tensor:
    """Recalibrate feat_us[N,C,H,W] with mask-gated channel attention.

    The caller resizes masks to the feature resolution. Attention vectors
    broadcast over space; masks broadcast over channels.
    """
    n, c, h, w = feat_us.shape
    if masks.spatial != (h, w):
        raise ValueError(f"mask spatial {masks.spatial} != feature ({h},{w})")
    pooled, _ = pwap(feat_us, p.intra_pwap)
    a1 = p.enc1.apply(pooled)
    a2 = p.enc2.apply(pooled)
    a3 = p.enc3.apply(pooled)
    a_le, a_he, a_bks = couple_attention(a1, a2, a3)
    a_le = a_le.reshape((n, c, 1, 1))
    a_he = a_he.reshape((n, c, 1, 1))
    a_bks = a_bks.reshape((n, c, 1, 1))
    r_le = a_le * masks.lung * feat_us
    r_he = a_he * masks.heart * feat_us
    r_bks = a_bks * feat_us
    fused = (batch_norm(r_le, p.bn_le) + batch_norm(r_he, p.bn_he)
             + batch_norm(r_bks, p.bn_bks))
    return batch_norm(fused, p.bn_fuse)
