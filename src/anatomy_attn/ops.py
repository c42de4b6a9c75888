"""Differentiable neural-net building blocks on top of the tensor core."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import NonFiniteError, Tensor, ignore_fp_errors

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.1


# -- parameter containers -----------------------------------------------------


@dataclass
class LinearParams:
    """Affine map parameters: out x in weight plus out bias."""

    weight: Tensor
    bias: Tensor

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(in_dim)
        w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        return cls(Tensor(w, requires_grad=True),
                   Tensor(np.zeros(out_dim), requires_grad=True))


@dataclass
class ConvParams:
    """3x3 convolution parameters: out x in x 3 x 3 weight plus out bias."""

    weight: Tensor
    bias: Tensor

    @classmethod
    def init(cls, cin: int, cout: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(cin * 9)
        w = rng.uniform(-bound, bound, size=(cout, cin, 3, 3))
        return cls(Tensor(w, requires_grad=True),
                   Tensor(np.zeros(cout), requires_grad=True))


@dataclass
class BatchNormState:
    """Per-channel batch normalization state: the affine gamma and beta
    and the running statistics that inference normalizes with.
    Normalization uses the biased 1/N variance estimator plus BN_EPSILON.
    """

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        self.check_running_var(self.running_var, "running_var")

    @staticmethod
    def check_running_var(var: np.ndarray, name: str) -> None:
        """Raise ValueError naming `name` if a running variance is < 0."""
        if np.any(var < 0):
            raise ValueError(f"{name} must be >= 0")

    @classmethod
    def init(cls, shape):
        """Identity state of `shape`: C, or [G,C] for a grouped layer."""
        return cls(Tensor(np.ones(shape), requires_grad=True),
                   Tensor(np.zeros(shape), requires_grad=True),
                   np.zeros(shape), np.ones(shape))

    @property
    def channels(self) -> int:
        return self.gamma.shape[-1]

    def track(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Fold one batch's per-channel statistics into the running ones."""
        m = BN_MOMENTUM
        self.running_mean = (1 - m) * self.running_mean + m * mean
        self.running_var = (1 - m) * self.running_var + m * var


def walk(block, prefix: str, kind: type):
    """(name, value) for every `kind` in a parameter block: a dataclass
    recurses over its fields in declaration order as `prefix.field`, and
    anything else that is not a `kind` yields nothing. Model parameters
    and running statistics are both named by this path."""
    if isinstance(block, kind):
        yield prefix, block
    elif is_dataclass(block):
        for f in fields(block):
            yield from walk(getattr(block, f.name), f"{prefix}.{f.name}", kind)


# -- ops ----------------------------------------------------------------------


@ignore_fp_errors
def fully_connected(v: Tensor, p: LinearParams) -> Tensor:
    """v[N,in] -> v @ W.T + b, shape [N,out], as one node."""
    w, b = p.weight, p.bias
    if v.shape[-1] != w.shape[1]:
        raise ValueError(f"fully_connected: input dim {v.shape[-1]} != "
                         f"weight in-dim {w.shape[1]}")

    def bwd(g):
        return g @ w.data, (v.data.T @ g).T, g.sum(axis=0)

    return Tensor._from_op(v.data @ w.data.T + b.data, (v, w, b), bwd,
                           "fully_connected")


def conv_1x1(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Pointwise channel mix: x[N,C,H,W], weight[C_out,C] -> [N,C_out,H,W]."""
    if x.data.ndim != 4:
        raise ValueError("conv_1x1 expects a rank-4 input")
    if weight.shape[1] != x.shape[1]:
        raise ValueError(f"conv_1x1: weight in-channels {weight.shape[1]} != "
                         f"input channels {x.shape[1]}")
    out_data = (np.einsum("oc,nchw->nohw", weight.data, x.data)
                + bias.data.reshape(1, -1, 1, 1))

    def bwd(g):
        return (np.einsum("oc,nohw->nchw", weight.data, g),
                np.einsum("nohw,nchw->oc", g, x.data),
                g.sum(axis=(0, 2, 3)).reshape(bias.shape))

    return Tensor._from_op(out_data, (x, weight, bias), bwd, "conv_1x1")


def _windows(xp: np.ndarray, stride: int) -> np.ndarray:
    """Read-only [N, C, Ho, Wo, 3, 3] view of the 3x3 windows of xp at
    `stride`: `sliding_window_view`'s view at every stride-th window, built
    by one call."""
    n, c, h, w = xp.shape
    s0, s1, s2, s3 = xp.strides
    shape = (n, c, (h - 3) // stride + 1, (w - 3) // stride + 1, 3, 3)
    return as_strided(xp, shape, (s0, s1, s2 * stride, s3 * stride, s2, s3),
                      writeable=False)


def conv3x3(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """3x3 convolution with padding 1. weight[C_out,C_in,3,3].

    Both passes read im2col views (Chellapilla et al. 2006) of the padded
    input's 3x3 windows. The forward is one einsum per tap over contiguous
    [C, N*Ho*Wo] rows: the same sums in the same order, without fused
    multiply-adds, as one einsum per strided tap view, so it is
    bit-identical to that form. A BLAS forward would round differently,
    and one epoch of training amplifies that into AUC moves of over a
    point.

    The backward is two matmuls batched per image: g @ colsᵀ for the
    weight, with cols the [N, C*9, Ho*Wo] patch matrix, and Wᵀ @ g
    scattered back by 9 strided adds for the input. Per image, the
    products are small enough for OpenBLAS to run on one thread; one GEMM
    over the whole batch is split over threads whose idle workers spin,
    raising CPU time well above wall time. cols is rebuilt from xp rather
    than kept alive in the closure until the graph is freed.

    Internal backbone helper; general convolution is deliberately not
    exported beyond this restricted form.
    """
    n, c, h, w = x.shape
    c_out = weight.shape[0]
    if weight.shape[1] != c:
        raise ValueError("conv3x3 channel mismatch")
    xp = np.zeros((n, c, h + 2, w + 2))  # np.pad costs more at these sizes
    xp[:, :, 1:-1, 1:-1] = x.data
    ho = (h + 2 - 3) // stride + 1
    wo = (w + 2 - 3) // stride + 1
    taps = _windows(xp, stride).transpose(4, 5, 1, 0, 2, 3).reshape(
        9, c, n * ho * wo)
    w_taps = weight.data.reshape(c_out, c, 9)
    acc = np.zeros((c_out, n * ho * wo))
    for t in range(9):
        acc += np.einsum("oc,cq->oq", w_taps[:, :, t], taps[t])
    # C-contiguous NCHW, so later ops take the same code paths as before
    out_data = np.ascontiguousarray(
        acc.reshape(c_out, n, ho, wo).transpose(1, 0, 2, 3))
    out_data += bias.data.reshape(1, -1, 1, 1)

    def bwd(g):
        g2 = g.reshape(n, c_out, ho * wo)
        cols = _windows(xp, stride).transpose(0, 1, 4, 5, 2, 3).reshape(
            n, c * 9, ho * wo)
        gw = (g2 @ cols.transpose(0, 2, 1)).sum(axis=0)
        gcols = (weight.data.reshape(c_out, c * 9).T
                 @ g2).reshape(n, c, 3, 3, ho, wo)
        gxp = np.zeros_like(xp)
        for di in range(3):
            for dj in range(3):
                gxp[:, :, di:di + stride * ho:stride,
                    dj:dj + stride * wo:stride] += gcols[:, :, di, dj]
        return (gxp[:, :, 1:1 + h, 1:1 + w], gw.reshape(weight.shape),
                g.sum(axis=(0, 2, 3)))

    return Tensor._from_op(out_data, (x, weight, bias), bwd, "conv3x3")


@lru_cache(maxsize=64)
def interp_matrix(src: int, dst: int, method: str) -> np.ndarray:
    """[dst, src] matrix that resamples one axis of length src to dst.

    Nearest rows hold a single 1 at floor(i * src / dst); bilinear rows
    hold the two align-corners-off taps, which coincide (and sum to 1) at
    the clamped border.
    """
    rows = np.arange(dst)
    m = np.zeros((dst, src))
    if method == "nearest":
        m[rows, np.minimum((rows * (src / dst)).astype(int), src - 1)] = 1.0
    elif method == "bilinear":
        coords = np.clip((rows + 0.5) * (src / dst) - 0.5, 0.0, src - 1)
        i0 = np.floor(coords).astype(int)
        frac = coords - i0
        m[rows, i0] = 1 - frac
        m[rows, np.minimum(i0 + 1, src - 1)] += frac
    else:
        raise ValueError(f"unknown resize method {method!r}")
    m.flags.writeable = False
    return m


def resample(x: np.ndarray, target: tuple, method: str) -> np.ndarray:
    """x[..., H, W] resampled to target (H', W') as R @ x @ C.T, with the
    per-axis [dst, src] matrices of `interp_matrix`."""
    rm = interp_matrix(x.shape[-2], target[0], method)
    cm = interp_matrix(x.shape[-1], target[1], method)
    return rm @ x @ cm.T


def resize(x: Tensor, target: tuple, method: str = "bilinear") -> Tensor:
    """Resize x[N,C,H,W] to target (H',W').

    Computed as R @ x @ C.T with per-axis [dst, src] interpolation
    matrices, so the backward is R.T @ g @ C. Bilinear uses the
    align-corners-off convention; nearest uses floor(dst * scale) source
    indexing with 0/1 rows, so it preserves the value set exactly.
    """
    th, tw = target
    if th < 1 or tw < 1:
        raise ValueError(f"resize target must be >= 1, got {target}")
    _, _, h, w = x.shape
    out = resample(x.data, target, method)

    def bwd(g):
        return (interp_matrix(h, th, method).T @ g
                @ interp_matrix(w, tw, method),)

    return Tensor._from_op(out, (x,), bwd, f"resize_{method}")


@ignore_fp_errors
def bn_arrays(x: np.ndarray, axes: tuple, gamma: np.ndarray,
              beta: np.ndarray, running, op: str):
    """Batch normalization of the array `x` over `axes`, outside the graph:
    the math of `batch_norm` and of `attention.encode_attention`.

    `gamma`, `beta` and the `running` (mean, var) pair broadcast against
    x. Returns (out, mean, var, backward); backward(g) gives (dx, dgamma,
    dbeta), the last two summed over `axes`. Without `running` (None), x
    is normalized with its batch statistics, returned with the reduced
    axes kept, and the backward differentiates through them in closed form
    (Ioffe & Szegedy 2015): with g_hat = g * gamma,
    dx = (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)) / std.
    With `running`, mean and var are None and the statistics are
    constants: dx = g_hat / std. A non-finite batch variance raises
    NonFiniteError naming `op`.
    """
    if running is None:
        mean = x.mean(axis=axes, keepdims=True)
        xm = x - mean
        var = (xm * xm).mean(axis=axes, keepdims=True)
        if not np.isfinite(var).all():
            raise NonFiniteError(f"non-finite batch variance in op '{op}'")
        std = np.sqrt(var + BN_EPSILON)
        x_hat = xm / std
    else:
        mean = var = None
        std = np.sqrt(running[1] + BN_EPSILON)
        x_hat = (x - running[0]) / std

    def backward(g):
        g_hat = g * gamma
        if running is None:
            dx = (g_hat - g_hat.mean(axis=axes, keepdims=True)
                  - x_hat * (g_hat * x_hat).mean(axis=axes, keepdims=True)
                  ) / std
        else:
            dx = g_hat / std
        return dx, (g * x_hat).sum(axis=axes), g.sum(axis=axes)

    return x_hat * gamma + beta, mean, var, backward


def batch_norm(x: Tensor, s: BatchNormState, train: bool) -> Tensor:
    """Batch normalization over [N] (rank-2 input) or [N,H,W] (rank-4).

    One graph node with parents x, gamma and beta, computed by
    `bn_arrays`. With `train`, it normalizes with the batch statistics,
    folds them into the running ones with BN_MOMENTUM, and differentiates
    through them. Otherwise the running statistics are constants.
    """
    if x.data.ndim == 2:
        axes, param_shape = (0,), (1, s.channels)
    elif x.data.ndim == 4:
        axes, param_shape = (0, 2, 3), (1, s.channels, 1, 1)
    else:
        raise ValueError("batch_norm expects rank-2 or rank-4 input")
    if x.shape[1] != s.channels:
        raise ValueError(f"batch_norm: {x.shape[1]} channels vs state "
                         f"with {s.channels}")
    count = math.prod(x.shape[a] for a in axes)
    if count < 1:
        raise ValueError("batch_norm needs at least one element per channel")
    if train and count < 2:
        raise ValueError("train-mode batch_norm needs >= 2 elements "
                         "per channel for the variance")

    running = None if train else (s.running_mean.reshape(param_shape),
                                  s.running_var.reshape(param_shape))
    out, mean, var, bn_bwd = bn_arrays(
        x.data, axes, s.gamma.data.reshape(param_shape),
        s.beta.data.reshape(param_shape), running, "batch_norm")
    out = Tensor._from_op(out, (x, s.gamma, s.beta), bn_bwd, "batch_norm")
    if train:
        s.track(mean.reshape(-1), var.reshape(-1))
    return out


def softmax_pair(a: Tensor, b: Tensor):
    """Two-way channelwise softmax: sigma(a), sigma(b) summing to 1.

    A two-way softmax is the logistic of the logit difference, so this
    reuses the overflow-safe `Tensor.sigmoid`.
    """
    if a.shape != b.shape:
        raise ValueError(f"softmax_pair shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return d.sigmoid(), (-d).sigmoid()


def softmax_channels(x: Tensor) -> Tensor:
    """Softmax over the channel axis of x[N,K,H,W]."""
    e = (x - x.data.max(axis=1, keepdims=True)).exp()
    return e / e.sum(axis=1, keepdims=True)
