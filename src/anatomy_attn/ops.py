"""Differentiable neural-net building blocks on top of the tensor core."""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache

import numpy as np

from .tensor import Tensor, ignore_fp_errors

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
    """Per-channel batch normalization state.

    `mode` is "train" (batch statistics, running stats updated with
    BN_MOMENTUM) or "eval" (running statistics). Normalization uses the
    biased 1/N variance estimator plus BN_EPSILON.
    """

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    mode: str = "train"

    def __post_init__(self):
        if np.any(self.running_var < 0):
            raise ValueError("running_var must be >= 0")

    @classmethod
    def init(cls, channels: int, **kwargs):
        return cls(Tensor(np.ones(channels), requires_grad=True),
                   Tensor(np.zeros(channels), requires_grad=True),
                   np.zeros(channels), np.ones(channels), **kwargs)

    @property
    def channels(self) -> int:
        return self.gamma.size

    def track(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Fold one batch's per-channel statistics into the running ones."""
        m = BN_MOMENTUM
        self.running_mean = (1 - m) * self.running_mean + m * mean
        self.running_var = (1 - m) * self.running_var + m * var


def _walk(block, prefix: str, kind: type):
    """(name, value) for every `kind` in a parameter block: a dataclass
    recurses over its fields in declaration order as `prefix.field`, and
    anything else that is not a `kind` yields nothing."""
    if isinstance(block, kind):
        yield prefix, block
    elif is_dataclass(block):
        for f in fields(block):
            yield from _walk(getattr(block, f.name), f"{prefix}.{f.name}", kind)


def named_tensors(block, prefix: str):
    """(checkpoint name, Tensor) for every learnable tensor in `block`."""
    return _walk(block, prefix, Tensor)


def bn_states(block) -> list:
    """Every BatchNormState in `block`, in field order."""
    return [s for _, s in _walk(block, "", BatchNormState)]


# -- ops ----------------------------------------------------------------------


@ignore_fp_errors
def fully_connected(v: Tensor, p: LinearParams) -> Tensor:
    """v[N,in] -> v @ W.T + b, shape [N,out], as one node."""
    w, b = p.weight, p.bias
    if v.shape[-1] != w.shape[1]:
        raise ValueError(f"fully_connected: input dim {v.shape[-1]} != "
                         f"weight in-dim {w.shape[1]}")

    def bwd(g):
        return [(v, g @ w.data), (w, (v.data.T @ g).T), (b, g.sum(axis=0))]

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
        return [(x, np.einsum("oc,nohw->nchw", weight.data, g)),
                (weight, np.einsum("nohw,nchw->oc", g, x.data)),
                (bias, g.sum(axis=(0, 2, 3)).reshape(bias.shape))]

    return Tensor._from_op(out_data, (x, weight, bias), bwd, "conv_1x1")


def conv3x3(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """3x3 convolution with padding 1. weight[C_out,C_in,3,3].

    Internal backbone helper; general convolution is deliberately not
    exported beyond this restricted form.
    """
    n, c, h, w = x.shape
    c_out = weight.shape[0]
    if weight.shape[1] != c:
        raise ValueError("conv3x3 channel mismatch")
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ho = (h + 2 - 3) // stride + 1
    wo = (w + 2 - 3) // stride + 1
    out_data = np.zeros((n, c_out, ho, wo))
    for di in range(3):
        for dj in range(3):
            patch = xp[:, :, di:di + stride * ho:stride, dj:dj + stride * wo:stride]
            out_data += np.einsum("oc,nchw->nohw", weight.data[:, :, di, dj], patch)
    out_data += bias.data.reshape(1, -1, 1, 1)

    def bwd(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(weight.data)
        for di in range(3):
            for dj in range(3):
                patch = xp[:, :, di:di + stride * ho:stride,
                           dj:dj + stride * wo:stride]
                gw[:, :, di, dj] = np.einsum("nohw,nchw->oc", g, patch)
                gxp[:, :, di:di + stride * ho:stride,
                    dj:dj + stride * wo:stride] += np.einsum(
                        "oc,nohw->nchw", weight.data[:, :, di, dj], g)
        return [(x, gxp[:, :, 1:1 + h, 1:1 + w]),
                (weight, gw),
                (bias, g.sum(axis=(0, 2, 3)))]

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
    rm = interp_matrix(h, th, method)
    cm = interp_matrix(w, tw, method)

    def bwd(g):
        return [(x, rm.T @ g @ cm)]

    return Tensor._from_op(rm @ x.data @ cm.T, (x,), bwd, f"resize_{method}")


def batch_norm(x: Tensor, s: BatchNormState) -> Tensor:
    """Batch normalization over [N] (rank-2 input) or [N,H,W] (rank-4).

    One graph node with parents x, gamma and beta. Train mode
    differentiates through the batch statistics in closed form
    (Ioffe & Szegedy 2015): with g_hat = g * gamma,
    dx = (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)) / std.
    Eval mode treats the running statistics as constants: dx = g_hat / std.
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
    count = int(np.prod([x.shape[a] for a in axes]))
    if count < 1:
        raise ValueError("batch_norm needs at least one element per channel")

    gamma = s.gamma.data.reshape(param_shape)
    beta = s.beta.data.reshape(param_shape)

    if s.mode == "train":
        if count < 2:
            raise ValueError("train-mode batch_norm needs >= 2 elements "
                             "per channel for the variance")
        mu = x.data.mean(axis=axes, keepdims=True)
        xm = x.data - mu
        var = (xm * xm).mean(axis=axes, keepdims=True)
        std = np.sqrt(var + BN_EPSILON)
        x_hat = xm / std

        def dx(g_hat):
            return (g_hat - g_hat.mean(axis=axes, keepdims=True)
                    - x_hat * (g_hat * x_hat).mean(axis=axes, keepdims=True)
                    ) / std
    elif s.mode == "eval":
        rm = s.running_mean.reshape(param_shape)
        std = np.sqrt(s.running_var + BN_EPSILON).reshape(param_shape)
        x_hat = (x.data - rm) / std

        def dx(g_hat):
            return g_hat / std
    else:
        raise ValueError(f"unknown batch_norm mode {s.mode!r}")

    def bwd(g):
        return [(x, dx(g * gamma)),
                (s.gamma, (g * x_hat).sum(axis=axes).reshape(s.gamma.shape)),
                (s.beta, g.sum(axis=axes).reshape(s.beta.shape))]

    out = Tensor._from_op(x_hat * gamma + beta, (x, s.gamma, s.beta), bwd,
                          "batch_norm")
    if s.mode == "train":
        s.track(mu.reshape(-1), var.reshape(-1))
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
