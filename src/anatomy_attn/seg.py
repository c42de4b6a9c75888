"""Semi-supervised segmentation objective over toy generator/discriminator
conv stacks, plus mask binarization and the cutout corruption operator.

Mask class channels are ordered (background, lung, heart) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AnatomyMasks
from .metrics import write_csv
from .ops import ConvParams, conv3x3, named_tensors, softmax_channels
from .optim import Adam
from .tensor import DivergenceError, NonFiniteError, Tensor

LOG_CLAMP = 1e-12
CLASS_NAMES = ("background", "lung", "heart")


@dataclass
class SegBatch:
    """Annotated CXR/mask pairs plus unannotated CXRs.

    annotated_masks is one-hot over (background, lung, heart) at every
    pixel.
    """

    annotated_cxr: Tensor     # [N,1,H,W]
    annotated_masks: Tensor   # [N,3,H,W]
    unannotated_cxr: Tensor   # [M,1,H,W]

    def __post_init__(self):
        m = self.annotated_masks.data
        if m.ndim != 4 or m.shape[1] != 3 or m.size == 0:
            raise ValueError(f"annotated_masks must be a non-empty [N,3,H,W], "
                             f"got {m.shape}")
        n, _, h, w = m.shape
        if self.annotated_cxr.shape != (n, 1, h, w):
            raise ValueError(f"annotated_cxr must be [{n},1,{h},{w}] like the "
                             f"masks, got {self.annotated_cxr.shape}")
        u = self.unannotated_cxr.shape
        if u[1:] != (1, h, w) or u[0] == 0:
            raise ValueError(f"unannotated_cxr must be [M,1,{h},{w}] with "
                             f"M >= 1, got {u}")
        if not np.all(np.isin(np.unique(m), (0.0, 1.0))):
            raise ValueError("annotated_masks must be one-hot binary")
        if not np.allclose(m.sum(axis=1), 1.0):
            raise ValueError("annotated_masks must sum to 1 over classes")


class ConvStack:
    """Stride-1 stack of 3x3 convs with ReLU between layers."""

    def __init__(self, widths, rng: np.random.Generator, prefix: str):
        self.layers = [ConvParams.init(cin, cout, rng)
                       for cin, cout in zip(widths[:-1], widths[1:])]
        self.prefix = prefix

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = conv3x3(x, layer.weight, layer.bias)
            if i < len(self.layers) - 1:
                x = x.relu()
        return x

    def parameters(self):
        return [nt for li, layer in enumerate(self.layers)
                for nt in named_tensors(layer, f"{self.prefix}.conv{li}")]


class MaskGenerator(ConvStack):
    """Image -> per-pixel class probabilities (softmax over 3 channels)."""

    def __call__(self, image: Tensor) -> Tensor:
        return softmax_channels(super().__call__(image))


class ImageGenerator(ConvStack):
    """Mask probabilities -> image."""


class Discriminator(ConvStack):
    """Input -> per-sample realness score in (0,1) (global mean + sigmoid)."""

    def __call__(self, x: Tensor) -> Tensor:
        return super().__call__(x).mean(axis=(1, 2, 3)).sigmoid()


@dataclass
class CycleNets:
    """Two conditional generators and two discriminators."""

    g_cm: MaskGenerator
    g_mc: ImageGenerator
    d_m: Discriminator
    d_c: Discriminator

    @classmethod
    def init(cls, width: int, seed: int):
        rng = np.random.default_rng(seed)
        return cls(MaskGenerator((1, width, width, 3), rng, "g_cm"),
                   ImageGenerator((3, width, width, 1), rng, "g_mc"),
                   Discriminator((3, width, width, 1), rng, "d_m"),
                   Discriminator((1, width, width, 1), rng, "d_c"))

    def generator_parameters(self):
        return self.g_cm.parameters() + self.g_mc.parameters()

    def discriminator_parameters(self):
        return self.d_m.parameters() + self.d_c.parameters()

    def parameters(self):
        return self.generator_parameters() + self.discriminator_parameters()


# -- losses -------------------------------------------------------------------


def pixel_ce(theta: Tensor, theta_tilde: Tensor) -> Tensor:
    """Pixel-wise cross-entropy, summed over pixels and classes, divided by
    the batch size for reporting. Probabilities are clamped at LOG_CLAMP
    before the log."""
    if theta.shape != theta_tilde.shape:
        raise ValueError("pixel_ce shape mismatch")
    n = theta.shape[0]
    logp = theta_tilde.clamp(lo=LOG_CLAMP).log()
    return -(theta * logp).sum() * (1.0 / n)


def fakes(batch: SegBatch, nets: CycleNets) -> tuple:
    """(fake_m, fake_c): masks generated from the unannotated CXRs and CXRs
    generated from the annotated masks."""
    return nets.g_cm(batch.unannotated_cxr), nets.g_mc(batch.annotated_masks)


def gen_losses(batch: SegBatch, nets: CycleNets, fake_c: Tensor) -> dict:
    """Supervised generator losses on the annotated subset."""
    l_gen_m = pixel_ce(batch.annotated_masks, nets.g_cm(batch.annotated_cxr))
    diff = fake_c - batch.annotated_cxr
    l_gen_c = (diff * diff).sum() * (1.0 / batch.annotated_cxr.shape[0])
    return {"L_gen_M": l_gen_m, "L_gen_C": l_gen_c}


def adv_losses(batch: SegBatch, nets: CycleNets, fake_m: Tensor,
               fake_c: Tensor) -> dict:
    """Least-squares adversarial losses for the two discriminators."""
    l_disc_m = (((nets.d_m(batch.annotated_masks) - 1.0) ** 2).mean()
                + (nets.d_m(fake_m) ** 2).mean())
    l_disc_c = (((nets.d_c(batch.unannotated_cxr) - 1.0) ** 2).mean()
                + (nets.d_c(fake_c) ** 2).mean())
    return {"L_disc_M": l_disc_m, "L_disc_C": l_disc_c}


def cycle_losses(batch: SegBatch, nets: CycleNets, fake_m: Tensor,
                 fake_c: Tensor) -> dict:
    """L1 image cycle and cross-entropy mask cycle consistency losses."""
    l_cycle_c = (nets.g_mc(fake_m) - batch.unannotated_cxr).abs().sum() \
        * (1.0 / batch.unannotated_cxr.shape[0])
    l_cycle_m = pixel_ce(batch.annotated_masks, nets.g_cm(fake_c))
    return {"L_cycle_C": l_cycle_c, "L_cycle_M": l_cycle_m}


def total_loss(parts: dict) -> float:
    """Reporting combination: generator terms minus discriminator terms.

    Training never descends this directly; it alternates the generator and
    discriminator objectives (see train_cyclegan_toy).
    """
    return (parts["L_gen_M"] + parts["L_gen_C"] + parts["L_cycle_M"]
            + parts["L_cycle_C"] - parts["L_disc_M"] - parts["L_disc_C"])


# -- alternating trainer ------------------------------------------------------

CURVE_HEADER = ["step", "L_gen_M", "L_gen_C", "L_cycle_M", "L_cycle_C",
                "L_disc_M", "L_disc_C", "L_total"]


def train_cyclegan_toy(batches, nets: CycleNets, steps: int, lr: float):
    """Alternating least-squares GAN training.

    Per step: generators descend the supervised + cycle losses plus the
    generator-side adversarial terms (discriminators frozen, target 1) on
    one `fakes` forward; then discriminators descend their least-squares
    losses on constant fakes from the updated generators, so that backward
    skips the generators. `batches` yields at least `steps` SegBatches.

    Returns (nets, curves) with one curve row per step.
    """
    opt_g = Adam([t for _, t in nets.generator_parameters()], lr)
    opt_d = Adam([t for _, t in nets.discriminator_parameters()], lr)

    curves = []
    for step in range(steps):
        batch = next(batches)
        try:
            fake_m, fake_c = fakes(batch, nets)
            parts = {**gen_losses(batch, nets, fake_c),
                     **cycle_losses(batch, nets, fake_m, fake_c)}
            loss_g = (parts["L_gen_M"] + parts["L_gen_C"] + parts["L_cycle_M"]
                      + parts["L_cycle_C"]
                      + ((nets.d_m(fake_m) - 1.0) ** 2).mean()
                      + ((nets.d_c(fake_c) - 1.0) ** 2).mean())
            opt_g.zero_grad()
            loss_g.backward()
            opt_g.step()

            fake_m, fake_c = (Tensor(f.data) for f in fakes(batch, nets))
            parts.update(adv_losses(batch, nets, fake_m, fake_c))
            loss_d = parts["L_disc_M"] + parts["L_disc_C"]
            opt_d.zero_grad()
            loss_d.backward()
            opt_d.step()
        except NonFiniteError as exc:
            raise DivergenceError(
                f"non-finite loss at step {step}: {exc}") from exc

        row = {k: float(parts[k].data) for k in CURVE_HEADER[1:-1]}
        curves.append([step + 1, *row.values(), total_loss(row)])
    return nets, curves


def write_curves(path, curves) -> None:
    write_csv(path, CURVE_HEADER, ([row[0]] + [f"{v:.9f}" for v in row[1:]]
                                   for row in curves))


# -- mask post-processing -----------------------------------------------------


def binarize_masks(logits: Tensor) -> AnatomyMasks:
    """Per-pixel argmax over softmax(background, lung, heart) channels.

    Ties break by channel order, i.e. priority background > lung > heart.
    """
    if logits.shape[1] != 3:
        raise ValueError("binarize_masks expects 3 class channels")
    probs = softmax_channels(logits).data
    cls = probs.argmax(axis=1)  # first maximal index == priority order
    lung = (cls == 1).astype(np.float64)[:, None]
    heart = (cls == 2).astype(np.float64)[:, None]
    return AnatomyMasks(lung, heart)


def sample_cutout_windows(masks: AnatomyMasks, window: int, rng_seed: int):
    """One window per sample, centered at a pixel drawn uniformly from the
    union of the anatomy regions (skipped where the union is empty)."""
    if window < 0:
        raise ValueError("window must be >= 0")
    rng = np.random.default_rng(rng_seed)
    n = masks.lung.shape[0]
    windows = []
    for s in range(n):
        union = np.maximum(masks.lung[s, 0], masks.heart[s, 0])
        ij = np.argwhere(union > 0)
        if window == 0 or len(ij) == 0:
            windows.append(None)
            continue
        ci, cj = ij[rng.integers(len(ij))]
        windows.append((int(ci) - window // 2, int(cj) - window // 2))
    return windows


def apply_cutout(masks: AnatomyMasks, windows, window: int) -> AnatomyMasks:
    """Zero both masks inside each sample's window, clipped at the borders.

    Applying the same windows twice is a no-op the second time.
    """
    lung = masks.lung.copy()
    heart = masks.heart.copy()
    _, _, h, w = lung.shape
    for s, win in enumerate(windows):
        if win is None:
            continue
        i0, j0 = win
        i0c, j0c = max(i0, 0), max(j0, 0)
        i1c, j1c = min(i0 + window, h), min(j0 + window, w)
        if i1c > i0c and j1c > j0c:
            lung[s, 0, i0c:i1c, j0c:j1c] = 0.0
            heart[s, 0, i0c:i1c, j0c:j1c] = 0.0
    return AnatomyMasks(lung, heart)
