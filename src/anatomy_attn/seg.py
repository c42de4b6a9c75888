"""Semi-supervised segmentation objective over toy generator/discriminator
conv stacks, plus mask binarization and the cutout corruption operator.

Mask class channels are ordered (background, lung, heart) throughout.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .attention import AnatomyMasks
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
        if m.shape[1] != 3:
            raise ValueError("annotated_masks must have 3 class channels")
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

    def apply(self, x: Tensor) -> Tensor:
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
        return softmax_channels(self.apply(image))


class ImageGenerator(ConvStack):
    """Mask probabilities -> image."""

    def __call__(self, mask: Tensor) -> Tensor:
        return self.apply(mask)


class Discriminator(ConvStack):
    """Input -> per-sample realness score in (0,1) (global mean + sigmoid)."""

    def __call__(self, x: Tensor) -> Tensor:
        return self.apply(x).mean(axis=(1, 2, 3)).sigmoid()


@dataclass
class CycleNets:
    """Two conditional generators and two discriminators."""

    g_cm: MaskGenerator
    g_mc: ImageGenerator
    d_m: Discriminator
    d_c: Discriminator

    @classmethod
    def init(cls, width: int = 8, seed: int = 0):
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


def pixel_ce(theta: Tensor, theta_tilde: Tensor,
             clamp: float = LOG_CLAMP) -> Tensor:
    """Pixel-wise cross-entropy, summed over pixels and classes, divided by
    the batch size for reporting."""
    if theta.shape != theta_tilde.shape:
        raise ValueError("pixel_ce shape mismatch")
    n = theta.shape[0]
    logp = theta_tilde.clamp(lo=clamp).log()
    return -(theta * logp).sum() * (1.0 / n)


def gen_losses(batch: SegBatch, nets: CycleNets) -> dict:
    """Supervised generator losses on the annotated subset."""
    l_gen_m = pixel_ce(batch.annotated_masks, nets.g_cm(batch.annotated_cxr))
    diff = nets.g_mc(batch.annotated_masks) - batch.annotated_cxr
    l_gen_c = (diff * diff).sum() * (1.0 / batch.annotated_cxr.shape[0])
    return {"L_gen_M": l_gen_m, "L_gen_C": l_gen_c}


def adv_losses(batch: SegBatch, nets: CycleNets) -> dict:
    """Least-squares adversarial losses for the two discriminators."""
    real_m = nets.d_m(batch.annotated_masks)
    fake_m = nets.d_m(nets.g_cm(batch.unannotated_cxr))
    l_disc_m = ((real_m - 1.0) ** 2).mean() + (fake_m ** 2).mean()
    real_c = nets.d_c(batch.unannotated_cxr)
    fake_c = nets.d_c(nets.g_mc(batch.annotated_masks))
    l_disc_c = ((real_c - 1.0) ** 2).mean() + (fake_c ** 2).mean()
    return {"L_disc_M": l_disc_m, "L_disc_C": l_disc_c}


def cycle_losses(batch: SegBatch, nets: CycleNets) -> dict:
    """L1 image cycle and cross-entropy mask cycle consistency losses."""
    regen = nets.g_mc(nets.g_cm(batch.unannotated_cxr))
    l_cycle_c = (regen - batch.unannotated_cxr).abs().sum() \
        * (1.0 / batch.unannotated_cxr.shape[0])
    l_cycle_m = pixel_ce(batch.annotated_masks,
                         nets.g_cm(nets.g_mc(batch.annotated_masks)))
    return {"L_cycle_C": l_cycle_c, "L_cycle_M": l_cycle_m}


def total_loss(parts: dict):
    """Reporting combination: generator terms minus discriminator terms.

    Training never descends this directly; it alternates the generator and
    discriminator objectives (see train_cyclegan_toy).
    """

    def val(x):
        return float(x.data) if isinstance(x, Tensor) else float(x)

    return (val(parts["L_gen_M"]) + val(parts["L_gen_C"])
            + val(parts["L_cycle_M"]) + val(parts["L_cycle_C"])
            - val(parts["L_disc_M"]) - val(parts["L_disc_C"]))


# -- alternating trainer ------------------------------------------------------

CURVE_HEADER = ["step", "L_gen_M", "L_gen_C", "L_cycle_M", "L_cycle_C",
                "L_disc_M", "L_disc_C", "L_total"]


def train_cyclegan_toy(batches, nets: CycleNets, steps: int, lr: float):
    """Alternating least-squares GAN training.

    Per step: generators descend the supervised + cycle losses plus the
    generator-side adversarial terms (discriminators frozen, target 1),
    then discriminators descend their least-squares losses (generators
    frozen). `batches` is an iterable/callable stream of SegBatch.

    Returns (nets, curves) with one curve row per step.
    """
    gen_params = [t for _, t in nets.generator_parameters()]
    disc_params = [t for _, t in nets.discriminator_parameters()]
    opt_g = Adam(gen_params, lr)
    opt_d = Adam(disc_params, lr)
    batch_iter = iter(batches)

    curves = []
    for step in range(steps):
        try:
            batch = next(batch_iter)
        except StopIteration:
            batch_iter = iter(batches)
            batch = next(batch_iter)

        try:
            parts = {}
            parts.update(gen_losses(batch, nets))
            parts.update(cycle_losses(batch, nets))
            g_adv_m = ((nets.d_m(nets.g_cm(batch.unannotated_cxr)) - 1.0) ** 2
                       ).mean()
            g_adv_c = ((nets.d_c(nets.g_mc(batch.annotated_masks)) - 1.0) ** 2
                       ).mean()
            loss_g = (parts["L_gen_M"] + parts["L_gen_C"] + parts["L_cycle_M"]
                      + parts["L_cycle_C"] + g_adv_m + g_adv_c)
            opt_g.zero_grad()
            opt_d.zero_grad()
            loss_g.backward()
            opt_g.step()

            adv = adv_losses(batch, nets)
            parts.update(adv)
            loss_d = adv["L_disc_M"] + adv["L_disc_C"]
            opt_g.zero_grad()
            opt_d.zero_grad()
            loss_d.backward()
            opt_d.step()
        except NonFiniteError as exc:
            raise DivergenceError(
                f"non-finite loss at step {step}: {exc}") from exc

        row = [step + 1] + [float(parts[k].data) for k in CURVE_HEADER[1:-1]]
        row.append(total_loss(parts))
        curves.append(row)
    return nets, curves


def write_curves(path, curves) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_HEADER)
        for row in curves:
            writer.writerow([row[0]] + [f"{v:.9f}" for v in row[1:]])


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
    return AnatomyMasks(Tensor(lung), Tensor(heart))


def sample_cutout_windows(masks: AnatomyMasks, window: int, rng_seed: int):
    """One window per sample, centered at a pixel drawn uniformly from the
    union of the anatomy regions (skipped where the union is empty)."""
    if window < 0:
        raise ValueError("window must be >= 0")
    rng = np.random.default_rng(rng_seed)
    n = masks.lung.shape[0]
    windows = []
    for s in range(n):
        union = np.maximum(masks.lung.data[s, 0], masks.heart.data[s, 0])
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
    lung = masks.lung.data.copy()
    heart = masks.heart.data.copy()
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
    return AnatomyMasks(Tensor(lung), Tensor(heart))
