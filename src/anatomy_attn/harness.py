"""Synthetic lesion/anatomy data and the experiments run on it:
attention-level / pooling / mask-size / image-size ablations and the
cutout robustness sweep."""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .attention import AnatomyMasks
from .metrics import MetricsTable, auc
from .model import ModelConfig, ToyModel, check_train_args, predict, train
from .parallel import parallel_map
from .seg import SegBatch, apply_cutout, sample_cutout_windows
from .tensor import Tensor, check_int, check_real

CLASS_NAMES = ("lung_lesion", "heart_lesion", "outside_lesion")
SEG_NOISE = 0.1  # pixel noise std of the toy segmentation images


# -- synthetic classification data -------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale stand-in dataset: per-sample jittered lung/heart regions
    and identical-looking lesion blobs whose class is defined purely by
    where they sit (inside lung, inside heart, outside anatomy). A bad
    field raises ValueError naming it (`check_int`, `check_real`); the
    spec is frozen, so `dataclasses.replace` is the way to change a field
    and every change is checked."""

    image_size: int = 32
    n_train: int = 480
    n_val: int = 64
    n_test: int = 128
    noise: float = 0.25
    anatomy_contrast: float = 0.02
    lesion_amplitude: float = 1.0
    lesion_radius: int = 2
    mask_jitter: int = 1
    seed: int = 0

    def __post_init__(self):
        for key, low in (("n_train", 0), ("n_val", 0), ("n_test", 0),
                         ("image_size", 1), ("lesion_radius", 0),
                         ("mask_jitter", 0), ("seed", 0)):
            check_int(getattr(self, key), key, low)
        check_real(self.noise, "noise", 0)
        check_real(self.anatomy_contrast, "anatomy_contrast")
        check_real(self.lesion_amplitude, "lesion_amplitude")


def _ellipse_on(ii: np.ndarray, jj: np.ndarray, ci, cj, ri, rj) -> np.ndarray:
    # ii: a column of row indices, jj: a row of column indices
    return (((ii - ci) / ri) ** 2 + ((jj - cj) / rj) ** 2 <= 1.0)


def _ellipse(h: int, w: int, ci, cj, ri, rj) -> np.ndarray:
    # open index grids that the arithmetic broadcasts to [h, w]: per pixel
    # the same operations as full index grids, at a fraction of the cost
    return _ellipse_on(np.arange(h)[:, None], np.arange(w), ci, cj, ri, rj)


# (centre row, centre column, row radius, column radius) of the two lung
# ellipses and the heart, as fractions of the image size
_ANATOMY_LAYOUT = ((0.45, 0.28, 0.30, 0.16), (0.45, 0.72, 0.30, 0.16),
                   (0.62, 0.52, 0.18, 0.14))


def _sample_anatomy(size: int, rng: np.random.Generator):
    """Two lung ellipses plus a heart ellipse carved out of the lung.

    The whole complex is translated by a shared uniform wrap-around shift
    per sample, so a pixel's absolute position says nothing about which
    region it falls in; only the masks reveal that. The shift is applied by
    drawing the ellipses on shifted index grids, which gives the pixels of
    `np.roll` applied to the unshifted masks."""
    s = size / 32.0
    params = [(size * ci + rng.uniform(-2, 2) * s,
               size * cj + rng.uniform(-2, 2) * s,
               size * ri * rng.uniform(0.8, 1.2),
               size * rj * rng.uniform(0.8, 1.2))
              for ci, cj, ri, rj in _ANATOMY_LAYOUT]
    di, dj = rng.integers(0, size, size=2)
    index = np.arange(size)
    ii, jj = ((index - di) % size)[:, None], (index - dj) % size
    left, right, heart = (_ellipse_on(ii, jj, *p) for p in params)
    lung = (left | right) & ~heart
    return lung.astype(np.float64), heart.astype(np.float64)


# nonzero offsets of the 3x3 cross, scipy.ndimage's
# generate_binary_structure(2, 1)
_CROSS = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))


def _morph(mask: np.ndarray, offsets, iterations: int = 1,
           dilate: bool = False) -> np.ndarray:
    """Binary erosion (or dilation) of the boolean `mask`, `iterations`
    times, by the structure whose nonzero offsets from its centre are
    `offsets`; pixels outside the image count as false. For a structure
    symmetric about its centre this is scipy.ndimage's binary_erosion
    (binary_dilation) at the default origin and border value."""
    h, w = mask.shape
    reach = max(map(max, offsets))  # offsets are symmetric about 0
    padded = np.zeros((h + 2 * reach, w + 2 * reach), dtype=bool)
    combine = np.logical_or if dilate else np.logical_and
    out = mask
    for _ in range(iterations):
        padded[reach:reach + h, reach:reach + w] = out
        out = combine.reduce([
            padded[reach + di:reach + di + h, reach + dj:reach + dj + w]
            for di, dj in offsets])
    return out


def _jitter_mask(mask: np.ndarray, amount: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Shift plus boundary erosion/dilation, emulating semi-supervised
    segmentation imperfection."""
    if amount == 0:
        return mask.copy()
    out = np.roll(mask, (rng.integers(-amount, amount + 1),
                         rng.integers(-amount, amount + 1)), axis=(0, 1))
    op = rng.integers(3)
    if op == 1:
        out = _morph(out > 0, _CROSS, amount, dilate=True)
    elif op == 2:
        out = _morph(out > 0, _CROSS, amount)
    return out.astype(np.float64)


@functools.cache
def _disk(radius: int):
    """Read-only footprint of the lesion disk of `radius`, a
    [2 * radius + 1]^2 boolean array, and its nonzero offsets from the
    centre in row-major order."""
    footprint = _ellipse(2 * radius + 1, 2 * radius + 1,
                         radius, radius, radius + 0.5, radius + 0.5)
    footprint.flags.writeable = False
    offsets = tuple((int(i) - radius, int(j) - radius)
                    for i, j in np.argwhere(footprint))
    return footprint, offsets


def _place_lesion(region: np.ndarray, radius: int,
                  rng: np.random.Generator) -> np.ndarray | None:
    """Disk of `radius` fully contained in `region`, or None if it cannot
    fit."""
    h, w = region.shape
    footprint, offsets = _disk(radius)
    centers = np.flatnonzero(_morph(region > 0, offsets))
    if len(centers) == 0:
        return None
    # the erosion keeps only centres whose whole disk lies in the image
    ci, cj = divmod(int(centers[rng.integers(len(centers))]), w)
    lesion = np.zeros((h, w))
    lesion[ci - radius:ci + radius + 1,
           cj - radius:cj + radius + 1] = footprint
    return lesion


def gen_synthetic(spec: SyntheticSpec) -> dict:
    """Deterministic dataset of (image, true masks, noisy masks, labels).

    Labels follow the three archetypes in CLASS_NAMES; each lesion is
    present independently with probability 0.5 and is contained in its
    archetype region by construction.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_train + spec.n_val + spec.n_test
    size = spec.image_size
    images = np.zeros((n, 1, size, size))
    lung_t = np.zeros((n, 1, size, size))
    heart_t = np.zeros((n, 1, size, size))
    lung_n = np.zeros((n, 1, size, size))
    heart_n = np.zeros((n, 1, size, size))
    labels = np.zeros((n, 3))
    lesions = np.zeros((n, 3, size, size))

    for s in range(n):
        lung, heart = _sample_anatomy(size, rng)
        outside = 1.0 - np.maximum(lung, heart)
        img = rng.normal(0.0, spec.noise, size=(size, size))
        img += spec.anatomy_contrast * (lung - heart)
        for k, region in enumerate((lung, heart, outside)):
            if rng.random() < 0.5:
                blob = _place_lesion(region, spec.lesion_radius, rng)
                if blob is None:
                    continue
                labels[s, k] = 1.0
                lesions[s, k] = blob
                img += spec.lesion_amplitude * blob
        images[s, 0] = img
        lung_t[s, 0], heart_t[s, 0] = lung, heart
        ln = _jitter_mask(lung, spec.mask_jitter, rng)
        hn = _jitter_mask(heart, spec.mask_jitter, rng)
        ln *= 1.0 - hn  # binarization keeps the masks disjoint
        lung_n[s, 0], heart_n[s, 0] = ln, hn

    splits = {}
    bounds = {"train": (0, spec.n_train),
              "val": (spec.n_train, spec.n_train + spec.n_val),
              "test": (spec.n_train + spec.n_val, n)}
    for name, (lo, hi) in bounds.items():
        splits.update({
            f"{name}_images": images[lo:hi],
            f"{name}_lung_true": lung_t[lo:hi],
            f"{name}_heart_true": heart_t[lo:hi],
            f"{name}_lung": lung_n[lo:hi],
            f"{name}_heart": heart_n[lo:hi],
            f"{name}_labels": labels[lo:hi],
            f"{name}_lesions": lesions[lo:hi],
        })
    return splits


# -- synthetic segmentation data (for the cycle-consistency trainer) ----------


def gen_seg_batches(size: int, n_annotated: int, n_unannotated: int,
                    seed: int):
    """Endless stream of SegBatch pairs on a toy anatomy distribution where
    images are a deterministic shading of the masks plus SEG_NOISE."""
    rng = np.random.default_rng(seed)

    def make(n):
        cxr = np.zeros((n, 1, size, size))
        masks = np.zeros((n, 3, size, size))
        for s in range(n):
            lung, heart = _sample_anatomy(size, rng)
            bg = 1.0 - np.maximum(lung, heart)
            masks[s] = np.stack([bg, lung, heart])
            cxr[s, 0] = (0.2 * bg + 0.8 * lung + 0.5 * heart
                         + rng.normal(0.0, SEG_NOISE, size=(size, size)))
        return cxr, masks

    while True:
        cxr_l, masks_l = make(n_annotated)
        cxr_u, _ = make(n_unannotated)
        yield SegBatch(Tensor(cxr_l), Tensor(masks_l), Tensor(cxr_u))


# -- sweep machinery ----------------------------------------------------------

ABLATION_AXES = {
    "attention_level": ("L0", "L1", "L2", "L3"),
    "pooling": ("pwap", "gem", "average", "max"),
    "mask_size": (8, 12, 16),
    "image_size": (24, 32, 48),
}

DEFAULT_TRAIN = {"epochs": 12, "lr": 3e-3, "batch": 16}


def _test_aucs(model: ToyModel, data: dict, lung: np.ndarray,
               heart: np.ndarray) -> list:
    """Per-class AUC on the test split, predicted with masks lung/heart."""
    probs = predict(model, data["test_images"], lung, heart)
    return [auc(probs[:, k], data["test_labels"][:, k])
            for k in range(len(CLASS_NAMES))]


def train_settings(train_kwargs: dict | None) -> dict:
    """DEFAULT_TRAIN overridden by `train_kwargs`; raises ValueError naming
    an unknown key or an `lr` that is not finite and > 0 (`Adam` takes lr
    0, but a training run must move its parameters)."""
    unknown = sorted(set(train_kwargs or {}) - set(DEFAULT_TRAIN))
    if unknown:
        raise ValueError(f"unknown train_kwargs key(s) {unknown}; expected "
                         f"{sorted(DEFAULT_TRAIN)}")
    settings = {**DEFAULT_TRAIN, **(train_kwargs or {})}
    check_real(settings["lr"], "lr", 0, strict=True)
    return settings


def train_condition(config: ModelConfig, data: dict, seed: int,
                    train_kwargs: dict | None = None) -> ToyModel:
    """Train one model on `data`, a `gen_synthetic` dataset at the config's
    image size, and return it."""
    kwargs = train_settings(train_kwargs)
    model, _ = train(ToyModel(config, seed=seed), data, kwargs["epochs"],
                     kwargs["lr"], kwargs["batch"], seed)
    return model


def _shared_dataset(spec: SyntheticSpec, image_size: int) -> dict:
    """The arrays of the spec's dataset at `image_size` that training and
    test evaluation read (images, noisy masks, labels), made read-only.

    The data depends on the spec, not on a model seed, so every condition
    trains on this one copy, which sweep workers inherit from the fork.
    The true masks and lesion maps are dropped to keep the inherited pages
    few. A cell that wrote into the arrays would change the data of every
    later cell, so a write raises ValueError."""
    data = gen_synthetic(dc_replace(spec, image_size=image_size))
    shared = {f"{split}_{kind}": data[f"{split}_{kind}"]
              for split in ("train", "val", "test")
              for kind in ("images", "lung", "heart", "labels")}
    for array in shared.values():
        array.flags.writeable = False
    return shared


def ablation_sweep(axis: str, base_config: ModelConfig, spec: SyntheticSpec,
                   seeds, train_kwargs: dict | None = None) -> MetricsTable:
    """Train one model per axis value per seed; report per-class and mean
    test AUC, median over seeds. One dataset per image size is generated
    here, before the cells run; bad arguments raise first."""
    if axis not in ABLATION_AXES:
        raise ValueError(f"unknown ablation axis {axis!r}")
    seeds = check_seeds(seeds)
    train_kwargs = train_settings(train_kwargs)
    check_train_args(spec.n_train, spec.n_val, train_kwargs["epochs"],
                     train_kwargs["batch"])
    check_int(spec.n_test, "n_test", 1)
    values = ABLATION_AXES[axis]
    configs = {v: dc_replace(base_config, **{axis: v}) for v in values}
    datasets = {}
    for cfg in configs.values():
        if cfg.image_size not in datasets:
            datasets[cfg.image_size] = _shared_dataset(spec, cfg.image_size)

    def run_cell(cell):
        value, seed = cell
        data = datasets[configs[value].image_size]
        model = train_condition(configs[value], data, seed, train_kwargs)
        return value, seed, _test_aucs(model, data, data["test_lung"],
                                       data["test_heart"])

    results = parallel_map(run_cell, [(v, s) for v in values for s in seeds])

    table = MetricsTable()
    for value in values:
        per_seed = np.array([r[2] for r in results if r[0] == value])
        med = np.median(per_seed, axis=0)
        condition = f"{axis}={value}"
        for k, name in enumerate(CLASS_NAMES):
            table.add(condition, name, med[k])
        table.add_mean(condition)
    return table


def evaluate_with_cutout(model: ToyModel, data: dict, window: int,
                         trials: int, base_seed: int) -> float:
    """Mean test AUC over `trials` (>= 1) independent cutout corruptions of
    the noisy masks. Window locations depend only on the test masks and
    the seed `base_seed + 1000 * window + trial`, so every model evaluated
    on the same data and `base_seed` sees identical corruption."""
    check_int(trials, "trials", 1)
    masks = AnatomyMasks(data["test_lung"], data["test_heart"])
    vals = []
    # window 0 is the uncorrupted reference: no randomness, one evaluation
    for t in range(trials if window else 1):
        boxes = sample_cutout_windows(masks, window,
                                      base_seed + 1000 * window + t)
        cut = apply_cutout(masks, boxes, window)
        vals.append(np.mean(_test_aucs(model, data, cut.lung, cut.heart)))
    return float(np.mean(vals))


def robustness_sweep(models: dict, data: dict, windows, trials: int,
                     base_seed: int) -> MetricsTable:
    """Frozen-model AUC vs cutout window size, averaged over trials.

    The same window locations are applied across all models; the window=0
    rows are the uncorrupted reference. Bad `windows` or `trials` raise
    first.
    """
    check_robustness(windows, trials)
    table = MetricsTable()
    for name, model in models.items():
        for window in windows:
            val = evaluate_with_cutout(model, data, window, trials, base_seed)
            table.add(f"{name}_window={window}", "mean", val)
    for name in models:
        w0 = table.value(f"{name}_window=0")
        wmax = table.value(f"{name}_window={max(windows)}")
        table.add(f"{name}_degradation", "mean",
                  min(100.0, max(0.0, w0 - wmax)))
    return table


def repeated_value(values):
    """The first value that also occurs earlier in `values`, else None."""
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


def check_robustness(windows, trials) -> None:
    """Raise ValueError unless the cutout `windows` are integers >= 0,
    repeat none and include 0, the reference that degradation is read
    against, and `trials` is an integer >= 1."""
    if 0 not in windows or min(windows) < 0:
        raise ValueError(f"windows must be >= 0 and include 0, got {windows}")
    repeated = repeated_value(windows)
    if repeated is not None:
        raise ValueError(f"windows repeats window {repeated}, got {windows}")
    for window in windows:
        check_int(window, "window", 0)
    check_int(trials, "trials", 1)


def check_seeds(seeds) -> list:
    """`seeds` as a list; raise ValueError unless it holds at least one
    integer >= 0, as numpy's generators need, and none twice, which would
    count one trained model twice in a median."""
    seeds = [check_int(seed, "seed", 0) for seed in seeds]
    if not seeds:
        raise ValueError("seeds must hold at least one seed")
    repeated = repeated_value(seeds)
    if repeated is not None:
        raise ValueError(f"seed {repeated} is repeated in {seeds}")
    return seeds


def robustness_experiment(spec: SyntheticSpec, seeds, windows,
                          base_config: ModelConfig, trials: int,
                          train_kwargs: dict | None = None) -> MetricsTable:
    """Train attention and hard-mask models per seed, all on one dataset,
    sweep cutout windows, and report the median AUC over seeds per
    (model, window). Bad `windows`, `trials`, `seeds`, `train_kwargs` or
    split sizes raise first."""
    check_robustness(windows, trials)
    seeds = check_seeds(seeds)
    train_kwargs = train_settings(train_kwargs)
    check_train_args(spec.n_train, spec.n_val, train_kwargs["epochs"],
                     train_kwargs["batch"])
    check_int(spec.n_test, "n_test", 1)
    data = _shared_dataset(spec, base_config.image_size)
    per_seed_tables = []
    for seed in seeds:
        models = {fusion: train_condition(
            dc_replace(base_config, fusion=fusion), data, seed, train_kwargs)
            for fusion in ("aaa", "hardmask")}
        per_seed_tables.append(robustness_sweep(
            models, data, windows, trials=trials, base_seed=seed))

    table = MetricsTable()
    for condition, class_name, _ in per_seed_tables[0].rows:
        med = float(np.median([t.value(condition, class_name)
                               for t in per_seed_tables]))
        table.add(condition, class_name, med)
    return table
