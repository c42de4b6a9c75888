"""Desk-scale classification model: a small strided conv backbone, optional
anatomy attention on the last stages, configurable pooling heads, and a
concatenating sigmoid classifier. Includes training, inference and
Grad-CAM extraction. Training or inference is the `train` argument of
`ToyModel.forward`, not model state."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from .attention import AaaParams, AnatomyMasks, PwapParams, aaa_forward, pwap
from .metrics import auc, write_csv
from .ops import (BatchNormState, LinearParams, conv3x3, fully_connected,
                  resample, resize, walk)
from .optim import Adam
from .serialize import MAX_EXTENT, load_tensors, save_tensors
from .tensor import (DivergenceError, NonFiniteError, Tensor, check_int,
                     check_real, concat, is_int)

ATTENTION_LEVELS = ("L0", "L1", "L2", "L3")
POOLING_TYPES = ("pwap", "average", "max", "gem")
FUSION_TYPES = ("aaa", "hardmask", "none")

# head stages (0-based into the 4 backbone stages) per attention level;
# L0 is the no-attention baseline reading only the final stage
_HEAD_STAGES = {"L0": (3,), "L1": (3,), "L2": (2, 3), "L3": (1, 2, 3)}


@dataclass
class ModelConfig:
    image_size: int = 32
    mask_size: int = 16
    attention_level: str = "L2"
    pooling: str = "pwap"
    r: float = 0.5
    backbone_widths: tuple = (8, 16, 16, 32)
    n_classes: int = 3
    fusion: str = "aaa"

    def __post_init__(self):
        # numpy scalars are stored as the int and float that config.json
        # can hold
        widths = self.backbone_widths
        if not (isinstance(widths, (list, tuple))
                and all(map(is_int, widths))):
            raise ValueError(f"backbone_widths must be a list or tuple of "
                             f"integers, got {widths!r}")
        self.backbone_widths = tuple(check_int(w, "backbone_widths", 1)
                                     for w in widths)
        for key in ("image_size", "mask_size", "n_classes"):
            setattr(self, key, check_int(getattr(self, key), key, 1))
        self.r = check_real(self.r, "r", 0, strict=True)
        for key, allowed in (("attention_level", ATTENTION_LEVELS),
                             ("pooling", POOLING_TYPES),
                             ("fusion", FUSION_TYPES)):
            value = getattr(self, key)
            if value not in allowed:
                raise ValueError(f"{key} must be one of {', '.join(allowed)}, "
                                 f"got {value!r}")
        if len(self.backbone_widths) != 4:
            raise ValueError("backbone_widths must list 4 stage widths")
        # every parameter extent must fit a checkpoint header's uint16 slot;
        # the AAA hidden width round(C / r) is tested before rounding, as
        # C / r may be inf: round(x) > MAX_EXTENT iff x >= MAX_EXTENT + 0.5
        heads = [self.backbone_widths[si] for si in self.head_stages]
        extents = [("backbone_widths", "a stage width",
                    max(self.backbone_widths)),
                   ("backbone_widths", "the head widths' sum", sum(heads)),
                   ("n_classes", "the class count", self.n_classes)]
        if self.head_fusion == "aaa":
            extents += [("r", f"the AAA hidden width round({c} / r)",
                         c / self.r) for c in heads]
        for key, what, extent in extents:
            if extent >= MAX_EXTENT + 0.5:
                raise ValueError(f"{key}: {what} is {extent:.6g}, above "
                                 f"{MAX_EXTENT}, the largest extent a "
                                 f"checkpoint stores")

    @property
    def head_stages(self) -> tuple:
        return _HEAD_STAGES[self.attention_level]

    @property
    def head_fusion(self) -> str:
        """The fusion the heads apply: `fusion`, but none at L0."""
        return "none" if self.attention_level == "L0" else self.fusion

    @property
    def uses_masks(self) -> bool:
        return self.head_fusion != "none"


class ToyModel:
    """Backbone + per-head fusion/pooling + concatenating classifier."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        widths = (1,) + config.backbone_widths
        self.stages = [LinearParams.init((cout, cin, 3, 3), rng)
                       for cin, cout in zip(widths[:-1], widths[1:])]

        self.aaa = {}
        self.pool_pwap = {}
        self.pool_gem_p = {}
        head_dims = []
        for si in config.head_stages:
            c = config.backbone_widths[si]
            head_dims.append(c)
            if config.head_fusion == "aaa":
                self.aaa[si] = AaaParams.init(c, config.r, rng)
            if config.pooling == "pwap":
                self.pool_pwap[si] = PwapParams.init(c)
            elif config.pooling == "gem":
                self.pool_gem_p[si] = Tensor(np.array([3.0]), requires_grad=True)
        self.classifier = LinearParams.init(
            (config.n_classes, sum(head_dims)), rng)

    # -- parameter plumbing ---------------------------------------------------

    def _blocks(self):
        """(checkpoint prefix, parameter block) pairs in checkpoint order."""
        return ([(f"stage{i}", p) for i, p in enumerate(self.stages)]
                + [(f"aaa{si}", p) for si, p in sorted(self.aaa.items())]
                + [(f"pool{si}", p) for si, p in sorted(self.pool_pwap.items())]
                + [(f"pool{si}.gem_p", p)
                   for si, p in sorted(self.pool_gem_p.items())]
                + [("classifier", self.classifier)])

    def parameters(self):
        """(checkpoint name, Tensor) per learnable tensor, fixed order."""
        return [nt for prefix, block in self._blocks()
                for nt in walk(block, prefix, Tensor)]

    def state_arrays(self):
        """Parameter arrays, then BN running statistics, fixed order."""
        return ([(name, t.data) for name, t in self.parameters()]
                + [na for prefix, block in self._blocks()
                   for na in walk(block, prefix, np.ndarray)])

    def load_state(self, arrays: dict) -> None:
        """Write `arrays` into every array of `state_arrays()` in place;
        `arrays` must hold exactly those names, each with the same shape."""
        expected = dict(self.state_arrays())
        unexpected = sorted(set(arrays) - set(expected))
        if unexpected:
            raise ValueError(f"unexpected tensor(s) in state: {unexpected}")
        for name, ref in expected.items():
            if name not in arrays:
                raise ValueError(f"state is missing tensor {name!r}")
            if np.shape(arrays[name]) != ref.shape:
                raise ValueError(f"tensor {name!r} has shape "
                                 f"{np.shape(arrays[name])}, expected "
                                 f"{ref.shape}")
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"tensor {name!r} holds non-finite values")
        for name in expected:
            if name.endswith(".running_var"):
                BatchNormState.check_running_var(arrays[name],
                                                 f"tensor {name!r}")
        # in place, so that parameters stay views of an optimizer's store
        for name, arr in expected.items():
            arr[...] = arrays[name]

    def snapshot(self) -> dict:
        return {name: arr.copy() for name, arr in self.state_arrays()}

    # -- forward --------------------------------------------------------------

    def _pool(self, feat: Tensor, si: int) -> Tensor:
        kind = self.config.pooling
        if kind == "average":
            return feat.mean(axis=(2, 3))
        if kind == "max":
            return feat.max(axis=(2, 3))
        if kind == "pwap":
            return pwap(feat, self.pool_pwap[si])[0]
        # generalized-mean pooling with learnable exponent, on positively
        # clamped features
        p = self.pool_gem_p[si]
        x = feat.clamp(lo=1e-6)
        powed = (x.log() * p).exp()
        return (powed.mean(axis=(2, 3)).log() / p).exp()

    def forward(self, image: Tensor, masks: AnatomyMasks | None, train: bool,
                cache: dict | None = None) -> Tensor:
        """image[N,1,H,W] -> class probabilities [N,n] in (0,1).

        With `train`, batch norms use and update their batch statistics;
        without, they use their running statistics and change no state.
        `cache`, when given, receives pre-sigmoid scores and the per-head
        post-fusion feature maps (for Grad-CAM).
        """
        cfg = self.config
        if image.shape[2] != cfg.image_size or image.shape[3] != cfg.image_size:
            raise ValueError(f"image spatial {image.shape[2:]} != configured "
                             f"size {cfg.image_size}")
        if cfg.uses_masks:
            if masks is None:
                raise ValueError("this configuration requires anatomy masks")
            if masks.lung.shape[0] != image.shape[0]:
                raise ValueError(f"masks of shape {masks.lung.shape} do not "
                                 f"match the batch of image {image.shape}")
            masks = masks.resized((cfg.mask_size, cfg.mask_size))

        feats = []
        x = image
        for stage in self.stages:
            x = conv3x3(x, stage.weight, stage.bias, stride=2).relu()
            feats.append(x)

        pooled = []
        for si in cfg.head_stages:
            f = resize(feats[si], (cfg.mask_size, cfg.mask_size), "bilinear")
            if cfg.head_fusion == "aaa":
                f = aaa_forward(f, masks, self.aaa[si], train)
            elif cfg.head_fusion == "hardmask":
                f = f * masks.union()
            if cache is not None:
                cache.setdefault("head_feats", {})[si] = f
            pooled.append(self._pool(f, si))
        scores = fully_connected(concat(pooled, axis=1), self.classifier)
        if cache is not None:
            cache["scores"] = scores
        return scores.sigmoid()


def bce_loss(p_s: Tensor, labels) -> Tensor:
    """Multi-label binary cross-entropy, averaged over classes and batch."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != p_s.shape:
        raise ValueError("bce_loss shape mismatch")
    p = p_s.clamp(lo=1e-12, hi=1.0 - 1e-12)
    terms = labels * p.log() + (1.0 - labels) * (1.0 - p).log()
    return -terms.mean()


# -- training -----------------------------------------------------------------

HISTORY_HEADER = ["epoch", "loss", "val_auc"]


def batch_masks(config: ModelConfig, lung: np.ndarray | None,
                heart: np.ndarray | None, idx) -> AnatomyMasks | None:
    """Masks of the images `idx` selects, or None if `config` reads none."""
    if not config.uses_masks:
        return None
    return AnatomyMasks(lung[idx], heart[idx])


def predict(model: ToyModel, images: np.ndarray, lung: np.ndarray | None,
            heart: np.ndarray | None, batch: int = 32) -> np.ndarray:
    """Inference probabilities for a stack of images, `batch` at a time."""
    check_int(batch, "batch", 1)
    outs = [np.empty((0, model.config.n_classes))]  # [0, n_classes] if none
    for lo in range(0, len(images), batch):
        idx = slice(lo, lo + batch)
        masks = batch_masks(model.config, lung, heart, idx)
        outs.append(model.forward(Tensor(images[idx]), masks, False).data)
    return np.concatenate(outs, axis=0)


def _mean_val_auc(model: ToyModel, data: dict) -> float:
    probs = predict(model, data["val_images"], data.get("val_lung"),
                    data.get("val_heart"))
    labels = data["val_labels"]
    scores = [auc(probs[:, k], labels[:, k]) for k in range(labels.shape[1])
              if 0 < labels[:, k].sum() < len(labels)]
    return float(np.mean(scores)) if scores else 50.0


def check_train_args(n_train: int, n_val: int, epochs: int,
                     batch: int) -> None:
    """Raise ValueError naming the argument unless it is an integer and
    every epoch can take a step (train-mode batch norm needs >= 2 images)
    and be validated."""
    if check_int(batch, "batch", 1) < 2 or n_train < 2:
        raise ValueError(f"batch norm needs >= 2 images per batch; got "
                         f"batch={batch}, n_train={n_train}")
    check_int(epochs, "epochs", 1)
    check_int(n_val, "n_val", 1)


def train(model: ToyModel, data: dict, epochs: int, lr: float,
          batch: int, seed: int):
    """Adam training with best-validation-AUC checkpointing.

    `data` holds train_/val_ images, (noisy) lung/heart masks, and binary
    label matrices. Returns (model-with-best-weights, history rows).
    """
    n = len(data["train_images"])
    check_train_args(n, len(data["val_images"]), epochs, batch)
    rng = np.random.default_rng(seed)
    opt = Adam([t for _, t in model.parameters()], lr)
    history = []
    best = (-1.0, model.snapshot())
    for epoch in range(epochs):
        perm = rng.permutation(n)
        losses = []
        for step, lo in enumerate(range(0, n, batch)):
            idx = perm[lo:lo + batch]
            if len(idx) < 2:
                continue  # train-mode BN needs >= 2 samples
            images = Tensor(data["train_images"][idx])
            masks = batch_masks(model.config, data.get("train_lung"),
                                data.get("train_heart"), idx)
            try:
                loss = bce_loss(model.forward(images, masks, True),
                                data["train_labels"][idx])
                opt.zero_grad()
                loss.backward()
                opt.step()
            except NonFiniteError as exc:
                raise DivergenceError(
                    f"non-finite loss in epoch {epoch}, step {step} "
                    f"(images {idx.tolist()}): {exc}") from exc
            losses.append(float(loss.data))
        val_auc = _mean_val_auc(model, data)
        history.append([epoch, float(np.mean(losses)), val_auc])
        if val_auc > best[0]:
            best = (val_auc, model.snapshot())
    model.load_state(best[1])
    return model, history


def write_history(path, history) -> None:
    write_csv(path, HISTORY_HEADER, ([epoch, f"{loss:.9f}", f"{val_auc:.6f}"]
                                     for epoch, loss, val_auc in history))


# -- inference helpers --------------------------------------------------------


def gradcam_stage(cfg: ModelConfig, class_index: int, stage: str) -> int:
    """Backbone stage whose head `gradcam` reads: the last head for
    "last", else the head stage index `stage` names. Rejects a class or a
    stage that `cfg` does not have."""
    if not 0 <= class_index < cfg.n_classes:
        raise ValueError(f"class_index {class_index} out of range for "
                         f"{cfg.n_classes} classes")
    if stage == "last":
        return cfg.head_stages[-1]
    try:
        si = int(stage)
    except ValueError:
        si = None
    if si not in cfg.head_stages:
        raise ValueError(f"stage {stage!r} is neither 'last' nor a head "
                         f"stage {cfg.head_stages}")
    return si


def gradcam(model: ToyModel, image: Tensor, masks: AnatomyMasks | None,
            class_index: int, stage: str = "last") -> np.ndarray:
    """Gradient-weighted class activation map [N,1,H,W] from a head
    feature map.

    Channel weights are the spatial means of the pre-sigmoid class-score
    gradients; the map is ReLU(weighted sum), bilinearly upsampled to the
    image size and min-max normalized to [0,1] (constant maps go to 0).
    """
    si = gradcam_stage(model.config, class_index, stage)
    cache = {}
    model.forward(image, masks, False, cache=cache)
    feat = cache["head_feats"][si]
    feat.requires_grad = True
    onehot = np.zeros(cache["scores"].shape)
    onehot[:, class_index] = 1.0
    (cache["scores"] * onehot).sum().backward()
    weights = feat.grad.mean(axis=(2, 3), keepdims=True)
    cam = np.maximum((weights * feat.data).sum(axis=1, keepdims=True), 0.0)
    cam = resample(cam, image.shape[2:], "bilinear")
    lo, hi = cam.min(), cam.max()
    if hi - lo > 0:
        cam = (cam - lo) / (hi - lo)
    else:
        cam = np.zeros_like(cam)
    return cam


# -- checkpoints --------------------------------------------------------------


def save_checkpoint(model: ToyModel, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = asdict(model.config)
    (out_dir / "config.json").write_text(json.dumps(cfg, indent=1) + "\n")
    save_tensors(out_dir / "weights.bin", model.state_arrays())


def load_checkpoint(out_dir) -> ToyModel:
    out_dir = Path(out_dir)
    cfg = json.loads((out_dir / "config.json").read_text())
    if not isinstance(cfg, dict):
        raise ValueError(f"checkpoint config.json holds a "
                         f"{type(cfg).__name__}, not an object")
    unknown = sorted(set(cfg) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ValueError(f"unknown config keys in checkpoint: {unknown}")
    try:
        config = ModelConfig(**cfg)
    except ValueError as exc:
        raise ValueError(f"checkpoint config.json: {exc}") from exc
    model = ToyModel(config)
    model.load_state(load_tensors(out_dir / "weights.bin"))
    return model
