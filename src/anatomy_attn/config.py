"""Flat INI-style run configuration with dotted-key overrides.

Sections map to module knobs; unknown sections or keys are rejected by
name. The effective configuration is echoed into the output directory for
provenance.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict
from pathlib import Path

from .harness import DEFAULT_TRAIN, SyntheticSpec
from .model import ModelConfig, check_train_args


class ConfigError(ValueError):
    pass


# synthetic.image_size is left out: every command generates its data at
# the model's image size
DEFAULTS = {
    "model": asdict(ModelConfig()),
    "synthetic": {k: v for k, v in asdict(SyntheticSpec()).items()
                  if k != "image_size"},
    "train": dict(DEFAULT_TRAIN),
    "seg": {"size": 16, "steps": 500, "lr": 3e-3, "width": 8,
            "n_annotated": 8, "n_unannotated": 8, "data_seed": 0},
    "robustness": {"windows": (0, 2, 4, 6, 8, 10, 12), "trials": 3},
}


def _convert(section: str, key: str, raw: str):
    ref = DEFAULTS[section][key]
    if isinstance(ref, tuple):
        return tuple(parse_int_list(raw))
    if isinstance(ref, int) and not isinstance(ref, bool):
        return int(raw)
    if isinstance(ref, float):
        return float(raw)
    return str(raw)


def load_config(path=None, overrides=()) -> dict:
    """Merge defaults <- INI file <- `section.key=value` overrides."""
    merged = {s: dict(kv) for s, kv in DEFAULTS.items()}

    def apply(section, key, raw, origin):
        if section not in merged:
            raise ConfigError(f"unknown config section '{section}' ({origin})")
        if key not in merged[section]:
            raise ConfigError(f"unknown config key '{section}.{key}' ({origin})")
        try:
            merged[section][key] = _convert(section, key, raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for '{section}.{key}': {raw!r}") from exc

    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                apply(section, key, raw, f"file {path}")

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, "
                              f"got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        apply(section.strip(), key.strip(), raw.strip(), "--set")

    s, t, r = merged["synthetic"], merged["train"], merged["robustness"]
    g = merged["seg"]
    try:
        model_config(merged)
        check_train_args(s["n_train"], s["n_val"], t["epochs"], t["batch"])
        for key, value in (("train.lr", t["lr"]), ("seg.lr", g["lr"])):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and > 0, got {value}")
        if not (math.isfinite(s["noise"]) and s["noise"] >= 0):
            raise ValueError(f"synthetic.noise must be finite and >= 0, "
                             f"got {s['noise']}")
        if s["lesion_radius"] < 0:
            raise ValueError(f"synthetic.lesion_radius must be >= 0, got "
                             f"{s['lesion_radius']}")
        # the sweep reads its degradation rows against the window-0 reference
        if 0 not in r["windows"] or min(r["windows"]) < 0:
            raise ValueError(f"robustness.windows must be >= 0 and include "
                             f"0, got {r['windows']}")
        repeated = repeated_value(r["windows"])
        if repeated is not None:
            raise ValueError(f"robustness.windows repeats window {repeated}, "
                             f"got {r['windows']}")
        seg_counts = ("steps", "size", "width", "n_annotated", "n_unannotated")
        for key, value in [("robustness.trials", r["trials"])] + [
                (f"seg.{k}", g[k]) for k in seg_counts]:
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return merged


def echo_config(cfg: dict, out_dir) -> None:
    parser = configparser.ConfigParser()
    for section in sorted(cfg):
        parser[section] = {
            k: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
            for k, v in sorted(cfg[section].items())}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.ini", "w") as fh:
        parser.write(fh)


def model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**cfg["model"])


def synthetic_spec(cfg: dict) -> SyntheticSpec:
    return SyntheticSpec(**cfg["synthetic"])


def parse_int_list(raw: str):
    return [int(x) for x in str(raw).split(",") if x.strip() != ""]


def repeated_value(values):
    """The first value that also occurs earlier in `values`, else None."""
    return next((v for i, v in enumerate(values) if v in values[:i]), None)
