"""Flat INI-style run configuration with dotted-key overrides.

Sections map to module knobs, each checked by its `CHECKERS` entry;
unknown sections or keys are rejected by name. The effective
configuration is echoed into the output directory for provenance.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict
from pathlib import Path

from .harness import SyntheticSpec, check_robustness, train_settings
from .model import ModelConfig, check_train_args
from .tensor import check_int, check_real


class ConfigError(ValueError):
    pass


# synthetic.image_size is left out: every command generates its data at
# the model's image size. model.n_classes is too: the labels always have
# len(harness.CLASS_NAMES) classes
DEFAULTS = {
    "model": {k: v for k, v in asdict(ModelConfig()).items()
              if k != "n_classes"},
    "synthetic": {k: v for k, v in asdict(SyntheticSpec()).items()
                  if k != "image_size"},
    "train": train_settings({}),
    "seg": {"size": 16, "steps": 500, "lr": 3e-3, "width": 8,
            "n_annotated": 8, "n_unannotated": 8},
    "robustness": {"windows": (0, 2, 4, 6, 8, 10, 12), "trials": 3},
}


def check_seg(seg: dict) -> None:
    """Raise ValueError naming the first `seg` setting out of range."""
    check_real(seg["lr"], "lr", 0, strict=True)
    for key in ("steps", "size", "width", "n_annotated", "n_unannotated"):
        check_int(seg[key], key, 1)


# one checker per section; its ValueError names the field first, and
# load_config prefixes the section
CHECKERS = {
    "model": lambda model: ModelConfig(**model),
    "synthetic": lambda synthetic: SyntheticSpec(**synthetic),
    "train": train_settings,
    "seg": check_seg,
    "robustness": lambda r: check_robustness(r["windows"], r["trials"]),
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
        # no header can name the section "", so [DEFAULT] is an ordinary
        # one, rejected as unknown instead of feeding every other section
        parser = configparser.ConfigParser(default_section="")
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"cannot read config file {path}")
            items = [(section, key, raw) for section in parser.sections()
                     for key, raw in parser.items(section)]
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        for section, key, raw in items:
            apply(section, key, raw, f"file {path}")

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, "
                              f"got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        apply(section.strip(), key.strip(), raw.strip(), "--set")

    for section, check in CHECKERS.items():
        try:
            check(merged[section])
        except ValueError as exc:
            raise ConfigError(f"bad config value: {section}.{exc}") from exc
    s, t = merged["synthetic"], merged["train"]
    try:
        check_train_args(s["n_train"], s["n_val"], t["epochs"], t["batch"])
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


def parse_int_list(raw: str):
    return [int(x) for x in str(raw).split(",") if x.strip() != ""]
