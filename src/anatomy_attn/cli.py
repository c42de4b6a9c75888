"""Command-line entry point exposing the library as reproducible commands.

Exit codes: 0 success, 1 assertion/suite failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, echo_config, load_config, parse_int_list
from .harness import (ABLATION_AXES, SingleLabelError, SyntheticSpec,
                      ablation_sweep, check_seeds, gen_seg_batches,
                      gen_synthetic, robustness_experiment)
from .model import (ModelConfig, ToyModel, batch_masks, gradcam,
                    gradcam_stage, load_checkpoint, save_checkpoint,
                    write_history, train)
from .seg import CycleNets, train_cyclegan_toy, write_curves
from .serialize import write_pgm
from .suite import run_gradcheck_suite
from .tensor import Tensor, check_int, check_real

# commands that evaluate on the synthetic test split, so need test images
TEST_SPLIT_COMMANDS = ("ablate", "robustness", "gradcam")


def _usage(check, *args, **kwargs):
    """`check(...)`, whose ValueError argparse reports as a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _seed(raw: str) -> int:
    """argparse type of --seed: an int >= 0, as numpy's generators need."""
    return _usage(check_int, int(raw), "seed", 0)


def _tolerance(raw: str) -> float:
    """argparse type of --tol: a finite float > 0. Against NaN or inf no
    probe would ever reach the kink test."""
    return _usage(check_real, float(raw), "tolerance", 0, strict=True)


def _seed_list(raw: str) -> list:
    """argparse type of --seeds: a comma-separated `check_seeds` list."""
    return _usage(check_seeds, parse_int_list(raw))


def _out_dir(args, cfg) -> Path:
    """The --out directory, made if missing, with `cfg` written to its
    config.ini. A path that names a file, or lies under one, is a usage
    error: exit 2, as argparse does."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"anatomy-attn: error: argument --out: cannot make directory "
              f"{out}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(2) from exc
    echo_config(cfg, out)
    return out


def cmd_gradcheck(args, cfg) -> int:
    reports = run_gradcheck_suite(tol=args.tol,
                                  include_models=not args.skip_models)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:28s} max_rel_err={r.max_rel_err:.3e} "
              f"(tol {r.tol:g}) margin={r.margin:.3g} "
              f"probed={r.probed} skipped_kinks={r.skipped_kinks}")
    worst = min(reports, key=lambda r: r.margin)
    summary = (f"worst {worst.name} margin={worst.margin:.3g}, "
               f"{sum(r.skipped_kinks for r in reports)} kinks skipped")
    if failed:
        print(f"gradcheck: {len(failed)} target(s) failed: "
              + ", ".join(r.name for r in failed) + f"; {summary}")
        return 1
    print(f"gradcheck: all {len(reports)} targets passed; {summary}")
    return 0


def cmd_train(args, cfg) -> int:
    out = _out_dir(args, cfg)
    mcfg = ModelConfig(**cfg["model"])
    data = gen_synthetic(SyntheticSpec(**cfg["synthetic"],
                                       image_size=mcfg.image_size))
    model = ToyModel(mcfg, seed=args.seed)
    model, history = train(model, data, cfg["train"]["epochs"],
                           cfg["train"]["lr"], cfg["train"]["batch"],
                           args.seed)
    write_history(out / "history.csv", history)
    save_checkpoint(model, out / "checkpoint")
    for i in range(min(2, len(data["test_images"]))):
        img = data["test_images"][i, 0]
        lo, hi = img.min(), img.max()
        write_pgm(out / f"sample_image_{i}.pgm",
                  (img - lo) / (hi - lo) if hi > lo else img * 0)
        write_pgm(out / f"sample_lung_{i}.pgm", data["test_lung"][i, 0])
        write_pgm(out / f"sample_heart_{i}.pgm", data["test_heart"][i, 0])
    print(f"train: best val AUC "
          f"{max(h[2] for h in history):.3f}, artifacts in {out}")
    return 0


def cmd_ablate(args, cfg) -> int:
    out = _out_dir(args, cfg)
    table = ablation_sweep(args.axis, ModelConfig(**cfg["model"]),
                           SyntheticSpec(**cfg["synthetic"]), args.seeds,
                           train_kwargs=cfg["train"])
    path = out / f"ablation_{args.axis}.csv"
    table.write_csv(path)
    print(f"ablate: wrote {path}")
    return 0


def cmd_robustness(args, cfg) -> int:
    out = _out_dir(args, cfg)
    table = robustness_experiment(SyntheticSpec(**cfg["synthetic"]),
                                  args.seeds, cfg["robustness"]["windows"],
                                  ModelConfig(**cfg["model"]),
                                  trials=cfg["robustness"]["trials"],
                                  train_kwargs=cfg["train"])
    path = out / "robustness.csv"
    table.write_csv(path)
    print(f"robustness: wrote {path}")
    return 0


def cmd_seg_toy(args, cfg) -> int:
    out = _out_dir(args, cfg)
    s = cfg["seg"]
    batches = gen_seg_batches(size=s["size"], n_annotated=s["n_annotated"],
                              n_unannotated=s["n_unannotated"], seed=args.seed)
    nets = CycleNets.init(width=s["width"], seed=args.seed)
    _, curves = train_cyclegan_toy(batches, nets, s["steps"], s["lr"])
    path = out / "seg_curves.csv"
    write_curves(path, curves)
    print(f"seg-toy: wrote {path}; final L_gen_M={curves[-1][1]:.4f}")
    return 0


def cmd_gradcam(args, cfg) -> int:
    try:
        check_int(args.num_images, "--num-images", 1)
        model = load_checkpoint(args.checkpoint)
        gradcam_stage(model.config, args.class_index, args.stage)
    except (OSError, ValueError) as exc:
        print(f"gradcam: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(args, cfg)
    data = gen_synthetic(SyntheticSpec(**cfg["synthetic"],
                                       image_size=model.config.image_size))
    n = min(args.num_images, len(data["test_images"]))
    for i in range(n):
        image = Tensor(data["test_images"][i:i + 1])
        masks = batch_masks(model.config, data["test_lung"],
                            data["test_heart"], slice(i, i + 1))
        heat = gradcam(model, image, masks, args.class_index,
                       stage=args.stage)
        write_pgm(out / f"gradcam_class{args.class_index}_img{i}.pgm",
                  heat[0, 0])
    print(f"gradcam: wrote {n} heatmap(s) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anatomy-attn",
        description="Anatomy-gated attention models with probabilistic "
                    "pooling: gradient verification, toy training, "
                    "ablations, and mask-corruption robustness sweeps.")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="SECTION.KEY=VALUE",
                        help="config override (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p.add_argument("--tol", type=_tolerance, default=1e-4)
    p.add_argument("--skip-models", action="store_true",
                   help="check only ops and losses, not end-to-end models")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train one model on synthetic data")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="run one ablation axis")
    p.add_argument("--axis", required=True, choices=tuple(ABLATION_AXES))
    p.add_argument("--seeds", type=_seed_list, default="0,1,2")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("robustness", help="cutout robustness sweep")
    p.add_argument("--seeds", type=_seed_list, default="0,1,2")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("seg-toy", help="alternating cycle-consistency "
                                       "training on toy data")
    p.set_defaults(func=cmd_seg_toy)

    p = sub.add_parser("gradcam", help="write class activation heatmaps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--class-index", type=int, default=0)
    p.add_argument("--stage", default="last")
    p.add_argument("--num-images", type=int, default=4)
    p.set_defaults(func=cmd_gradcam)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        n_test = cfg["synthetic"]["n_test"]
        if args.command in TEST_SPLIT_COMMANDS and n_test < 1:
            raise ConfigError(f"bad config value: synthetic.n_test must be "
                              f">= 1 for {args.command}, got {n_test}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except SingleLabelError as exc:  # raised by the sweeps before training
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
