"""Command-line interface: exit codes, config handling, artifacts."""

import json
import multiprocessing
import re
from dataclasses import asdict

import numpy as np
import pytest

from anatomy_attn import cli, harness, suite
from anatomy_attn.cli import main
from anatomy_attn.config import (CHECKERS, ConfigError, DEFAULTS, echo_config,
                                 load_config)
from anatomy_attn.harness import SyntheticSpec
from anatomy_attn.model import ModelConfig, ToyModel, save_checkpoint
from anatomy_attn.serialize import load_tensors, save_tensors
from anatomy_attn.tensor import Tensor


# small overrides so CLI tests stay fast
FAST = ["--set", "model.image_size=16", "--set", "model.mask_size=4",
        "--set", "model.backbone_widths=2,3,3,4",
        "--set", "synthetic.n_train=24",
        "--set", "synthetic.n_val=12", "--set", "synthetic.n_test=32",
        "--set", "train.epochs=1", "--set", "train.batch=8"]


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config()
        assert cfg["model"]["attention_level"] == "L2"
        assert cfg["train"]["epochs"] == 12

    def test_ini_file_merges(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[train]\nepochs = 3\n")
        cfg = load_config(str(p))
        assert cfg["train"]["epochs"] == 3
        assert cfg["train"]["batch"] == DEFAULTS["train"]["batch"]

    def test_override_beats_file(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[train]\nepochs = 3\n")
        cfg = load_config(str(p), ["train.epochs=5"])
        assert cfg["train"]["epochs"] == 5

    def test_unknown_section_named_in_error(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[optimizer]\nlr = 1\n")
        with pytest.raises(ConfigError, match="optimizer"):
            load_config(str(p))

    @pytest.mark.parametrize("content", [
        "[DEFAULT]\nepochs = 3\n",
        "[DEFAULT]\nepochs = 3\n[train]\nlr = 0.01\n",
        "[train]\nlr = 0.01\n[DEFAULT]\nepochs = 3\n"],
        ids=["alone", "before train", "after train"])
    def test_default_section_is_an_unknown_section(self, tmp_path, content):
        # configparser would otherwise drop a lone [DEFAULT] silently and
        # copy its keys into every listed section
        p = tmp_path / "cfg.ini"
        p.write_text(content)
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown config section 'DEFAULT' (file {p})")):
            load_config(str(p))

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="warmup"):
            load_config(None, ["train.warmup=5"])

    def test_unreadable_config_file_named(self, tmp_path):
        path = tmp_path / "missing.ini"
        with pytest.raises(ConfigError, match=re.escape(
                f"cannot read config file {path}")):
            load_config(str(path))

    def test_removed_seg_data_seed_is_an_unknown_key(self):
        # seg-toy seeds its data with --seed alone
        with pytest.raises(ConfigError, match=re.escape(
                "unknown config key 'seg.data_seed' (--set)")):
            load_config(None, ["seg.data_seed=0"])

    def test_type_conversion_follows_defaults(self):
        cfg = load_config(None, ["train.lr=0.01", "train.epochs=2"])
        assert cfg["train"]["lr"] == 0.01
        assert isinstance(cfg["train"]["epochs"], int)

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["no-equals-sign"])

    def test_synthetic_defaults_are_the_spec_defaults(self):
        spec = asdict(SyntheticSpec())
        del spec["image_size"]  # data always takes the model's image size
        assert DEFAULTS["synthetic"] == spec

    def test_model_defaults_are_the_model_config_defaults(self):
        model = asdict(ModelConfig())
        del model["n_classes"]  # the labels always have three classes
        assert DEFAULTS["model"] == model

    def test_synthetic_image_size_is_not_a_key(self):
        with pytest.raises(ConfigError, match="synthetic.image_size"):
            load_config(None, ["synthetic.image_size=48"])

    @pytest.mark.parametrize("section, key, value", [
        ("synthetic", "n_train", -1), ("synthetic", "n_val", -1),
        ("synthetic", "n_test", -1), ("synthetic", "lesion_radius", -1),
        ("synthetic", "mask_jitter", -2), ("synthetic", "seed", -1),
        ("synthetic", "noise", -1.0), ("synthetic", "noise", float("nan")),
        ("synthetic", "noise", float("inf")),
        ("synthetic", "anatomy_contrast", float("nan")),
        ("synthetic", "lesion_amplitude", float("-inf")),
        ("model", "attention_level", "L9"), ("model", "pooling", "median"),
        ("model", "fusion", "soft"), ("model", "image_size", 0),
        ("model", "mask_size", 0),
        ("model", "backbone_widths", (0, 1, 1, 1)),
        ("model", "r", float("nan")), ("model", "r", float("inf")),
        ("robustness", "windows", (2, 4)), ("robustness", "windows", (0, -2)),
        ("robustness", "windows", (0, 4, 4)), ("robustness", "trials", 0),
        ("train", "lr", 0.0), ("train", "lr", -0.1),
        ("train", "lr", float("nan")), ("seg", "lr", 0.0),
        ("seg", "lr", float("inf")), ("seg", "steps", 0), ("seg", "size", 0),
        ("seg", "width", 0), ("seg", "n_annotated", 0),
        ("seg", "n_unannotated", 0)])
    def test_bad_value_message_is_the_owners_with_its_section(self, section,
                                                              key, value):
        with pytest.raises(ValueError) as own:
            CHECKERS[section]({**DEFAULTS[section], key: value})
        raw = ",".join(map(str, value)) if isinstance(value, tuple) else value
        with pytest.raises(ConfigError) as config:
            load_config(None, [f"{section}.{key}={raw}"])
        assert str(config.value) == f"bad config value: {section}.{own.value}"

    def test_every_section_has_a_checker_that_takes_its_defaults(self):
        # a section without a checker would be loaded unchecked
        assert list(CHECKERS) == list(DEFAULTS)
        for section, check in CHECKERS.items():
            check(DEFAULTS[section])

    def test_echoed_config_loads_back_unchanged(self, tmp_path):
        cfg = load_config(None, ["model.backbone_widths=2,3,3,4",
                                 "model.r=0.25", "train.epochs=3"])
        echo_config(cfg, tmp_path)
        assert load_config(str(tmp_path / "config.ini")) == cfg
        assert cfg["model"]["backbone_widths"] == (2, 3, 3, 4)


def _set_config(**changes):
    """Checkpoint edit that merges `changes` into config.json."""
    def edit(ckpt):
        path = ckpt / "config.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    **changes}))
    return edit


def _map_weights(fn):
    """Checkpoint edit that rewrites the weights as fn(name -> array)."""
    def edit(ckpt):
        path = ckpt / "weights.bin"
        save_tensors(path, fn(load_tensors(path)).items())
    return edit


def _poison(name, value):
    """Checkpoint edit that sets the first entry of tensor `name` to
    `value`."""
    def poison(arrays):
        arrays[name].flat[0] = value
        return arrays
    return _map_weights(poison)


def _write(name, text):
    """Checkpoint edit that replaces file `name` with `text`."""
    def edit(ckpt):
        (ckpt / name).write_text(text)
    return edit


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, capsys):
        assert main(["--set", "train.warmup=1", "seg-toy"]) == 2
        assert "warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("model.attention_level=L9", "attention_level"),
        ("model.backbone_widths=8,x", "backbone_widths"),
        ("model.image_size=0", "image_size"),
        ("model.mask_size=0", "mask_size"),
        ("model.n_classes=0", "n_classes"),
        ("model.backbone_widths=0,1,1,1", "backbone_widths"),
        ("model.r=nan", "r must be finite and > 0, got nan"),
        ("model.r=inf", "r must be finite and > 0, got inf"),
        ("seg.lr=nan", "seg.lr must be finite and > 0, got nan"),
        ("seg.lr=0", "seg.lr must be finite and > 0, got 0.0"),
        ("seg.size=0", "seg.size must be >= 1"),
        ("seg.width=0", "seg.width must be >= 1"),
        ("seg.n_annotated=0", "seg.n_annotated must be >= 1"),
        ("seg.n_unannotated=0", "seg.n_unannotated must be >= 1")])
    def test_invalid_config_value_exits_2(self, capsys, override, key):
        assert main(["--set", override, "train"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("synthetic.n_val=0", "n_val"),
        ("train.epochs=0", "epochs"),
        ("synthetic.n_train=-1", "n_train"),
        ("train.lr=nan", "train.lr must be finite and > 0, got nan"),
        ("train.lr=0", "train.lr must be finite and > 0, got 0.0"),
        ("train.lr=-0.1", "train.lr must be finite and > 0, got -0.1"),
        ("synthetic.noise=nan", "synthetic.noise must be finite and >= 0"),
        ("synthetic.noise=-1", "synthetic.noise must be finite and >= 0"),
        ("synthetic.lesion_radius=-1", "lesion_radius must be >= 0"),
        ("synthetic.lesion_amplitude=nan",
         "synthetic.lesion_amplitude must be finite, got nan"),
        ("synthetic.anatomy_contrast=inf",
         "synthetic.anatomy_contrast must be finite, got inf"),
        ("synthetic.seed=-1", "synthetic.seed must be >= 0, got -1"),
        ("synthetic.n_test=-2", "synthetic.n_test must be >= 0, got -2"),
        ("synthetic.mask_jitter=-1",
         "synthetic.mask_jitter must be >= 0, got -1")])
    def test_untrainable_run_exits_2_before_any_work(self, tmp_path, capsys,
                                                     override, key):
        out = tmp_path / "run"
        assert main(["--out", str(out), "--set", override, "train"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["ablate", "--axis", "pooling", "--seeds", "0"],
        ["robustness", "--seeds", "0"]], ids=["ablate", "robustness"])
    def test_single_label_test_class_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, command):
        # the labels come with the data, so the check runs once the sweep
        # has drawn it, after config.ini is written
        monkeypatch.setattr(harness, "train",
                            lambda *args: pytest.fail("trained"))
        out = tmp_path / "run"
        assert main(["--out", str(out), "--set", "synthetic.n_test=1",
                     *command]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"{command[0]}: test split class 'lung_lesion' needs a positive "
            f"and a negative image for its AUC, got 1 positive of 1"]
        assert [p.name for p in out.iterdir()] == ["config.ini"]

    @pytest.mark.parametrize("command", [
        ["ablate", "--axis", "pooling", "--seeds", "0"],
        ["robustness", "--seeds", "0"]], ids=["ablate", "robustness"])
    def test_value_error_in_training_still_propagates(
            self, tmp_path, monkeypatch, command):
        def train(*args):
            raise ValueError("raised inside training")

        monkeypatch.delenv("ANATOMY_ATTN_THREADS", raising=False)
        monkeypatch.setattr(harness, "train", train)
        with pytest.raises(ValueError, match="^raised inside training$"):
            main(["--out", str(tmp_path / "run"), *FAST, *command])

    def test_class_count_is_not_a_key(self, tmp_path, capsys):
        # the labels always have len(CLASS_NAMES) classes
        out = tmp_path / "run"
        assert main(["--out", str(out), "--set", "model.n_classes=2",
                     "train"]) == 2
        assert ("unknown config key 'model.n_classes'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        (["model.attention_level=L0", "model.pooling=average",
          "model.mask_size=1", "model.image_size=2",
          "model.backbone_widths=1,1,1,65536"],
         "model.backbone_widths: a stage width is 65536, above 65535"),
        (["model.r=1e-300"],
         "model.r: the AAA hidden width round(3 / r) is 3e+300, above 65535")],
        ids=["width", "hidden_width"])
    def test_model_a_checkpoint_cannot_hold_exits_2_before_training(
            self, tmp_path, capsys, overrides, message):
        out = tmp_path / "run"
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert main(["--out", str(out)] + FAST + sets + ["train"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "robustness.windows=", "robustness.windows=0,-4",
        "robustness.windows=4,8", "robustness.trials=0"],
        ids=["empty", "negative", "no 0", "no trial"])
    def test_bad_robustness_sweep_exits_2_before_training(self, tmp_path,
                                                          capsys, override):
        out = tmp_path / "rob"
        key = override.split("=")[0]
        assert main(["--out", str(out), "--set", override,
                     "robustness"]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_no_seg_steps_exits_2(self, tmp_path, capsys):
        out = tmp_path / "seg"
        assert main(["--out", str(out), "--set", "seg.steps=0",
                     "seg-toy"]) == 2
        assert "seg.steps" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("command", [["ablate", "--axis", "pooling"],
                                         ["robustness"]])
    @pytest.mark.parametrize("seeds", ["", ",", "0,x", "-1", "0,-2"])
    def test_bad_seed_list_exits_2(self, tmp_path, capsys, command, seeds):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "run")] + command
                 + ["--seeds", seeds])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*"))

    @pytest.mark.parametrize("command", [["ablate", "--axis", "pooling"],
                                         ["robustness"]])
    def test_repeated_seed_exits_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "run")] + command
                 + ["--seeds", "3,0,3"])
        assert exc.value.code == 2
        assert "seed 3 is repeated" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*"))

    @pytest.mark.parametrize("command", [["train"], ["seg-toy"]])
    def test_negative_seed_exits_2_before_output(self, tmp_path, capsys,
                                                  command):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "run"), "--seed", "-1"] + command)
        assert exc.value.code == 2
        assert "--seed: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*"))

    def test_repeated_window_exits_2(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "rob"), "--set",
                     "robustness.windows=0,4,4", "robustness"]) == 2
        err = capsys.readouterr().err
        assert "robustness.windows repeats window 4" in err
        assert not list(tmp_path.rglob("*"))

    @pytest.mark.parametrize("argument, message", [
        (["--class-index", "5"], "class_index 5"),
        (["--stage", "bogus"], "stage 'bogus'"),
        (["--stage", "1"], "stage '1'"),
        (["--num-images", "0"], "--num-images must be >= 1, got 0"),
        (["--num-images", "-2"], "--num-images must be >= 1, got -2")])
    def test_bad_gradcam_argument_exits_2_before_output(
            self, tmp_path, capsys, argument, message):
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ToyModel(ModelConfig(
            image_size=16, mask_size=4, backbone_widths=(2, 3, 3, 4))), ckpt)
        out = tmp_path / "cam"
        assert main(["--out", str(out), "gradcam", "--checkpoint", str(ckpt)]
                    + argument) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (_set_config(backbone_widths=[2, 3, 3, 5]),
         "'stage3.weight' has shape (4, 3, 3, 3), expected (5, 3, 3, 3)"),
        (_map_weights(lambda a: {k: v for k, v in a.items()
                                 if k != "classifier.bias"}),
         "missing tensor 'classifier.bias'"),
        (_map_weights(lambda a: {**a, "extra.weight": np.zeros(2)}),
         "unexpected tensor(s) in state: ['extra.weight']"),
        (_set_config(backbone_widths=5),
         "checkpoint config.json: backbone_widths must be a list or tuple "
         "of integers, got 5"),
        (_set_config(image_size="a"),
         "checkpoint config.json: image_size must be an integer, got 'a'"),
        (_write("config.json", "[]"),
         "config.json holds a list, not an object"),
        (_set_config(r=float("inf")), "r must be finite and > 0, got inf"),
        (_set_config(r=float("nan")), "r must be finite and > 0, got nan"),
        (_write("weights.bin.manifest.json", '{"tensors": 5}'),
         'is not {"tensors": [name, ...]}'),
        (_write("weights.bin.manifest.json", "[1]"),
         'is not {"tensors": [name, ...]}'),
        (_write("weights.bin.manifest.json", '{"tensors": [1]}'),
         'is not {"tensors": [name, ...]}'),
        (_poison("classifier.weight", np.nan),
         "tensor 'classifier.weight' holds non-finite values"),
        (_poison("aaa2.enc.bn1.running_var", np.inf),
         "tensor 'aaa2.enc.bn1.running_var' holds non-finite values"),
        (_poison("aaa2.enc.bn1.running_var", -1.0),
         "tensor 'aaa2.enc.bn1.running_var' must be >= 0")],
        ids=["wrong_shape", "missing", "unexpected", "widths_int",
             "size_str", "config_list", "r_inf", "r_nan", "manifest_int",
             "manifest_list", "manifest_int_name", "weight_nan",
             "running_var_inf", "running_var_negative"])
    def test_corrupt_checkpoint_exits_2_naming_the_fault(
            self, tmp_path, capsys, edit, message):
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ToyModel(ModelConfig(
            image_size=16, mask_size=4, backbone_widths=(2, 3, 3, 4))), ckpt)
        edit(ckpt)
        out = tmp_path / "cam"
        assert main(["--out", str(out), "gradcam", "--checkpoint",
                     str(ckpt)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["ablate", "--axis", "pooling", "--seeds", "0"],
        ["robustness", "--seeds", "0"],
        ["gradcam", "--num-images", "1"]],
        ids=["ablate", "robustness", "gradcam"])
    def test_no_test_images_exits_2_before_output(self, tmp_path, capsys,
                                                  monkeypatch, command):
        monkeypatch.setenv("ANATOMY_ATTN_THREADS", "2")
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ToyModel(ModelConfig(
            image_size=16, mask_size=4, backbone_widths=(2, 3, 3, 4))), ckpt)
        if command[0] == "gradcam":
            command = command + ["--checkpoint", str(ckpt)]
        out = tmp_path / "run"
        assert main(["--out", str(out)] + FAST
                    + ["--set", "synthetic.n_test=0"] + command) == 2
        assert (f"synthetic.n_test must be >= 1 for {command[0]}, got 0"
                in capsys.readouterr().err)
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_missing_checkpoint_exits_2_before_output(self, tmp_path, capsys):
        out = tmp_path / "cam"
        assert main(["--out", str(out), "gradcam", "--checkpoint",
                     str(tmp_path / "nowhere")]) == 2
        assert "nowhere" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [
        b"epochs = 3\n", b"[train]\nepochs = 3\nepochs = 4\n",
        b"[train]\nepochs = 3\n[train]\nlr = 0.1\n",
        b"[train]\nepochs = 3\xff\n"],
        ids=["no section", "repeated key", "repeated section", "not utf-8"])
    def test_malformed_config_file_exits_2_naming_it(self, tmp_path, capsys,
                                                     content):
        path = tmp_path / "cfg.ini"
        path.write_bytes(content)
        assert main(["--out", str(tmp_path / "seg"), "--config", str(path),
                     "seg-toy"]) == 2
        assert str(path) in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [path]

    @pytest.mark.parametrize("content", [
        "[DEFAULT]\nepochs = 3\n",
        "[DEFAULT]\nepochs = 3\n[train]\nlr = 0.01\n"],
        ids=["alone", "with train"])
    def test_default_section_exits_2_naming_it(self, tmp_path, capsys,
                                               content):
        path = tmp_path / "cfg.ini"
        path.write_text(content)
        assert main(["--out", str(tmp_path / "run"), "--config", str(path),
                     "train"]) == 2
        assert ("unknown config section 'DEFAULT'"
                in capsys.readouterr().err)
        assert list(tmp_path.rglob("*")) == [path]

    @pytest.mark.parametrize("command, trainer", [
        ("train", "train"), ("seg-toy", "train_cyclegan_toy")])
    @pytest.mark.parametrize("under", [False, True],
                             ids=["a file", "under a file"])
    def test_out_that_is_a_file_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, command, trainer, under):
        monkeypatch.setattr(cli, trainer, lambda *args: pytest.fail("trained"))
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "run" if under else afile
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(out), command])
        assert exc.value.code == 2
        assert f"argument --out: cannot make directory {out}" in (
            capsys.readouterr().err)
        assert list(tmp_path.rglob("*")) == [afile]

    def test_gradcam_checks_its_checkpoint_before_out(self, tmp_path,
                                                      capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["--out", str(afile), "gradcam", "--checkpoint",
                     str(tmp_path / "nowhere")]) == 2
        assert "nowhere" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_gradcheck_fault_injection_exits_1(self, capsys,
                                               sign_flipped_suite):
        code = main(["gradcheck", "--skip-models"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL  injected_sign_flip" in out

    def test_gradcheck_non_finite_gradient_exits_1(self, capsys,
                                                   monkeypatch):
        def inf_square(x):
            return Tensor._from_op(x.data ** 2, (x,), lambda g: (g * np.inf,),
                                   "inf_square")

        monkeypatch.setitem(
            suite.TARGETS, "injected_inf_gradient", lambda rng: (
                lambda t: inf_square(t).sum(),
                [Tensor(np.linspace(0.5, 1.5, 6))], None))
        code = main(["gradcheck", "--skip-models"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        (line,) = [x for x in lines[:-1]
                   if "injected_inf_gradient" in x.split()]
        assert line.startswith("FAIL  injected_inf_gradient")
        assert "max_rel_err=inf" in line and "margin=0 " in line
        assert lines[-1].startswith("gradcheck: 1 target(s) failed: "
                                    "injected_inf_gradient; worst "
                                    "injected_inf_gradient margin=0,")

    def test_gradcheck_target_that_probed_nothing_exits_1(
            self, capsys, monkeypatch, sign_flipped_suite):
        # the sign-flipped target, capped to probe no coordinate
        build = suite.TARGETS["injected_sign_flip"]
        monkeypatch.setitem(suite.TARGETS, "injected_sign_flip",
                            lambda rng: build(rng)[:2] + (0,))
        code = main(["gradcheck", "--skip-models"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        (line,) = [x for x in lines if "injected_sign_flip" in x.split()]
        assert line.startswith("FAIL  injected_sign_flip")
        assert "probed=0 skipped_kinks=0" in line
        assert "1 target(s) failed: injected_sign_flip;" in lines[-1]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "x"])
    def test_gradcheck_tolerance_not_finite_and_positive_exits_2(
            self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--tol", tol, "--skip-models"])
        assert exc.value.code == 2
        assert "argument --tol" in capsys.readouterr().err

    def test_gradcheck_impossible_tolerance_exits_1(self, capsys):
        code = main(["gradcheck", "--tol", "1e-12", "--skip-models"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gradcheck_reports_margins_and_kinks(self, capsys):
        assert main(["gradcheck", "--skip-models"]) == 0
        *lines, summary = capsys.readouterr().out.splitlines()
        margins, kinks = {}, 0
        for line in lines:
            status, name, *fields = line.split()
            values = dict(f.split("=") for f in fields if "=" in f)
            margins[name] = float(values["margin"])
            assert margins[name] == pytest.approx(
                1e-4 / float(values["max_rel_err"]), rel=1e-2)
            kinks += int(values["skipped_kinks"])
            assert int(values["probed"]) > 0
        worst = min(margins, key=margins.get)
        assert len(margins) == 19 and margins[worst] > 1
        assert f"worst {worst} margin=" in summary
        assert f"{kinks} kinks skipped" in summary


class TestArtifacts:
    def test_train_writes_history_checkpoint_and_config_echo(self, tmp_path,
                                                             capsys):
        out = tmp_path / "run"
        code = main(["--out", str(out)] + FAST + ["train"])
        assert code == 0
        assert (out / "history.csv").exists()
        assert (out / "checkpoint" / "config.json").exists()
        assert (out / "checkpoint" / "weights.bin").exists()
        assert (out / "config.ini").exists()
        assert (out / "sample_image_0.pgm").read_bytes().startswith(b"P5")
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,loss,val_auc"

    def test_train_needs_no_test_images(self, tmp_path):
        out = tmp_path / "run"
        assert main(["--out", str(out)] + FAST
                    + ["--set", "synthetic.n_test=0", "train"]) == 0
        assert (out / "history.csv").exists()
        assert not list(out.glob("*.pgm"))

    def test_seg_toy_writes_curves(self, tmp_path):
        out = tmp_path / "seg"
        code = main(["--out", str(out), "--set", "seg.steps=3",
                     "--set", "seg.size=8", "--set", "seg.width=4",
                     "--set", "seg.n_annotated=2",
                     "--set", "seg.n_unannotated=2", "seg-toy"])
        assert code == 0
        lines = (out / "seg_curves.csv").read_text().splitlines()
        assert lines[0].startswith("step,L_gen_M")
        assert len(lines) == 4

    def test_ablate_writes_table_and_reruns_identically(self, tmp_path):
        args = FAST + ["--set", "train.epochs=1", "ablate",
                       "--axis", "mask_size", "--seeds", "0"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(out1)] + args) == 0
        assert main(["--out", str(out2)] + args) == 0
        csv1 = (out1 / "ablation_mask_size.csv").read_bytes()
        csv2 = (out2 / "ablation_mask_size.csv").read_bytes()
        assert csv1 == csv2
        assert csv1.startswith(b"condition,class_name,auc_percent")

    def test_robustness_writes_table_and_reruns_identically(self, tmp_path):
        args = FAST + ["--set", "robustness.windows=0,4", "robustness",
                       "--seeds", "0"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(out1)] + args) == 0
        assert main(["--out", str(out2)] + args) == 0
        assert "windows = 0,4\n" in (out1 / "config.ini").read_text()
        csv1 = (out1 / "robustness.csv").read_bytes()
        assert csv1 == (out2 / "robustness.csv").read_bytes()
        conditions = [line.split(",")[0]
                      for line in csv1.decode().splitlines()[1:]]
        assert conditions == ["aaa_window=0", "aaa_window=4",
                              "hardmask_window=0", "hardmask_window=4",
                              "aaa_degradation", "hardmask_degradation"]

    def test_gradcam_writes_heatmaps(self, tmp_path):
        run = tmp_path / "run"
        assert main(["--out", str(run)] + FAST + ["train"]) == 0
        out = tmp_path / "cam"
        code = main(["--out", str(out)] + FAST
                    + ["gradcam", "--checkpoint", str(run / "checkpoint"),
                       "--class-index", "1", "--num-images", "1"])
        assert code == 0
        assert (out / "gradcam_class1_img0.pgm").read_bytes().startswith(b"P5")
