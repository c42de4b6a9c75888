"""Command-line interface: exit codes, config handling, artifacts."""

from dataclasses import asdict

import numpy as np
import pytest

from anatomy_attn.cli import main
from anatomy_attn.config import ConfigError, DEFAULTS, echo_config, load_config
from anatomy_attn.harness import SyntheticSpec
from anatomy_attn.model import ModelConfig


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

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="warmup"):
            load_config(None, ["train.warmup=5"])

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
        assert DEFAULTS["model"] == asdict(ModelConfig())

    def test_synthetic_image_size_is_not_a_key(self):
        with pytest.raises(ConfigError, match="synthetic.image_size"):
            load_config(None, ["synthetic.image_size=48"])

    def test_echoed_config_loads_back_unchanged(self, tmp_path):
        cfg = load_config(None, ["model.backbone_widths=2,3,3,4",
                                 "model.r=0.25", "train.epochs=3"])
        echo_config(cfg, tmp_path)
        assert load_config(str(tmp_path / "config.ini")) == cfg
        assert cfg["model"]["backbone_widths"] == (2, 3, 3, 4)


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, capsys):
        assert main(["--set", "train.warmup=1", "seg-toy"]) == 2
        assert "warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("model.attention_level=L9", "attention_level"),
        ("model.backbone_widths=8,x", "backbone_widths"),
        ("model.image_size=0", "image_size"),
        ("model.mask_size=0", "mask_size"),
        ("model.n_classes=0", "n_classes")])
    def test_invalid_config_value_exits_2(self, capsys, override, key):
        assert main(["--set", override, "train"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("synthetic.n_val=0", "n_val"),
        ("train.epochs=0", "epochs"),
        ("synthetic.n_train=-1", "n_train")])
    def test_untrainable_run_exits_2_before_any_work(self, tmp_path, capsys,
                                                     override, key):
        out = tmp_path / "run"
        assert main(["--out", str(out), "--set", override, "train"]) == 2
        assert key in capsys.readouterr().err
        assert not (out / "history.csv").exists()

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_gradcheck_fault_injection_exits_1(self, capsys):
        code = main(["gradcheck", "--inject-fault", "--skip-models"])
        out = capsys.readouterr().out
        assert code == 1
        assert "injected_sign_flip" in out
        assert "FAIL" in out

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

    def test_gradcam_writes_heatmaps(self, tmp_path):
        run = tmp_path / "run"
        assert main(["--out", str(run)] + FAST + ["train"]) == 0
        out = tmp_path / "cam"
        code = main(["--out", str(out)] + FAST
                    + ["gradcam", "--checkpoint", str(run / "checkpoint"),
                       "--class-index", "1", "--num-images", "1"])
        assert code == 0
        assert (out / "gradcam_class1_img0.pgm").read_bytes().startswith(b"P5")
