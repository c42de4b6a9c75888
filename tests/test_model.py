"""Classifier model: wiring, losses, training, inference helpers."""

import hashlib
import json
import re

import numpy as np
import pytest

from anatomy_attn import model as model_module
from anatomy_attn.attention import AnatomyMasks
from anatomy_attn.harness import SyntheticSpec, gen_synthetic
from anatomy_attn.model import (ATTENTION_LEVELS, FUSION_TYPES, POOLING_TYPES,
                                ModelConfig, ToyModel, batch_masks, bce_loss,
                                check_train_args, gradcam, load_checkpoint,
                                predict, save_checkpoint, train)
from anatomy_attn.optim import Adam
from anatomy_attn.tensor import DivergenceError, Tensor


def _masks(rng, n, size):
    lung = np.zeros((n, 1, size, size))
    heart = np.zeros((n, 1, size, size))
    lung[:, :, 1:size // 2, 1:size // 2] = 1.0
    heart[:, :, size // 2 + 1:size - 1, size // 2 + 1:size - 1] = 1.0
    return AnatomyMasks(lung, heart)


@pytest.fixture
def built(monkeypatch):
    """Names of the ops built through `Tensor._from_op`, in order."""
    names = []
    from_op = Tensor.__dict__["_from_op"].__func__

    def recording_from_op(cls, data, parents, backward_fn, op):
        names.append(op)
        return from_op(cls, data, parents, backward_fn, op)

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recording_from_op))
    return names


def _cfg(**kw):
    base = dict(image_size=16, mask_size=4, backbone_widths=(2, 3, 3, 4),
                n_classes=2)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            _cfg(attention_level="L4")
        with pytest.raises(ValueError):
            _cfg(pooling="median")
        with pytest.raises(ValueError):
            _cfg(fusion="soft")

    def test_head_stages_per_level(self):
        assert _cfg(attention_level="L0", fusion="none").head_stages == (3,)
        assert _cfg(attention_level="L1").head_stages == (3,)
        assert _cfg(attention_level="L2").head_stages == (2, 3)
        assert _cfg(attention_level="L3").head_stages == (1, 2, 3)

    def test_l0_ignores_masks(self):
        assert not _cfg(attention_level="L0", fusion="none").uses_masks
        assert _cfg(attention_level="L2").uses_masks

    @pytest.mark.parametrize("kw, message", [
        ({"image_size": True}, "image_size must be an integer, got True"),
        ({"mask_size": "4"}, "mask_size must be an integer, got '4'"),
        ({"n_classes": 2.0}, "n_classes must be an integer, got 2.0"),
        ({"backbone_widths": 5},
         "backbone_widths must be a list or tuple of integers, got 5"),
        ({"backbone_widths": "2334"},
         "backbone_widths must be a list or tuple of integers, got '2334'"),
        ({"backbone_widths": (2, 3, 3, True)},
         "backbone_widths must be a list or tuple of integers"),
        ({"backbone_widths": np.array([2, 3, 3, 4])},
         "backbone_widths must be a list or tuple of integers"),
        ({"r": "0.5"}, "r must be a real number, got '0.5'"),
        ({"r": True}, "r must be a real number, got True"),
        ({"r": None}, "r must be a real number, got None"),
        ({"r": 10 ** 400}, "r must be finite and > 0"),
        ({"backbone_widths": (2, 3, 3)},
         "backbone_widths must list 4 stage widths"),
        ({"backbone_widths": (2, 3, 3, 65536)},
         "backbone_widths: a stage width is 65536, above 65535"),
        ({"attention_level": "L3", "fusion": "none",
          "backbone_widths": (2, 40000, 40000, 4)},
         "backbone_widths: the head widths' sum is 80004, above 65535"),
        ({"n_classes": 65536}, "n_classes: the class count is 65536"),
        ({"r": 4 / 65536},
         "r: the AAA hidden width round(4 / r) is 65536, above 65535"),
        ({"r": 1e-300},
         "r: the AAA hidden width round(3 / r) is 3e+300, above 65535"),
        ({"r": 5e-324},
         "r: the AAA hidden width round(3 / r) is inf, above 65535")],
        ids=["size_bool", "size_str", "classes_float", "widths_int",
             "widths_str", "widths_bool", "widths_array", "r_str", "r_bool",
             "r_none", "r_huge_int", "widths_three", "width_extent",
             "head_sum_extent", "classes_extent", "hidden_extent",
             "hidden_huge", "hidden_inf"])
    def test_unbuildable_or_unsavable_config_rejected(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _cfg(**kw)

    def test_largest_hidden_width_builds_and_saves(self, tmp_path):
        model = ToyModel(_cfg(r=4 / 65535), seed=0)
        assert model.aaa[3].enc.bn1.gamma.shape == (3, 65535)
        save_checkpoint(model, tmp_path)
        assert load_checkpoint(tmp_path).config == model.config

    def test_numpy_scalars_stored_as_json_types(self, tmp_path):
        cfg = _cfg(image_size=np.int64(16), n_classes=np.int32(2),
                   backbone_widths=[np.int64(2), 3, 3, 4],
                   r=np.float32(0.5))
        assert all(type(v) is int for v in (cfg.image_size, cfg.n_classes,
                                            *cfg.backbone_widths))
        assert type(cfg.r) is float
        save_checkpoint(ToyModel(cfg, seed=0), tmp_path)
        assert load_checkpoint(tmp_path).config == cfg


class TestForward:
    @pytest.mark.parametrize("level", ["L0", "L1", "L2", "L3"])
    @pytest.mark.parametrize("pool", ["pwap", "average", "max", "gem"])
    def test_all_configs_produce_probabilities(self, rng, level, pool):
        cfg = _cfg(attention_level=level, pooling=pool,
                   fusion="none" if level == "L0" else "aaa")
        model = ToyModel(cfg, seed=0)
        out = model.forward(Tensor(rng.normal(size=(2, 1, 16, 16))),
                            _masks(rng, 2, 16), True)
        assert out.shape == (2, 2)
        assert ((out.data > 0) & (out.data < 1)).all()

    def test_zero_weights_give_half_probability(self, rng):
        model = ToyModel(_cfg(attention_level="L0", fusion="none"), seed=0)
        model.classifier.weight.data[:] = 0.0
        model.classifier.bias.data[:] = 0.0
        out = model.forward(Tensor(rng.normal(size=(2, 1, 16, 16))), None,
                            True)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-12)

    def test_l0_ignores_fusion(self, rng):
        img = Tensor(rng.normal(size=(2, 1, 16, 16)))
        masks = _masks(rng, 2, 16)
        states, outputs = set(), set()
        for fusion in ("aaa", "hardmask", "none"):
            model = ToyModel(_cfg(attention_level="L0", fusion=fusion), seed=0)
            assert not model.config.uses_masks
            states.add(b"".join(name.encode() + arr.tobytes()
                                for name, arr in model.state_arrays()))
            outputs.add(model.forward(img, masks, True).data.tobytes())
        assert len(states) == 1 and len(outputs) == 1

    def test_l0_is_mask_independent(self, rng):
        model = ToyModel(_cfg(attention_level="L0", fusion="none"), seed=0)
        img = Tensor(rng.normal(size=(2, 1, 16, 16)))
        a = model.forward(img, None, True).data
        b = model.forward(img, _masks(rng, 2, 16), True).data
        np.testing.assert_array_equal(a, b)

    def test_masked_config_requires_masks(self, rng):
        model = ToyModel(_cfg(attention_level="L2"), seed=0)
        with pytest.raises(ValueError):
            model.forward(Tensor(rng.normal(size=(1, 1, 16, 16))), None,
                          True)

    def test_wrong_image_size_rejected(self, rng):
        model = ToyModel(_cfg(), seed=0)
        with pytest.raises(ValueError):
            model.forward(Tensor(rng.normal(size=(1, 1, 8, 8))),
                          _masks(rng, 1, 8), True)

    @pytest.mark.parametrize("fusion", ["aaa", "hardmask"])
    def test_mask_batch_must_match_image_batch(self, rng, fusion):
        model = ToyModel(_cfg(fusion=fusion), seed=0)
        with pytest.raises(ValueError, match=r"\(1, 1, 16, 16\).*"
                                             r"\(4, 1, 16, 16\)"):
            model.forward(Tensor(rng.normal(size=(4, 1, 16, 16))),
                          _masks(rng, 1, 16), True)

    def test_forward_resizes_masks_outside_the_graph(self, rng, built):
        for fusion in ("aaa", "hardmask"):
            model = ToyModel(_cfg(fusion=fusion), seed=0)
            model.forward(Tensor(rng.normal(size=(2, 1, 16, 16))),
                          _masks(rng, 2, 16), True)
        assert "gated_fuse" in built and "resize_bilinear" in built
        assert "resize_nearest" not in built

    def test_l2_training_step_builds_at_most_56_op_nodes(self, rng, built):
        # per AAA block: one node each for pwap, the three encoders, their
        # coupling and the gated tail
        model = ToyModel(ModelConfig(attention_level="L2"), seed=0)
        labels = (rng.random((16, 3)) < 0.5).astype(float)
        bce_loss(model.forward(Tensor(rng.normal(size=(16, 1, 32, 32))),
                               _masks(rng, 16, 32), True), labels)
        assert len(built) <= 56
        for op in ("encode_attention", "couple_attention", "gated_fuse"):
            assert built.count(op) == 2
        assert built.count("pwap") == 4  # intra-block and post-block
        # the classifier is the only fully connected layer left
        assert built.count("fully_connected") == 1
        assert "batch_norm" not in built and "sigmoid" in built

    def test_batch_masks_selects_or_skips(self, rng):
        m = _masks(rng, 5, 16)
        idx = np.array([4, 1])
        got = batch_masks(_cfg(), m.lung, m.heart, idx)
        np.testing.assert_array_equal(got.lung, m.lung[idx])
        np.testing.assert_array_equal(got.heart, m.heart[idx])
        for cfg in (_cfg(fusion="none"), _cfg(attention_level="L0")):
            assert batch_masks(cfg, m.lung, m.heart, idx) is None

    def test_hardmask_zeroes_features_outside_anatomy(self, rng):
        # with all-zero masks every head feature is zeroed, so the output
        # depends only on the classifier bias
        model = ToyModel(_cfg(fusion="hardmask"), seed=0)
        empty = AnatomyMasks(np.zeros((2, 1, 16, 16)),
                             np.zeros((2, 1, 16, 16)))
        a = model.forward(Tensor(rng.normal(size=(2, 1, 16, 16))), empty,
                          True).data
        b = model.forward(Tensor(rng.normal(size=(2, 1, 16, 16))), empty,
                          True).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_hardmask_gate_takes_no_mask_gradient(self, rng):
        # the union mask is data: each head's `mul` node has the [N,C,h,w]
        # feature map as its only parent and returns one gradient
        model = ToyModel(_cfg(fusion="hardmask", attention_level="L3"),
                         seed=0)
        cache = {}
        model.forward(Tensor(rng.normal(size=(2, 1, 16, 16))),
                      _masks(rng, 2, 16), True, cache=cache)
        assert len(cache["head_feats"]) == 3
        for gated in cache["head_feats"].values():
            (feat,) = gated._parents
            assert feat.shape == gated.shape and feat.shape[1] > 1
            assert len(gated._backward_fn(np.ones(gated.shape))) == 1

    def test_seed_determinism(self, rng):
        img = rng.normal(size=(2, 1, 16, 16))
        masks = _masks(rng, 2, 16)
        a = ToyModel(_cfg(), seed=9).forward(Tensor(img), masks, True).data
        b = ToyModel(_cfg(), seed=9).forward(Tensor(img), masks, True).data
        np.testing.assert_array_equal(a, b)


class TestBceLoss:
    def test_half_probability_gives_ln2(self):
        val = float(bce_loss(Tensor(np.full((2, 3), 0.5)),
                             np.ones((2, 3))).data)
        np.testing.assert_allclose(val, np.log(2.0), atol=1e-12)

    def test_hand_computed_example(self):
        # -(1*ln 0.9 + 0*... + ln(1-0.2))/2 = (0.10536 + 0.22314)/2 = 0.16425
        p = Tensor(np.array([[0.9, 0.2]]))
        y = np.array([[1.0, 0.0]])
        expected = -(np.log(0.9) + np.log(0.8)) / 2
        np.testing.assert_allclose(float(bce_loss(p, y).data), expected,
                                   atol=1e-12)

    def test_confident_wrong_prediction_is_clamped_finite(self):
        val = float(bce_loss(Tensor(np.array([[1.0 - 1e-15]])),
                             np.array([[0.0]])).data)
        assert np.isfinite(val)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.full((2, 3), 0.5)), np.ones((2, 2)))


class TestTraining:
    def _data(self, rng, n=24, size=16):
        images = rng.normal(size=(n, 1, size, size)) * 0.1
        labels = (rng.random((n, 2)) < 0.5).astype(float)
        labels[0, 0], labels[1, 0] = 1.0, 0.0  # keep classes non-degenerate
        images[:, 0, 2, 2] += 3.0 * labels[:, 0]
        images[:, 0, 10, 10] += 3.0 * labels[:, 1]
        m = _masks(rng, n, size)
        return {"train_images": images, "train_labels": labels,
                "train_lung": m.lung, "train_heart": m.heart,
                "val_images": images, "val_labels": labels,
                "val_lung": m.lung, "val_heart": m.heart}

    def test_loss_decreases_on_learnable_task(self, rng):
        data = self._data(rng)
        model = ToyModel(_cfg(attention_level="L0", fusion="none"), seed=0)
        model, history = train(model, data, epochs=10, lr=3e-3, batch=8,
                               seed=0)
        assert history[-1][1] < history[0][1]

    def test_training_is_seed_deterministic(self, rng):
        data = self._data(rng)
        runs = []
        for _ in range(2):
            model = ToyModel(_cfg(attention_level="L0", fusion="none"),
                             seed=0)
            model, history = train(model, data, epochs=2, lr=1e-3, batch=8,
                                   seed=0)
            runs.append((history, predict(model, data["val_images"],
                                          None, None)))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_best_epoch_weights_are_restored(self, rng):
        data = self._data(rng)
        model = ToyModel(_cfg(attention_level="L0", fusion="none"), seed=0)
        model, history = train(model, data, epochs=4, lr=3e-3, batch=8,
                               seed=0)
        from anatomy_attn.model import _mean_val_auc
        final_auc = _mean_val_auc(model, data)
        best_logged = max(h[2] for h in history)
        np.testing.assert_allclose(final_auc, best_logged, atol=1e-9)

    @pytest.mark.parametrize("poison", ["weights", "label"])
    def test_divergence_names_epoch_step_and_images(self, rng, poison):
        data = self._data(rng)
        model = ToyModel(_cfg(attention_level="L0", fusion="none"), seed=0)
        perm = np.random.default_rng(3).permutation(24)
        if poison == "weights":
            for _, t in model.parameters():
                t.data[...] = 1e200
            step = 0
        else:  # only the third batch holds the poisoned label
            data["train_labels"] = data["train_labels"].copy()
            data["train_labels"][perm[20]] = np.nan
            step = 2
        idx = perm[8 * step:8 * step + 8].tolist()
        with pytest.raises(DivergenceError) as info:
            train(model, data, epochs=1, lr=1e-3, batch=8, seed=3)
        assert str(info.value).startswith(
            f"non-finite loss in epoch 0, step {step} (images {idx}): "
            f"non-finite ")

    def test_non_finite_gradient_names_the_step_that_made_it(
            self, rng, monkeypatch):
        # the loss is finite, but its backward sends inf into the graph
        def inf_gradient_loss(p_s, labels):
            loss = bce_loss(p_s, labels)
            return Tensor._from_op(loss.data, (loss,), lambda g: (g * np.inf,),
                                   "inf_gradient")

        monkeypatch.setattr(model_module, "bce_loss", inf_gradient_loss)
        data = self._data(rng)
        model = ToyModel(_cfg(attention_level="L0", fusion="none"), seed=0)
        before = model.snapshot()
        idx = np.random.default_rng(3).permutation(24)[:8].tolist()
        with pytest.raises(DivergenceError) as info:
            train(model, data, epochs=1, lr=1e-3, batch=8, seed=3)
        assert str(info.value).startswith(
            f"non-finite loss in epoch 0, step 0 (images {idx}): "
            f"non-finite gradient ")
        for name, arr in model.snapshot().items():
            np.testing.assert_array_equal(arr, before[name])

    @pytest.mark.parametrize("n, batch", [(24, 1), (1, 8)])
    def test_no_runnable_step_rejected_before_training(self, rng, n, batch):
        # train-mode batch norm needs >= 2 samples, so no step could run
        data = self._data(rng)
        data = {k: v[:n] if k.startswith("train_") else v
                for k, v in data.items()}
        model = ToyModel(_cfg(attention_level="L0", fusion="none"), seed=0)
        before = model.snapshot()
        with pytest.raises(ValueError, match="batch"):
            train(model, data, epochs=1, lr=1e-3, batch=batch, seed=0)
        for name, arr in model.snapshot().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_one_image_last_batch_is_skipped(self, rng, monkeypatch):
        # 17 images at batch 16 leave one, too few for train-mode batch
        # norm, so each epoch takes one step
        sizes = []
        forward = ToyModel.forward

        def recording(model, image, masks, train, cache=None):
            if train:
                sizes.append(image.shape[0])
            return forward(model, image, masks, train, cache)

        monkeypatch.setattr(ToyModel, "forward", recording)
        model = ToyModel(_cfg(attention_level="L0", fusion="none"), seed=0)
        train(model, self._data(rng, n=17), epochs=2, lr=1e-3, batch=16,
              seed=0)
        assert sizes == [16, 16]

    @pytest.mark.parametrize("kw, message", [
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"batch": 2.5}, "batch must be an integer, got 2.5"),
        ({"batch": np.float64(8)}, "batch must be an integer, got "
                                   "np.float64(8.0)"),
        ({"batch": 0}, "batch must be >= 1, got 0"),
        ({"batch": 1}, "batch norm needs >= 2 images per batch; got "
                       "batch=1, n_train=24")])
    def test_bad_train_argument_rejected_before_training(self, rng, kw,
                                                         message):
        data = self._data(rng)
        model = ToyModel(_cfg(attention_level="L0", fusion="none"), seed=0)
        before = model.snapshot()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(model, data, **{"epochs": 1, "lr": 1e-3, "batch": 8,
                                  "seed": 0, **kw})
        for name, arr in model.snapshot().items():
            np.testing.assert_array_equal(arr, before[name])

    @pytest.mark.parametrize("n_val, message", [
        (0, "n_val must be >= 1, got 0"),
        (2.0, "n_val must be an integer, got 2.0")])
    def test_bad_n_val_rejected(self, n_val, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_train_args(24, n_val, 1, 8)

    @pytest.mark.parametrize("batch, message", [
        (0, "batch must be >= 1, got 0"), (-1, "batch must be >= 1, got -1"),
        (2.5, "batch must be an integer, got 2.5"),
        (True, "batch must be an integer, got True")])
    def test_bad_predict_batch_rejected(self, rng, batch, message):
        data = self._data(rng)
        model = ToyModel(_cfg(attention_level="L0", fusion="none"), seed=0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            predict(model, data["val_images"], None, None, batch=batch)


@pytest.fixture(scope="module")
def tiny_data():
    return gen_synthetic(SyntheticSpec(image_size=16, n_train=4, n_val=4,
                                       n_test=0))


@pytest.mark.parametrize("fusion", FUSION_TYPES)
@pytest.mark.parametrize("pooling", POOLING_TYPES)
@pytest.mark.parametrize("level", ATTENTION_LEVELS)
def test_every_configuration_trains_every_parameter(level, pooling, fusion,
                                                    tiny_data):
    # Adam.step raises on a parameter without a gradient, so an epoch of
    # two steps completes only if the loss reaches every parameter
    config = ModelConfig(image_size=16, mask_size=4,
                         backbone_widths=(2, 3, 3, 4), attention_level=level,
                         pooling=pooling, fusion=fusion)
    _, history = train(ToyModel(config, seed=0), tiny_data, epochs=1,
                       lr=1e-3, batch=2, seed=0)
    assert len(history) == 1 and np.isfinite(history[0][1])


def _running_stats(model):
    return [arr.copy() for name, arr in model.state_arrays()
            if name.endswith((".running_mean", ".running_var"))]


def _jittered_model(rng):
    # nonzero betas, so that bn_fuse's input has a nonzero batch mean
    model = ToyModel(_cfg(), seed=0)
    for _, t in model.parameters():
        t.data = t.data + 0.1 * rng.normal(size=t.shape)
    return model


class TestRunningStatistics:
    @pytest.mark.parametrize("infer", ["predict", "gradcam"])
    def test_inference_leaves_them_unchanged(self, rng, infer):
        model = _jittered_model(rng)
        m = _masks(rng, 4, 16)
        images = rng.normal(size=(4, 1, 16, 16))
        model.forward(Tensor(images), m, True)  # off their initial values
        before = _running_stats(model)
        # 2 heads x 4 batch-norm states (2 of them [3,C] stacks) x mean, var
        assert len(before) == 16
        if infer == "predict":
            predict(model, images, m.lung, m.heart, batch=3)
        else:
            gradcam(model, Tensor(images), m, class_index=1)
        for a, b in zip(before, _running_stats(model), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_every_state_array_keeps_its_identity(self, rng):
        # Adam writes into the parameters and a train-mode forward into
        # the running statistics, so one state_arrays() list stays live
        model = ToyModel(ModelConfig(), seed=0)
        opt = Adam([t for _, t in model.parameters()], 1e-2)
        before = model.state_arrays()
        snapshot = model.snapshot()
        probs = model.forward(Tensor(rng.normal(size=(4, 1, 32, 32))),
                              _masks(rng, 4, 32), True)
        opt.zero_grad()
        bce_loss(probs, np.eye(4, 3)).backward()
        opt.step()
        after = model.state_arrays()
        assert len(before) == 58
        assert [n for n, _ in after] == [n for n, _ in before]
        for (name, a), (_, b) in zip(before, after):
            assert a is b, name
            assert not np.array_equal(a, snapshot[name]), name

    def test_training_forward_moves_every_one(self, rng):
        model = _jittered_model(rng)
        before = _running_stats(model)
        model.forward(Tensor(rng.normal(size=(4, 1, 16, 16))),
                      _masks(rng, 4, 16), True)
        for a, b in zip(before, _running_stats(model), strict=True):
            assert not np.array_equal(a, b)


class TestGradCam:
    def test_heatmap_contract(self, rng):
        model = ToyModel(_cfg(), seed=0)
        img = Tensor(rng.normal(size=(1, 1, 16, 16)))
        cam = gradcam(model, img, _masks(rng, 1, 16), class_index=0)
        assert cam.shape == (1, 1, 16, 16)
        assert cam.min() >= 0.0 and cam.max() <= 1.0

    def test_normalization_reaches_extremes(self, rng):
        model = ToyModel(_cfg(), seed=0)
        img = Tensor(rng.normal(size=(1, 1, 16, 16)))
        cam = gradcam(model, img, _masks(rng, 1, 16), class_index=1)
        if cam.max() > 0:  # non-constant map spans [0, 1]
            assert cam.min() == 0.0 and cam.max() == 1.0

    def test_explicit_stage_selection(self, rng):
        model = ToyModel(_cfg(attention_level="L2"), seed=0)
        img = Tensor(rng.normal(size=(1, 1, 16, 16)))
        masks = _masks(rng, 1, 16)
        c2 = gradcam(model, img, masks, 0, stage="2")
        c3 = gradcam(model, img, masks, 0, stage="3")
        assert c2.shape == c3.shape
        with pytest.raises(ValueError):
            gradcam(model, img, masks, 0, stage="1")

    def test_invalid_class_rejected(self, rng):
        model = ToyModel(_cfg(), seed=0)
        with pytest.raises(ValueError):
            gradcam(model, Tensor(rng.normal(size=(1, 1, 16, 16))),
                    _masks(rng, 1, 16), class_index=5)


class TestCheckpoint:
    @pytest.mark.parametrize("level, pool, fusion, n, names_sha, weights_sha", [
        ("L2", "pwap", "aaa", 58, "d4fdd68735019664", "5c45cee7c16f1145"),
        ("L3", "gem", "aaa", 79, "71cfceb6448a08ee", "78f2403529ebdc6a"),
        ("L0", "max", "none", 10, "fe38ab4e0ec10bb2", "65a0f2645a93c42c")])
    def test_layout_and_bytes_are_pinned(self, tmp_path, level, pool, fusion,
                                         n, names_sha, weights_sha):
        # pins tensor names, their order and the initial weights
        model = ToyModel(ModelConfig(image_size=16, mask_size=4,
                                     backbone_widths=(2, 3, 3, 4),
                                     attention_level=level, pooling=pool,
                                     fusion=fusion), seed=0)
        names = [name for name, _ in model.state_arrays()]
        save_checkpoint(model, tmp_path)
        sha = lambda b: hashlib.sha256(b).hexdigest()[:16]
        assert len(names) == n
        assert sha("\n".join(names).encode()) == names_sha
        assert sha((tmp_path / "weights.bin").read_bytes()) == weights_sha

    def test_default_l2_stores_42_parameter_tensors(self):
        # 8 backbone, 2 pooling heads x 2, the classifier's 2, and per AAA
        # block 8 stacked encoder tensors, 2 pooling, 2 + 2 batch norm
        assert len(ToyModel(ModelConfig(), seed=0).parameters()) == 42

    def test_round_trip_preserves_predictions(self, rng, tmp_path):
        model = ToyModel(_cfg(attention_level="L2", pooling="gem"), seed=0)
        img = rng.normal(size=(2, 1, 16, 16))
        masks = _masks(rng, 2, 16)
        before = model.forward(Tensor(img), masks, False).data
        save_checkpoint(model, tmp_path / "ckpt")
        restored = load_checkpoint(tmp_path / "ckpt")
        after = restored.forward(Tensor(img), masks, False).data
        np.testing.assert_array_equal(before, after)
        assert restored.config == model.config

    def test_unknown_config_key_named(self, tmp_path):
        save_checkpoint(ToyModel(_cfg(), seed=0), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "config.json"
        cfg = json.loads(path.read_text())
        cfg["bogus"] = 1
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match="bogus"):
            load_checkpoint(tmp_path / "ckpt")
