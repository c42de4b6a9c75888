"""Semi-supervised segmentation losses, mask binarization, cutout."""

import numpy as np
import pytest

from anatomy_attn.attention import AnatomyMasks
from anatomy_attn.seg import (CURVE_HEADER, CycleNets, SegBatch, adv_losses,
                              apply_cutout, binarize_masks,
                              cycle_losses, fakes, gen_losses, pixel_ce,
                              sample_cutout_windows, total_loss,
                              train_cyclegan_toy, write_curves)
from anatomy_attn import model, seg
from anatomy_attn.harness import gen_seg_batches
from anatomy_attn.ops import softmax_channels
from anatomy_attn.optim import Adam
from anatomy_attn.tensor import Tensor


def _onehot(rng, n, h, w):
    cls = rng.integers(0, 3, size=(n, h, w))
    return np.eye(3)[cls].transpose(0, 3, 1, 2).astype(float)


def _batch(rng, n=2, size=6):
    return SegBatch(Tensor(rng.normal(size=(n, 1, size, size))),
                    Tensor(_onehot(rng, n, size, size)),
                    Tensor(rng.normal(size=(n, 1, size, size))))


class TestSegBatch:
    @pytest.mark.parametrize("field, cxr, masks, unannotated", [
        ("annotated_cxr", (1, 1, 6, 6), (2, 3, 6, 6), (2, 1, 6, 6)),
        ("annotated_cxr", (2, 1, 5, 5), (2, 3, 6, 6), (2, 1, 6, 6)),
        ("annotated_cxr", (2, 3, 6, 6), (2, 3, 6, 6), (2, 1, 6, 6)),
        ("unannotated_cxr", (2, 1, 6, 6), (2, 3, 6, 6), (2, 1, 5, 5)),
        ("unannotated_cxr", (2, 1, 6, 6), (2, 3, 6, 6), (2, 2, 6, 6)),
        ("unannotated_cxr", (2, 1, 6, 6), (2, 3, 6, 6), (2, 6, 6)),
        ("unannotated_cxr", (2, 1, 6, 6), (2, 3, 6, 6), (0, 1, 6, 6)),
        ("annotated_masks", (2, 1, 6, 6), (2, 4, 6, 6), (2, 1, 6, 6)),
        ("annotated_masks", (0, 1, 6, 6), (0, 3, 6, 6), (2, 1, 6, 6)),
    ], ids=["annotated count", "annotated size", "annotated channels",
            "unannotated size", "unannotated channels", "unannotated rank",
            "no unannotated", "mask channels", "no annotated"])
    def test_malformed_shape_names_the_field(self, field, cxr, masks,
                                             unannotated):
        onehot = np.zeros(masks)
        onehot[:, 0] = 1.0
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SegBatch(Tensor(np.zeros(cxr)), Tensor(onehot),
                     Tensor(np.zeros(unannotated)))

    def test_unannotated_count_may_differ(self, rng):
        batch = SegBatch(Tensor(rng.normal(size=(2, 1, 6, 6))),
                         Tensor(_onehot(rng, 2, 6, 6)),
                         Tensor(rng.normal(size=(3, 1, 6, 6))))
        assert batch.unannotated_cxr.shape == (3, 1, 6, 6)


class TestPixelCe:
    def test_uniform_prediction_value(self, rng):
        # uniform 1/3 prediction: every pixel contributes ln 3
        theta = Tensor(_onehot(rng, 2, 4, 4))
        uniform = Tensor(np.full((2, 3, 4, 4), 1 / 3))
        val = float(pixel_ce(theta, uniform).data)
        np.testing.assert_allclose(val, 16 * np.log(3.0), atol=1e-9)

    def test_perfect_prediction_is_near_zero(self, rng):
        theta = Tensor(_onehot(rng, 1, 3, 3))
        val = float(pixel_ce(theta, theta).data)
        assert 0 <= val < 1e-9

    def test_clamp_prevents_log_zero(self, rng):
        theta = Tensor(_onehot(rng, 1, 2, 2))
        wrong = Tensor(1.0 - theta.data)  # exactly 0 at the true class
        val = float(pixel_ce(theta, wrong).data)
        assert np.isfinite(val)
        np.testing.assert_allclose(val, 4 * -np.log(1e-12), rtol=1e-6)

    def test_batch_normalization_of_sum(self, rng):
        theta1 = Tensor(_onehot(rng, 1, 4, 4))
        pred1 = Tensor(np.full((1, 3, 4, 4), 1 / 3))
        theta2 = Tensor(np.concatenate([theta1.data, theta1.data]))
        pred2 = Tensor(np.full((2, 3, 4, 4), 1 / 3))
        # duplicating the sample leaves the per-sample value unchanged
        np.testing.assert_allclose(float(pixel_ce(theta1, pred1).data),
                                   float(pixel_ce(theta2, pred2).data),
                                   atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            pixel_ce(Tensor(_onehot(rng, 1, 2, 2)),
                     Tensor(np.zeros((1, 3, 3, 3))))


class TestAdversarialLosses:
    def test_losses_are_nonnegative(self, rng):
        nets = CycleNets.init(width=4, seed=0)
        batch = _batch(rng)
        parts = adv_losses(batch, nets, *fakes(batch, nets))
        for v in parts.values():
            assert float(v.data) >= 0.0

    def test_half_output_yields_half_loss(self, rng):
        # a discriminator stuck at 0.5 scores (0.5-1)^2 + 0.5^2 = 0.5
        class HalfDisc:
            def __call__(self, x):
                return Tensor(np.full((x.shape[0], 1), 0.5))

        nets = CycleNets.init(width=4, seed=0)
        nets.d_m = HalfDisc()
        nets.d_c = HalfDisc()
        batch = _batch(rng)
        parts = adv_losses(batch, nets, *fakes(batch, nets))
        np.testing.assert_allclose(float(parts["L_disc_M"].data), 0.5,
                                   atol=1e-12)
        np.testing.assert_allclose(float(parts["L_disc_C"].data), 0.5,
                                   atol=1e-12)

    def test_perfect_discriminator_loss_is_zero(self, rng):
        class Oracle:
            def __init__(self, reals):
                self.reals = [r.data for r in reals]

            def __call__(self, x):
                is_real = any(x.data.shape == r.shape
                              and np.array_equal(x.data, r)
                              for r in self.reals)
                return Tensor(np.full((x.shape[0], 1),
                                      1.0 if is_real else 0.0))

        nets = CycleNets.init(width=4, seed=0)
        batch = _batch(rng)
        nets.d_m = Oracle([batch.annotated_masks])
        nets.d_c = Oracle([batch.unannotated_cxr])
        parts = adv_losses(batch, nets, *fakes(batch, nets))
        assert float(parts["L_disc_M"].data) == 0.0
        assert float(parts["L_disc_C"].data) == 0.0


class TestGenAndCycleLosses:
    def test_all_parts_finite_and_nonnegative(self, rng):
        nets = CycleNets.init(width=4, seed=1)
        batch = _batch(rng)
        fake_m, fake_c = fakes(batch, nets)
        parts = {**gen_losses(batch, nets, fake_c),
                 **cycle_losses(batch, nets, fake_m, fake_c),
                 **adv_losses(batch, nets, fake_m, fake_c)}
        for k, v in parts.items():
            assert float(v.data) >= 0.0, k

    def test_total_loss_combination(self):
        parts = {"L_gen_M": 1.0, "L_gen_C": 2.0, "L_cycle_M": 3.0,
                 "L_cycle_C": 4.0, "L_disc_M": 0.5, "L_disc_C": 0.25}
        np.testing.assert_allclose(total_loss(parts), 1 + 2 + 3 + 4 - 0.75)

    def test_image_reconstruction_loss_zero_on_match(self, rng):
        # craft a batch whose annotated cxr equals g_mc(masks)
        nets = CycleNets.init(width=4, seed=0)
        masks = Tensor(_onehot(rng, 2, 4, 4))
        cxr = nets.g_mc(masks)
        batch = SegBatch(Tensor(cxr.data), masks,
                         Tensor(rng.normal(size=(2, 1, 4, 4))))
        parts = gen_losses(batch, nets, fakes(batch, nets)[1])
        np.testing.assert_allclose(float(parts["L_gen_C"].data), 0.0,
                                   atol=1e-18)


class TestTrainingLoop:
    def test_zero_lr_freezes_losses(self):
        nets = CycleNets.init(width=4, seed=0)
        batches = gen_seg_batches(size=8, n_annotated=2, n_unannotated=2,
                                  seed=0)
        _, curves = train_cyclegan_toy(batches, nets, steps=3, lr=0.0)

        nets2 = CycleNets.init(width=4, seed=0)
        batches2 = gen_seg_batches(size=8, n_annotated=2, n_unannotated=2,
                                   seed=0)
        _, curves2 = train_cyclegan_toy(batches2, nets2, steps=3, lr=0.0)
        assert curves == curves2

    def test_zero_lr_holds_every_parameter_still(self):
        nets = CycleNets.init(width=4, seed=0)
        params = nets.generator_parameters() + nets.discriminator_parameters()
        before = [p.data.tobytes() for p in params]
        batches = gen_seg_batches(size=8, n_annotated=2, n_unannotated=2,
                                  seed=0)
        trained, _ = train_cyclegan_toy(batches, nets, steps=3, lr=0.0)
        after = (trained.generator_parameters()
                 + trained.discriminator_parameters())
        assert [p.data.tobytes() for p in after] == before

    def test_divergence_is_the_model_error(self):
        # one DivergenceError class: a model-side handler catches seg's too
        nets = CycleNets.init(width=4, seed=0)
        nets.g_mc.layers[0].weight.data[:] = 1e200
        batches = gen_seg_batches(size=8, n_annotated=2, n_unannotated=2,
                                  seed=0)
        with pytest.raises(model.DivergenceError):
            train_cyclegan_toy(batches, nets, steps=1, lr=1e-3)

    def test_steps_are_one_indexed(self):
        nets = CycleNets.init(width=4, seed=0)
        batches = gen_seg_batches(size=8, n_annotated=2, n_unannotated=2,
                                  seed=0)
        _, curves = train_cyclegan_toy(batches, nets, steps=2, lr=1e-3)
        assert [row[0] for row in curves] == [1, 2]
        assert len(curves[0]) == len(CURVE_HEADER)

    def test_one_step_builds_39_conv_forwards_and_33_backwards(
            self, monkeypatch):
        # the generator step reads one forward of each fake; the
        # discriminator step's fakes are constants, so their 6 convs
        # run no backward
        calls = {"forward": 0, "backward": 0}
        conv3x3 = seg.conv3x3

        def counting_conv3x3(*args, **kwargs):
            out = conv3x3(*args, **kwargs)
            calls["forward"] += 1
            backward_fn = out._backward_fn

            def counting_backward(g):
                calls["backward"] += 1
                return backward_fn(g)

            out._backward_fn = counting_backward
            return out

        monkeypatch.setattr(seg, "conv3x3", counting_conv3x3)
        batches = gen_seg_batches(size=8, n_annotated=2, n_unannotated=2,
                                  seed=0)
        train_cyclegan_toy(batches, CycleNets.init(width=4, seed=0), steps=1,
                           lr=1e-3)
        assert calls["forward"] <= 39
        assert calls["backward"] <= 33

    def test_matches_per_term_reference_trainer(self):
        # sharing the fakes only regroups sums of gradients, so the curves
        # agree to rounding; a discriminator step that read fakes from
        # before the generator update would not
        def run(train):
            nets = CycleNets.init(width=4, seed=0)
            batches = gen_seg_batches(size=8, n_annotated=2,
                                      n_unannotated=2, seed=0)
            return np.array(train(batches, nets, steps=20, lr=3e-3)[1])

        np.testing.assert_allclose(run(train_cyclegan_toy),
                                   run(_reference_train), rtol=1e-12, atol=0)

    def test_curve_files_are_byte_identical(self, tmp_path):
        rows = [[1, 0.5, 0.25, 1.0, 2.0, 0.125, 0.0625, 3.5625]]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curves(p1, rows)
        write_curves(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ",".join(CURVE_HEADER)


def _reference_train(batches, nets, steps, lr):
    """The alternating trainer composed term by term: every loss term
    builds its own generator forwards, and the discriminator loss
    backpropagates through the generators too."""
    opt_g = Adam(nets.generator_parameters(), lr)
    opt_d = Adam(nets.discriminator_parameters(), lr)
    curves = []
    for step in range(steps):
        batch = next(batches)

        def fake_m():
            return nets.g_cm(batch.unannotated_cxr)

        def fake_c():
            return nets.g_mc(batch.annotated_masks)

        parts = {**gen_losses(batch, nets, fake_c()),
                 **cycle_losses(batch, nets, fake_m(), fake_c())}
        loss_g = (parts["L_gen_M"] + parts["L_gen_C"] + parts["L_cycle_M"]
                  + parts["L_cycle_C"]
                  + ((nets.d_m(fake_m()) - 1.0) ** 2).mean()
                  + ((nets.d_c(fake_c()) - 1.0) ** 2).mean())
        opt_g.zero_grad()
        opt_d.zero_grad()
        loss_g.backward()
        opt_g.step()

        parts.update(adv_losses(batch, nets, fake_m(), fake_c()))
        loss_d = parts["L_disc_M"] + parts["L_disc_C"]
        opt_g.zero_grad()
        opt_d.zero_grad()
        loss_d.backward()
        opt_d.step()

        row = {k: float(parts[k].data) for k in CURVE_HEADER[1:-1]}
        curves.append([step + 1, *row.values(), total_loss(row)])
    return nets, curves


class TestBinarize:
    def test_matches_brute_force_argmax(self, rng):
        # oracle: per-pixel max over softmax probabilities with channel-order
        # tie priority, written as explicit loops
        for _ in range(20):
            logits = rng.normal(size=(1, 3, 8, 8))
            masks = binarize_masks(Tensor(logits))
            probs = softmax_channels(Tensor(logits)).data[0]
            for i in range(8):
                for j in range(8):
                    best, best_p = 0, probs[0, i, j]
                    for k in (1, 2):
                        if probs[k, i, j] > best_p:
                            best, best_p = k, probs[k, i, j]
                    assert masks.lung[0, 0, i, j] == (best == 1)
                    assert masks.heart[0, 0, i, j] == (best == 2)

    def test_tie_priority_prefers_earlier_channel(self):
        logits = np.zeros((1, 3, 2, 2))  # all classes tied
        masks = binarize_masks(Tensor(logits))
        assert masks.lung.sum() == 0
        assert masks.heart.sum() == 0  # background wins all ties

    def test_output_is_binary_and_disjoint(self, rng):
        masks = binarize_masks(Tensor(rng.normal(size=(3, 3, 5, 5))))
        assert set(np.unique(masks.lung)) <= {0.0, 1.0}
        assert (masks.lung * masks.heart == 0).all()

    def test_wrong_channel_count_rejected(self, rng):
        with pytest.raises(ValueError):
            binarize_masks(Tensor(rng.normal(size=(1, 4, 2, 2))))


def _square_masks(n=2, size=12):
    lung = np.zeros((n, 1, size, size))
    heart = np.zeros((n, 1, size, size))
    lung[:, 0, 2:6, 2:6] = 1.0
    heart[:, 0, 7:10, 7:10] = 1.0
    return AnatomyMasks(lung, heart)


class TestCutout:
    def test_window_zero_is_identity(self):
        masks = _square_masks()
        out = apply_cutout(masks, sample_cutout_windows(masks, 0, 0), 0)
        np.testing.assert_array_equal(out.lung, masks.lung)
        np.testing.assert_array_equal(out.heart, masks.heart)

    def test_centers_lie_in_anatomy_union(self):
        masks = _square_masks()
        for seed in range(10):
            wins = sample_cutout_windows(masks, 4, rng_seed=seed)
            union = np.maximum(masks.lung, masks.heart)
            for s, win in enumerate(wins):
                ci, cj = win[0] + 2, win[1] + 2
                assert union[s, 0, ci, cj] == 1.0

    def test_apply_is_idempotent(self):
        masks = _square_masks()
        wins = sample_cutout_windows(masks, 4, rng_seed=1)
        once = apply_cutout(masks, wins, 4)
        twice = apply_cutout(once, wins, 4)
        np.testing.assert_array_equal(once.lung, twice.lung)
        np.testing.assert_array_equal(once.heart, twice.heart)

    def test_deterministic_given_seed(self):
        masks = _square_masks()
        a = apply_cutout(masks, sample_cutout_windows(masks, 4, 7), 4)
        b = apply_cutout(masks, sample_cutout_windows(masks, 4, 7), 4)
        np.testing.assert_array_equal(a.lung, b.lung)
        np.testing.assert_array_equal(a.heart, b.heart)

    def test_removes_at_most_window_squared_pixels(self):
        masks = _square_masks()
        before = masks.union().sum(axis=(1, 2, 3))
        out = apply_cutout(masks, sample_cutout_windows(masks, 4, 3), 4)
        after = out.union().sum(axis=(1, 2, 3))
        assert ((before - after) <= 16).all()
        assert ((before - after) >= 1).all()  # center pixel is in the union

    def test_growing_window_never_restores_pixels(self):
        # with shared centers, a larger window removes a superset of pixels
        masks = _square_masks()
        wins = sample_cutout_windows(masks, 2, rng_seed=5)
        small = apply_cutout(masks, wins, 2)
        big = apply_cutout(masks, wins, 4)
        assert (big.union() <= small.union()).all()

    def test_empty_union_is_skipped(self):
        empty = AnatomyMasks(np.zeros((1, 1, 6, 6)), np.zeros((1, 1, 6, 6)))
        wins = sample_cutout_windows(empty, 4, rng_seed=0)
        assert wins == [None]

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            sample_cutout_windows(_square_masks(), -1, rng_seed=0)
