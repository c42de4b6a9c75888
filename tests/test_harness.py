"""Evaluation harness: AUC, metrics tables, synthetic data, sweeps."""

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.stats import rankdata

from anatomy_attn import DivergenceError, harness
from anatomy_attn.harness import (ABLATION_AXES, CLASS_NAMES, SEG_NOISE,
                                  MetricsTable, SyntheticSpec, ablation_sweep,
                                  auc, check_seeds, evaluate_with_cutout,
                                  gen_seg_batches, gen_synthetic, parallel_map,
                                  robustness_experiment, robustness_sweep,
                                  train_condition, _ellipse, _test_aucs)
from anatomy_attn.model import ModelConfig

TINY_CONFIG = ModelConfig(image_size=16, mask_size=4,
                          backbone_widths=(2, 3, 3, 4))
TINY_SPEC = SyntheticSpec(n_train=24, n_val=12, n_test=32)
TINY_TRAIN = {"epochs": 1, "batch": 8}


def _brute_force_auc(scores, labels):
    # O(P*N) pairwise comparison oracle
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg)) * 100.0


# The scipy-based data generator that the numpy one replaced, kept whole as
# its oracle: the per-sample loop, with scipy.ndimage morphology, that makes
# every draw as the package once made it (12 `rng.uniform` calls per
# anatomy, the shift integers as one sized call). The package must draw the
# same numbers and return the same arrays. Ellipses are drawn through
# `harness._ellipse`, so a test can swap its formula.


def _scipy_sample_anatomy(size, rng):
    s = size / 32.0
    jit = lambda a: rng.uniform(-a, a) * s
    ellipse = harness._ellipse
    lung = (ellipse(size, size, size * 0.45 + jit(2), size * 0.28 + jit(2),
                    size * 0.30 * rng.uniform(0.8, 1.2),
                    size * 0.16 * rng.uniform(0.8, 1.2))
            | ellipse(size, size, size * 0.45 + jit(2), size * 0.72 + jit(2),
                      size * 0.30 * rng.uniform(0.8, 1.2),
                      size * 0.16 * rng.uniform(0.8, 1.2)))
    heart = ellipse(size, size, size * 0.62 + jit(2), size * 0.52 + jit(2),
                    size * 0.18 * rng.uniform(0.8, 1.2),
                    size * 0.14 * rng.uniform(0.8, 1.2))
    lung &= ~heart
    di, dj = rng.integers(0, size, size=2)
    roll = lambda m: np.roll(m, (di, dj), axis=(0, 1))
    return (roll(lung).astype(np.float64), roll(heart).astype(np.float64))


def _scipy_jitter_mask(mask, amount, rng):
    if amount <= 0:
        return mask.copy()
    out = np.roll(mask, (rng.integers(-amount, amount + 1),
                         rng.integers(-amount, amount + 1)), axis=(0, 1))
    op = rng.integers(3)
    if op == 1:
        out = ndimage.binary_dilation(out > 0, iterations=amount)
    elif op == 2:
        out = ndimage.binary_erosion(out > 0, iterations=amount)
    return out.astype(np.float64)


def _scipy_footprint(radius):
    return harness._ellipse(2 * radius + 1, 2 * radius + 1,
                            radius, radius, radius + 0.5, radius + 0.5)


def _scipy_place_lesion(region, radius, rng):
    h, w = region.shape
    allowed = ndimage.binary_erosion(region > 0,
                                     structure=_scipy_footprint(radius))
    centers = np.argwhere(allowed)
    if len(centers) == 0:
        return None
    ci, cj = centers[rng.integers(len(centers))]
    lesion = np.zeros((h, w))
    lesion[harness._ellipse(h, w, ci, cj, radius + 0.5, radius + 0.5)] = 1.0
    return lesion


def _scipy_gen_synthetic(spec):
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
        lung, heart = _scipy_sample_anatomy(size, rng)
        outside = 1.0 - np.maximum(lung, heart)
        img = rng.normal(0.0, spec.noise, size=(size, size))
        img += spec.anatomy_contrast * (lung - heart)
        for k, region in enumerate((lung, heart, outside)):
            if rng.random() < 0.5:
                blob = _scipy_place_lesion(region, spec.lesion_radius, rng)
                if blob is None:
                    continue
                labels[s, k] = 1.0
                lesions[s, k] = blob
                img += spec.lesion_amplitude * blob
        images[s, 0] = img
        lung_t[s, 0], heart_t[s, 0] = lung, heart
        ln = _scipy_jitter_mask(lung, spec.mask_jitter, rng)
        hn = _scipy_jitter_mask(heart, spec.mask_jitter, rng)
        ln *= 1.0 - hn
        lung_n[s, 0], heart_n[s, 0] = ln, hn
    bounds = {"train": (0, spec.n_train),
              "val": (spec.n_train, spec.n_train + spec.n_val),
              "test": (spec.n_train + spec.n_val, n)}
    return {f"{name}_{kind}": array[lo:hi]
            for name, (lo, hi) in bounds.items()
            for kind, array in (("images", images), ("lung_true", lung_t),
                                ("heart_true", heart_t), ("lung", lung_n),
                                ("heart", heart_n), ("labels", labels),
                                ("lesions", lesions))}


def _scipy_seg_batches(size, n_annotated, n_unannotated, seed):
    rng = np.random.default_rng(seed)

    def make(n):
        cxr = np.zeros((n, 1, size, size))
        masks = np.zeros((n, 3, size, size))
        for s in range(n):
            lung, heart = _scipy_sample_anatomy(size, rng)
            bg = 1.0 - np.maximum(lung, heart)
            masks[s] = np.stack([bg, lung, heart])
            cxr[s, 0] = (0.2 * bg + 0.8 * lung + 0.5 * heart
                         + rng.normal(0.0, SEG_NOISE, size=(size, size)))
        return cxr, masks

    while True:
        (cxr_l, masks_l), (cxr_u, _) = make(n_annotated), make(n_unannotated)
        yield {"annotated_cxr": cxr_l, "annotated_masks": masks_l,
               "unannotated_cxr": cxr_u}


def _assert_same_arrays(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


@st.composite
def _bool_masks(draw):
    """h x w boolean masks, 1 <= h, w <= 40, alone or as a stack of 1 to 3:
    all false, all true, or random at a density high enough for many to
    touch the border."""
    stack = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.5, 0.8, 0.95, 1.0]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).random((*stack, h, w)) < density


class TestAuc:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            labels = rng.integers(0, 2, size=n).astype(float)
            if labels.sum() in (0, n):
                labels[0], labels[-1] = 1.0, 0.0
            # integer scores force plenty of ties
            scores = rng.integers(0, 5, size=n).astype(float)
            np.testing.assert_allclose(auc(scores, labels),
                                       _brute_force_auc(scores, labels),
                                       atol=1e-9)

    def test_hand_computed_example(self):
        # pos scores {3, 1}, neg {2, 0}: concordant pairs 3 of 4 -> 75%
        assert auc([3.0, 1.0, 2.0, 0.0], [1, 1, 0, 0]) == 75.0

    def test_perfect_and_inverted_ranking(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 100.0
        assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_tied_scores_give_fifty(self):
        assert auc([1.0, 1.0, 1.0, 1.0], [1, 0, 1, 0]) == 50.0

    def test_degenerate_labels_rejected(self):
        with pytest.raises(ValueError):
            auc([1.0, 2.0], [1, 1])
        with pytest.raises(ValueError):
            auc([1.0, 2.0], [0, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            auc([1.0, 2.0, 3.0], [1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            auc([0.5, bad, 0.1], [1, 0, 0])

    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([-2.5, 0.0, 1e-300, 0.1, 0.3, 7.0]),
                  st.floats(-1e6, 1e6, allow_nan=False)),
        st.booleans()), min_size=2, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_equals_scipy_rankdata_formula(self, pairs):
        # reference: the scipy average-rank formulation, bit for bit
        scores = np.array([s for s, _ in pairs])
        labels = np.array([float(y) for _, y in pairs])
        pos = int(labels.sum())
        neg = len(labels) - pos
        assume(pos > 0 and neg > 0)
        u = rankdata(scores)[labels == 1].sum() - pos * (pos + 1) / 2.0
        assert auc(scores, labels) == float(u / (pos * neg) * 100.0)

    def test_suite_import_leaves_scipy_out(self):
        # the model and gradcheck suite reach auc without importing scipy
        script = ("import sys, anatomy_attn.suite\n"
                  "print(sorted(m for m in sys.modules if m == 'scipy'"
                  " or m.startswith('scipy.')))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "[]"

    @given(st.lists(st.integers(-100, 100), min_size=4, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_monotone_transform(self, scores):
        # integer grid keeps ties exact under the float transforms below
        labels = np.tile([1.0, 0.0], len(scores))[:len(scores)]
        scores = np.asarray(scores, dtype=np.float64)
        base = auc(scores, labels)
        # strictly increasing transforms preserve the ranking exactly
        np.testing.assert_allclose(auc(3.0 * scores + 7.0, labels), base,
                                   atol=1e-9)
        np.testing.assert_allclose(auc(np.exp(scores / 50.0), labels), base,
                                   atol=1e-9)


class TestMetricsTable:
    def test_add_value_and_mean(self):
        t = MetricsTable()
        t.add("cond", "a", 60.0)
        t.add("cond", "b", 80.0)
        assert t.add_mean("cond") == 70.0
        assert t.value("cond", "a") == 60.0
        assert t.value("cond") == 70.0

    def test_missing_value_raises_key_error(self):
        t = MetricsTable()
        t.add("cond", "a", 60.0)
        with pytest.raises(KeyError, match=re.escape("('cond', 'mean')")):
            t.value("cond")

    def test_out_of_range_rejected(self):
        t = MetricsTable()
        with pytest.raises(ValueError):
            t.add("c", "a", 101.0)
        with pytest.raises(ValueError):
            t.add("c", "a", -1.0)

    def test_csv_is_byte_identical_across_writes(self, tmp_path):
        t = MetricsTable()
        t.add("cond", "a", 62.5)
        t.add_mean("cond")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t.write_csv(p1)
        t.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "condition,class_name,auc_percent"


class TestSyntheticData:
    def test_split_sizes_and_keys(self):
        spec = SyntheticSpec(n_train=20, n_val=8, n_test=12)
        data = gen_synthetic(spec)
        assert data["train_images"].shape == (20, 1, 32, 32)
        assert data["val_labels"].shape == (8, 3)
        assert data["test_lung"].shape == (12, 1, 32, 32)

    @pytest.mark.parametrize("key", ["n_train", "n_val", "n_test"])
    def test_negative_split_size_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key} must be >= 0, got -1"):
            gen_synthetic(SyntheticSpec(**{"n_train": 6, "n_val": 4,
                                           "n_test": 2, key: -1}))

    @pytest.mark.parametrize("key, value, message", [
        ("image_size", 0, "image_size must be >= 1, got 0"),
        ("lesion_radius", -1, "lesion_radius must be >= 0, got -1"),
        ("mask_jitter", -2, "mask_jitter must be >= 0, got -2"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("lesion_radius", 2.0, "lesion_radius must be an integer, got 2.0"),
        ("n_test", 2.5, "n_test must be an integer, got 2.5"),
        ("noise", -1.0, "noise must be finite and >= 0, got -1.0"),
        ("noise", np.nan, "noise must be finite and >= 0, got nan"),
        ("noise", np.inf, "noise must be finite and >= 0, got inf"),
        ("anatomy_contrast", np.nan, "anatomy_contrast must be finite, "
                                     "got nan"),
        ("lesion_amplitude", -np.inf, "lesion_amplitude must be finite, "
                                      "got -inf"),
        ("seed", True, "seed must be an integer, got True"),
        ("image_size", True, "image_size must be an integer, got True"),
        ("n_train", np.True_, "n_train must be an integer, got np.True_"),
        ("noise", "0.3", "noise must be a real number, got '0.3'"),
        pytest.param("noise", 10 ** 400,
                     f"noise must be finite and >= 0, got {10 ** 400}",
                     id="noise-int beyond float"),
        ("anatomy_contrast", None, "anatomy_contrast must be a real number, "
                                   "got None"),
        ("lesion_amplitude", True, "lesion_amplitude must be a real number, "
                                   "got True")])
    def test_bad_field_rejected_before_any_draw(self, key, value, message,
                                                monkeypatch):
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: pytest.fail("drew"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_synthetic(replace(SyntheticSpec(n_train=6, n_val=4, n_test=2),
                                  **{key: value}))

    def test_spec_fields_change_only_through_the_checks(self):
        spec = SyntheticSpec()
        with pytest.raises(FrozenInstanceError):
            spec.noise = -1.0
        with pytest.raises(ValueError, match="noise must be finite"):
            replace(spec, noise=-1.0)

    def test_empty_splits_allowed(self):
        data = gen_synthetic(SyntheticSpec(n_train=0, n_val=0, n_test=3))
        assert data["train_images"].shape == (0, 1, 32, 32)
        assert data["val_labels"].shape == (0, 3)
        assert data["test_images"].shape == (3, 1, 32, 32)

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(n_train=6, n_val=2, n_test=2)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_masks_are_binary_and_disjoint(self):
        data = gen_synthetic(SyntheticSpec(n_train=8, n_val=2, n_test=2))
        for kind in ("", "_true"):
            lung = data[f"train_lung{kind}"]
            heart = data[f"train_heart{kind}"]
            assert set(np.unique(lung)) <= {0.0, 1.0}
            assert (lung * heart == 0).all()

    def test_lesions_contained_in_their_regions(self):
        # oracle: every lesion pixel lies inside the archetype's true region
        data = gen_synthetic(SyntheticSpec(n_train=30, n_val=2, n_test=2))
        lung = data["train_lung_true"][:, 0]
        heart = data["train_heart_true"][:, 0]
        outside = 1.0 - np.maximum(lung, heart)
        regions = {0: lung, 1: heart, 2: outside}
        lesions = data["train_lesions"]
        labels = data["train_labels"]
        for s in range(len(labels)):
            for k, region in regions.items():
                blob = lesions[s, k]
                if labels[s, k] == 0:
                    assert blob.sum() == 0
                else:
                    assert blob.sum() > 0
                    assert (blob <= region[s]).all()

    def test_both_label_values_present(self):
        data = gen_synthetic(SyntheticSpec(n_train=40, n_val=2, n_test=2))
        for k in range(3):
            col = data["train_labels"][:, k]
            assert 0 < col.sum() < len(col)

    @staticmethod
    def _mgrid_ellipse(h, w, ci, cj, ri, rj):
        ii, jj = np.mgrid[0:h, 0:w]
        return (((ii - ci) / ri) ** 2 + ((jj - cj) / rj) ** 2 <= 1.0)

    @pytest.mark.parametrize("args", [
        (32, 32, 14.4, 8.96, 9.6, 5.12), (24, 40, 10.3, 29.1, 7.7, 6.2),
        (40, 24, 30.0, 3.5, 12.1, 2.9), (5, 5, 2, 2, 2.5, 2.5),
        (5, 7, 2, 3, 2, 3),
        (48, 31, np.int64(17), np.int64(30), 3.5, 3.5),
        (7, 3, -2.0, 5.0, 1e-3, 40.0)])
    def test_ellipse_equals_the_mgrid_formula(self, args):
        got, want = _ellipse(*args), self._mgrid_ellipse(*args)
        assert got.shape == want.shape == args[:2]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("size", [24, 32])
    def test_dataset_equals_one_drawn_with_mgrid_ellipses(self, size,
                                                          monkeypatch):
        spec = SyntheticSpec(image_size=size, n_train=12, n_val=4, n_test=4,
                             seed=size)
        data = gen_synthetic(spec)
        monkeypatch.setattr(harness, "_ellipse", self._mgrid_ellipse)
        _assert_same_arrays(data, _scipy_gen_synthetic(spec))

    @pytest.mark.parametrize("seed", range(6))
    def test_anatomy_draws_equal_the_calls_the_oracle_makes(self, seed):
        # one random(12) mapped as low + (high - low) * u is 12 uniform
        # calls, and two scalar integers are one sized call, bit for bit,
        # with other draws in between; a numpy that changes either fails
        # here by name, not only in the dataset comparisons
        ours, theirs = (np.random.default_rng(seed) for _ in range(2))
        for size in (1, 7, 32, 48):
            mapped = (harness._DRAW_LOW
                      + harness._DRAW_SPAN * ours.random(12).reshape(3, 4))
            calls = [[theirs.uniform(-2, 2), theirs.uniform(-2, 2),
                      theirs.uniform(0.8, 1.2), theirs.uniform(0.8, 1.2)]
                     for _ in range(3)]
            assert mapped.tolist() == calls
            assert ([ours.integers(0, size), ours.integers(0, size)]
                    == theirs.integers(0, size, size=2).tolist())
            assert ours.normal(size=3).tolist() == theirs.normal(
                size=3).tolist()
            assert ours.integers(5) == theirs.integers(5)

    @given(mask=_bool_masks(), dilate=st.booleans(),
           structure=st.one_of(st.tuples(st.just("cross"), st.integers(1, 3)),
                               st.tuples(st.just("disk"), st.integers(0, 6))))
    @settings(max_examples=80, deadline=None)
    def test_morph_equals_scipy(self, mask, dilate, structure):
        # a stack is eroded (dilated) slice by slice, each slice equal to
        # its own 2-D result
        kind, n = structure
        if kind == "cross":
            footprint = ndimage.generate_binary_structure(2, 1)
            half_widths, iterations = harness._CROSS, n
        else:
            footprint, iterations = _scipy_footprint(n), 1
            half_widths = harness._disk(n)[1]
        oracle = ndimage.binary_dilation if dilate else ndimage.binary_erosion
        got = harness._morph(mask, half_widths, iterations, dilate=dilate)
        assert got.dtype == bool and got.shape == mask.shape
        for index in np.ndindex(mask.shape[:-2]):
            want = oracle(mask[index], structure=footprint,
                          iterations=iterations)
            np.testing.assert_array_equal(got[index], want)
            np.testing.assert_array_equal(got[index], harness._morph(
                mask[index], half_widths, iterations, dilate=dilate))

    def test_disk_footprint_is_cached_and_read_only(self):
        footprint, half_widths = harness._disk(2)
        assert harness._disk(2)[0] is footprint
        np.testing.assert_array_equal(footprint, _scipy_footprint(2))
        assert half_widths == (1, 2, 2, 2, 1)
        with pytest.raises(ValueError, match="read-only"):
            footprint[0, 0] = True

    @pytest.mark.parametrize("spec", [
        *(SyntheticSpec(image_size=size, n_train=6, n_val=2, n_test=4,
                        seed=seed)
          for size in (24, 32, 48) for seed in range(8)),
        *(SyntheticSpec(n_train=8, n_val=2, n_test=2, seed=9,
                        mask_jitter=jitter, lesion_radius=radius)
          for jitter, radius in ((0, 0), (2, 1), (3, 3))),
        SyntheticSpec(image_size=6, n_train=8, n_val=2, n_test=2, seed=3,
                      lesion_radius=1),
        SyntheticSpec(image_size=10, n_train=8, n_val=2, n_test=2, seed=4,
                      mask_jitter=12),
        # sizes down to 3, radii up to 6 (wider than some images), jitter
        # up to 40 (wider than every image), and empty splits
        *(SyntheticSpec(image_size=size, n_train=10, n_val=3, n_test=3,
                        seed=20 + i, mask_jitter=jitter, lesion_radius=radius)
          for i, (size, jitter, radius) in enumerate((
              (3, 0, 0), (3, 40, 1), (4, 2, 0), (5, 1, 6), (7, 5, 1),
              (12, 40, 2), (16, 3, 4), (20, 7, 5), (40, 1, 6), (48, 40, 6),
              (48, 2, 3)))),
        SyntheticSpec(n_train=0, n_val=0, n_test=0, seed=40),
        SyntheticSpec(image_size=9, n_train=0, n_val=5, n_test=0, seed=41,
                      mask_jitter=4),
        # zero and negative noise, contrast and amplitude, where a pixel
        # could meet a signed zero
        SyntheticSpec(image_size=16, n_train=10, n_val=3, n_test=3, seed=42,
                      noise=0.0, anatomy_contrast=-0.5,
                      lesion_amplitude=-1.0),
        SyntheticSpec(image_size=16, n_train=10, n_val=3, n_test=3, seed=43,
                      noise=0.0, anatomy_contrast=0.0,
                      lesion_amplitude=0.0)],
        ids=lambda s: (f"size{s.image_size}-seed{s.seed}-"
                       f"jitter{s.mask_jitter}-radius{s.lesion_radius}"))
    def test_dataset_equals_the_scipy_oracle(self, spec):
        _assert_same_arrays(gen_synthetic(spec), _scipy_gen_synthetic(spec))

    def test_seg_batch_equals_the_scipy_oracle(self):
        # the first three batches, at a small size and at the seg-toy
        # defaults
        for args in ((12, 4, 3, 5), (16, 8, 8, 0)):
            got, want = gen_seg_batches(*args), _scipy_seg_batches(*args)
            for _ in range(3):
                batch, expected = next(got), next(want)
                _assert_same_arrays({field: getattr(batch, field).data
                                     for field in expected}, expected)

    def test_seg_batches_are_deterministic(self):
        a = next(iter(gen_seg_batches(size=8, n_annotated=8,
                                      n_unannotated=8, seed=3)))
        b = next(iter(gen_seg_batches(size=8, n_annotated=8,
                                      n_unannotated=8, seed=3)))
        np.testing.assert_array_equal(a.annotated_cxr.data,
                                      b.annotated_cxr.data)
        np.testing.assert_array_equal(a.annotated_masks.data,
                                      b.annotated_masks.data)
        # one-hot masks over 3 classes
        np.testing.assert_allclose(a.annotated_masks.data.sum(axis=1), 1.0)


@pytest.fixture
def generated(monkeypatch, tmp_path):
    """Logs (pid, image_size) of every gen_synthetic call, in this process
    or a forked worker; returns a function that reads the log."""
    log = tmp_path / "gen_synthetic.log"
    real = harness.gen_synthetic

    def logged(spec):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {spec.image_size}\n")
        return real(spec)

    monkeypatch.setattr(harness, "gen_synthetic", logged)
    return lambda: ([tuple(map(int, line.split()))
                     for line in log.read_text().splitlines()]
                    if log.exists() else [])


def _rejected_before_any_work(call, message, monkeypatch, generated):
    """Assert that `call()` raises ValueError `message` on one and on two
    workers, before any gen_synthetic or train call and with no worker
    started."""
    monkeypatch.setattr(harness, "train",
                        lambda *args: pytest.fail("trained"))
    for workers in ("1", "2"):
        monkeypatch.setenv("ANATOMY_ATTN_THREADS", workers)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    assert generated() == []
    assert multiprocessing.active_children() == []


@pytest.fixture
def two_workers(monkeypatch):
    """ANATOMY_ATTN_THREADS=2; the test must leave no worker running."""
    monkeypatch.setenv("ANATOMY_ATTN_THREADS", "2")
    yield
    assert multiprocessing.active_children() == []


class TestSweeps:
    def test_parallel_map_same_on_one_and_two_threads(self, monkeypatch):
        def work(x):
            return x * x, os.getpid()

        items = list(range(40))
        runs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("ANATOMY_ATTN_THREADS", workers)
            runs[workers] = parallel_map(work, items)
        assert [r[0] for r in runs["1"]] == [x * x for x in items]
        assert [r[0] for r in runs["2"]] == [r[0] for r in runs["1"]]
        assert {r[1] for r in runs["1"]} == {os.getpid()}
        assert os.getpid() not in {r[1] for r in runs["2"]}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("raw", [None, "zero", "0", "-3"])
    def test_parallel_map_unset_or_invalid_threads_is_serial(self, raw,
                                                             monkeypatch):
        if raw is None:
            monkeypatch.delenv("ANATOMY_ATTN_THREADS", raising=False)
        else:
            monkeypatch.setenv("ANATOMY_ATTN_THREADS", raw)
        pids = parallel_map(lambda _: os.getpid(), range(4))
        assert set(pids) == {os.getpid()}

    def test_parallel_map_runs_items_in_worker_processes(self, two_workers):
        pids = parallel_map(lambda _: os.getpid(), range(6))
        assert os.getpid() not in pids
        assert 1 <= len(set(pids)) <= 2

    def test_parallel_map_one_item_runs_here(self, two_workers):
        assert parallel_map(lambda _: os.getpid(), [0]) == [os.getpid()]

    def test_parallel_map_takes_an_unpicklable_closure(self, two_workers):
        lock, offset = threading.Lock(), 7

        def add(x):
            with lock:
                return x + offset

        assert parallel_map(add, range(5)) == [7, 8, 9, 10, 11]

    def test_parallel_map_reraises_a_worker_error_with_its_type(
            self, two_workers):
        def cell(x):
            if x == 2:
                raise DivergenceError(f"cell {x} diverged at epoch 1")
            return x

        with pytest.raises(DivergenceError,
                           match="^cell 2 diverged at epoch 1$"):
            parallel_map(cell, range(4))

    def test_parallel_map_killed_worker_breaks_the_pool(self, two_workers):
        parent = os.getpid()

        def cell(x):
            if x == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        with pytest.raises(BrokenProcessPool):
            parallel_map(cell, range(4))

    def test_ablation_sweep_same_on_one_and_two_workers(self, monkeypatch):
        rows = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("ANATOMY_ATTN_THREADS", workers)
            rows[workers] = ablation_sweep("attention_level", TINY_CONFIG,
                                           TINY_SPEC, [0], TINY_TRAIN).rows
        assert len(rows["1"]) == 16
        assert [(c, n, v.hex()) for c, n, v in rows["2"]] == [
            (c, n, v.hex()) for c, n, v in rows["1"]]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_level_sweep_generates_its_data_once_before_the_fork(
            self, workers, monkeypatch, generated):
        monkeypatch.setenv("ANATOMY_ATTN_THREADS", workers)
        ablation_sweep("attention_level", TINY_CONFIG, TINY_SPEC, (0, 1),
                       TINY_TRAIN)
        assert generated() == [(os.getpid(), 16)]
        assert multiprocessing.active_children() == []

    def test_image_size_sweep_generates_each_size_once(self, monkeypatch,
                                                       generated):
        monkeypatch.setenv("ANATOMY_ATTN_THREADS", "2")
        ablation_sweep("image_size", TINY_CONFIG, TINY_SPEC, [0], TINY_TRAIN)
        assert generated() == [(os.getpid(), s) for s in (24, 32, 48)]

    def test_robustness_experiment_generates_its_data_once(self, generated):
        robustness_experiment(TINY_SPEC, (0, 1), (0, 2), TINY_CONFIG,
                              trials=1, train_kwargs=TINY_TRAIN)
        assert generated() == [(os.getpid(), 16)]

    @pytest.mark.parametrize("axis", ["attention_level", "image_size"])
    def test_sweep_equals_cells_that_regenerate_their_data(self, axis,
                                                           monkeypatch):
        monkeypatch.setenv("ANATOMY_ATTN_THREADS", "2")
        seeds = (0, 1)
        rows = ablation_sweep(axis, TINY_CONFIG, TINY_SPEC, seeds,
                              TINY_TRAIN).rows
        want = MetricsTable()
        for value in ABLATION_AXES[axis]:
            cfg = replace(TINY_CONFIG, **{axis: value})
            per_seed = []
            for seed in seeds:
                data = gen_synthetic(replace(TINY_SPEC,
                                             image_size=cfg.image_size))
                model = train_condition(cfg, data, seed, TINY_TRAIN)
                per_seed.append(_test_aucs(model, data, data["test_lung"],
                                           data["test_heart"]))
            med = np.median(per_seed, axis=0)
            for k, name in enumerate(CLASS_NAMES):
                want.add(f"{axis}={value}", name, med[k])
            want.add_mean(f"{axis}={value}")
        assert [(c, n, v.hex()) for c, n, v in rows] == [
            (c, n, v.hex()) for c, n, v in want.rows]

    def test_cells_cannot_write_into_the_shared_data(self, monkeypatch):
        monkeypatch.setenv("ANATOMY_ATTN_THREADS", "1")
        written = []

        def writing_train(model, data, *args):
            for key, array in data.items():
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0
                written.append(key)
            return model, []

        monkeypatch.setattr(harness, "train", writing_train)
        ablation_sweep("attention_level", TINY_CONFIG, TINY_SPEC, [0],
                       TINY_TRAIN)
        keys = {f"{split}_{kind}" for split in ("train", "val", "test")
                for kind in ("images", "lung", "heart", "labels")}
        assert sorted(written) == sorted(list(keys) * 4)

    @pytest.mark.parametrize("run", [
        lambda kw: train_condition(TINY_CONFIG, {}, 0, kw),
        lambda kw: ablation_sweep("pooling", TINY_CONFIG, TINY_SPEC, [0], kw),
        lambda kw: robustness_experiment(TINY_SPEC, [0], (0, 2), TINY_CONFIG,
                                         trials=1, train_kwargs=kw)],
        ids=["train_condition", "ablation_sweep", "robustness_experiment"])
    def test_unknown_train_kwarg_rejected_before_any_work(self, run,
                                                          monkeypatch,
                                                          generated):
        _rejected_before_any_work(
            lambda: run({"epoch": 1}),
            "unknown train_kwargs key(s) ['epoch']; expected "
            "['batch', 'epochs', 'lr']", monkeypatch, generated)

    @pytest.mark.parametrize("spec, train_kwargs, message", [
        (TINY_SPEC, {"epochs": 0}, "epochs must be >= 1, got 0"),
        (TINY_SPEC, {"lr": 0}, "lr must be finite and > 0, got 0"),
        (TINY_SPEC, {"lr": float("nan")},
         "lr must be finite and > 0, got nan"),
        (TINY_SPEC, {"batch": 1}, "batch norm needs >= 2 images per batch; "
                                  "got batch=1, n_train=24"),
        (replace(TINY_SPEC, n_val=0), TINY_TRAIN, "n_val must be >= 1, got 0"),
        (replace(TINY_SPEC, n_test=0), TINY_TRAIN,
         "n_test must be >= 1, got 0")],
        ids=["epochs 0", "lr 0", "lr nan", "batch 1", "n_val 0", "n_test 0"])
    @pytest.mark.parametrize("run", [
        lambda spec, kw: ablation_sweep("image_size", TINY_CONFIG, spec, [0],
                                        kw),
        lambda spec, kw: robustness_experiment(spec, [0], (0, 2), TINY_CONFIG,
                                               trials=1, train_kwargs=kw)],
        ids=["ablation_sweep", "robustness_experiment"])
    def test_untrainable_run_rejected_before_any_work(self, run, spec,
                                                      train_kwargs, message,
                                                      monkeypatch, generated):
        _rejected_before_any_work(lambda: run(spec, train_kwargs), message,
                                  monkeypatch, generated)

    def test_unknown_axis_rejected_before_any_work(self, monkeypatch,
                                                   generated):
        _rejected_before_any_work(
            lambda: ablation_sweep("depth", TINY_CONFIG, TINY_SPEC, [0],
                                   TINY_TRAIN),
            "unknown ablation axis 'depth'", monkeypatch, generated)

    @pytest.mark.parametrize("windows, message", [
        ((2, 4), "windows must be >= 0 and include 0, got (2, 4)"),
        ((0, -2), "windows must be >= 0 and include 0, got (0, -2)"),
        ((0, 4, 4), "windows repeats window 4, got (0, 4, 4)"),
        ((0, 2.5), "window must be an integer, got 2.5"),
        (("a", 0), "window must be an integer, got 'a'"),
        ((0, None), "window must be an integer, got None"),
        (5, "windows must be a sequence, got 5")],
        ids=["no 0", "negative", "repeated", "not an integer", "a string",
             "None", "an int"])
    @pytest.mark.parametrize("run", [
        lambda windows: robustness_experiment(TINY_SPEC, [0], windows,
                                              TINY_CONFIG, trials=1,
                                              train_kwargs=TINY_TRAIN),
        lambda windows: robustness_sweep({}, {}, windows, 1, 0)],
        ids=["robustness_experiment", "robustness_sweep"])
    def test_bad_windows_rejected_before_any_work(self, run, windows, message,
                                                  monkeypatch, generated):
        _rejected_before_any_work(lambda: run(windows), message, monkeypatch,
                                  generated)

    @pytest.mark.parametrize("run", [
        lambda windows: robustness_experiment(TINY_SPEC, [0], windows,
                                              TINY_CONFIG, trials=1,
                                              train_kwargs=TINY_TRAIN),
        lambda windows: robustness_sweep({"aaa": None}, {}, windows, 1, 0)],
        ids=["robustness_experiment", "robustness_sweep"])
    def test_windows_may_be_a_one_shot_iterator(self, run, monkeypatch):
        # the windows are checked, then swept, then read for degradation
        monkeypatch.setattr(harness, "train_condition", lambda *args: None)
        monkeypatch.setattr(harness, "evaluate_with_cutout",
                            lambda model, data, window, *args: 90.0 - window)
        rows = run(iter([0, 2])).rows
        assert rows == run((0, 2)).rows
        assert ("aaa_degradation", "mean", 2.0) in rows

    @pytest.mark.parametrize("trials, message", [
        (0, "trials must be >= 1, got 0"), (-1, "trials must be >= 1, got -1"),
        (1.0, "trials must be an integer, got 1.0"),
        (True, "trials must be an integer, got True")])
    @pytest.mark.parametrize("run", [
        lambda trials: robustness_experiment(TINY_SPEC, [0], (0, 2),
                                             TINY_CONFIG, trials=trials,
                                             train_kwargs=TINY_TRAIN),
        lambda trials: robustness_sweep({}, {}, (0, 2), trials, 0)],
        ids=["robustness_experiment", "robustness_sweep"])
    def test_bad_trials_rejected_before_any_work(self, run, trials, message,
                                                 monkeypatch, generated):
        _rejected_before_any_work(lambda: run(trials), message, monkeypatch,
                                  generated)

    @pytest.mark.parametrize("seeds, message", [
        ([], "seeds must hold at least one seed"),
        ([0, 0], "seed 0 is repeated in [0, 0]"),
        ((2, 1, 2), "seed 2 is repeated in [2, 1, 2]"),
        ([0, -1], "seed must be >= 0, got -1"),
        ([0, 1.0], "seed must be an integer, got 1.0"),
        ([True], "seed must be an integer, got True"),
        (5, "seeds must be a sequence, got 5")])
    @pytest.mark.parametrize("run", [
        lambda seeds: ablation_sweep("pooling", TINY_CONFIG, TINY_SPEC,
                                     seeds, TINY_TRAIN),
        lambda seeds: robustness_experiment(TINY_SPEC, seeds, (0, 2),
                                            TINY_CONFIG, trials=1,
                                            train_kwargs=TINY_TRAIN)],
        ids=["ablation_sweep", "robustness_experiment"])
    def test_bad_seeds_rejected_before_any_work(self, run, seeds, message,
                                                monkeypatch, generated):
        _rejected_before_any_work(lambda: run(seeds), message, monkeypatch,
                                  generated)

    @pytest.mark.parametrize("n_test, message", [
        (1, "test split class 'lung_lesion' needs a positive and a negative "
            "image for its AUC, got 0 positive of 1"),
        (3, "test split class 'heart_lesion' needs a positive and a "
            "negative image for its AUC, got 0 positive of 3")])
    @pytest.mark.parametrize("run", [
        lambda spec: ablation_sweep("pooling", TINY_CONFIG, spec, [0],
                                    TINY_TRAIN),
        lambda spec: robustness_experiment(spec, [0], (0, 2), TINY_CONFIG,
                                           trials=1, train_kwargs=TINY_TRAIN)],
        ids=["ablation_sweep", "robustness_experiment"])
    def test_single_label_test_class_rejected_before_any_training(
            self, run, n_test, message, monkeypatch):
        # the labels are known only once the data is drawn, so the check
        # runs after gen_synthetic but before any cell starts
        for name in ("train", "parallel_map"):
            monkeypatch.setattr(harness, name,
                                lambda *args, name=name: pytest.fail(name))
        # its own ValueError subclass, which the CLI reports with exit 2
        with pytest.raises(harness.SingleLabelError,
                           match=f"^{re.escape(message)}$"):
            run(replace(TINY_SPEC, n_test=n_test))

    def test_check_seeds_returns_ints(self):
        seeds = check_seeds((np.int64(3), 0))
        assert seeds == [3, 0]
        assert [type(s) for s in seeds] == [int, int]

    @pytest.mark.parametrize("trials, message", [
        (0, "trials must be >= 1, got 0"),
        (1.0, "trials must be an integer, got 1.0")])
    def test_cutout_evaluation_rejects_bad_trials_first(self, trials,
                                                        message):
        # checked before the model or the data is read: no NaN from a
        # mean over no trials
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_with_cutout(None, {}, 4, trials=trials, base_seed=0)

    def test_ablation_axes_registry(self):
        assert set(ABLATION_AXES) == {"attention_level", "pooling",
                                      "mask_size", "image_size"}
        assert ABLATION_AXES["attention_level"] == ("L0", "L1", "L2", "L3")

    def test_class_names(self):
        assert CLASS_NAMES == ("lung_lesion", "heart_lesion",
                               "outside_lesion")
