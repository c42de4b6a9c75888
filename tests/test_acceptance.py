"""Acceptance suite: the package's headline guarantees, end to end.

Each criterion prints a single PASS/FAIL line (run with `pytest -s` to see
them as they complete). The heavy trainings are shared across criteria via
session-scoped fixtures and honor ANATOMY_ATTN_THREADS.
"""

import os
import resource
import sys
from dataclasses import replace

import numpy as np
import pytest

from anatomy_attn.harness import (CLASS_NAMES, SyntheticSpec, auc,
                                  evaluate_with_cutout, gen_seg_batches,
                                  gen_synthetic, parallel_map,
                                  robustness_sweep, train_condition,
                                  _test_aucs)
from anatomy_attn.model import ModelConfig, bce_loss
from anatomy_attn.seg import (CycleNets, binarize_masks, pixel_ce,
                              train_cyclegan_toy)
from anatomy_attn.tensor import Tensor

SEEDS = (0, 1, 2)

os.environ.setdefault("ANATOMY_ATTN_THREADS", str(min(8, os.cpu_count() or 1)))


def _cpu_seconds():
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _line(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    # sys.__stdout__ bypasses pytest's capture so the line always shows
    print(f"{status}  criterion {num}: {desc}{suffix}",
          file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {desc}{suffix}"


@pytest.fixture(scope="session")
def spec():
    return SyntheticSpec()


@pytest.fixture(scope="session")
def trained(spec):
    """One trained model per (level/fusion, seed), shared by criteria 7-8.

    Returns {(name, seed): (model, data)} with the stopwatch time for the
    criterion-7 conditions."""
    base = ModelConfig(image_size=spec.image_size)
    conditions = {
        "L0": replace(base, attention_level="L0", fusion="none"),
        "L1": replace(base, attention_level="L1"),
        "L2": replace(base, attention_level="L2"),
        "hardmask": replace(base, fusion="hardmask"),
    }
    def run(cells):
        models = parallel_map(lambda cell: train_condition(
            conditions[cell[0]], data, cell[1]), cells)
        return {cell: (model, data) for cell, model in zip(cells, models)}

    # The runtime budget applies to the level comparison (criterion 7); the
    # hard-mask baseline is trained separately for criterion 8.
    # The budgets are stated in CPU time, which is immune to other load on
    # the host. The cells run in parallel_map's worker processes, which are
    # joined before it returns, so their CPU shows in RUSAGE_CHILDREN.
    # Every cell trains on the one dataset of `spec`, generated inside the
    # timed window; the workers inherit it and send back only their model.
    level_cells = [(n, s) for n in ("L0", "L1", "L2") for s in SEEDS]
    t0 = _cpu_seconds()
    data = gen_synthetic(spec)
    results = run(level_cells)
    results["elapsed"] = _cpu_seconds() - t0
    results.update(run([("hardmask", s) for s in SEEDS]))
    return results


class TestAcceptance:
    def test_01_gradient_suite(self):
        from anatomy_attn.suite import run_gradcheck_suite
        # the targets run in parallel_map's workers when
        # ANATOMY_ATTN_THREADS > 1; their CPU shows in RUSAGE_CHILDREN
        t0 = _cpu_seconds()
        reports = run_gradcheck_suite(tol=1e-4)
        elapsed = _cpu_seconds() - t0
        worst = max(r.max_rel_err for r in reports)
        failed = [r.name for r in reports if not r.passed]
        ok = not failed and elapsed < 120.0
        _line(1, "all ops and model configs pass finite-difference checks",
              ok, f"max_rel_err={worst:.2e}, {elapsed:.0f}s cpu"
              + (f", failed={failed}" if failed else ""))

    def test_02_attention_identities(self):
        from anatomy_attn.attention import couple_attention
        a_le, a_he, a_bks = couple_attention(
            Tensor([[[np.log(2.0)]], [[0.0]], [[0.0]]])).data
        errs = [abs(float(a_le.item()) - 2 / 3),
                abs(float(a_he.item()) - 1 / 2),
                abs(float(a_bks.item()) - 5 / 12)]
        rng = np.random.default_rng(0)
        for _ in range(100):
            t1, t2, t3 = (rng.normal(size=(2, 4)) for _ in range(3))
            le, he, bks = couple_attention(Tensor(np.stack((t1, t2, t3)))).data
            errs.append(np.abs(bks - ((1 - le) + (1 - he)) / 2).max())
        _line(2, "attention coupling identities hold to 1e-12",
              max(errs) <= 1e-12, f"max_err={max(errs):.2e}")

    def test_03_pwap_equals_mean_at_init(self):
        from anatomy_attn.attention import PwapParams, pwap
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(50):
            feat = Tensor(rng.normal(size=(2, 5, 6, 6)))
            pooled, _ = pwap(feat, PwapParams.init(5))
            worst = max(worst, np.abs(pooled.data
                                      - feat.data.mean(axis=(2, 3))).max())
        _line(3, "zero-initialized PWAP equals mean pooling to 1e-9",
              worst <= 1e-9, f"max_err={worst:.2e}")

    def test_04_binarization_matches_brute_force(self):
        from anatomy_attn.ops import softmax_channels
        rng = np.random.default_rng(2)
        ok = True
        for _ in range(1000):
            logits = rng.normal(size=(1, 3, 8, 8))
            if rng.random() < 0.1:
                logits[:, :, :4] = 0.0  # exercise the tie-breaking path
            masks = binarize_masks(Tensor(logits))
            probs = softmax_channels(Tensor(logits)).data[0]
            cls = np.zeros((8, 8), dtype=int)
            for i in range(8):
                for j in range(8):
                    best, best_p = 0, probs[0, i, j]
                    for k in (1, 2):
                        if probs[k, i, j] > best_p:
                            best, best_p = k, probs[k, i, j]
                    cls[i, j] = best
            if not (np.array_equal(masks.lung[0, 0], cls == 1)
                    and np.array_equal(masks.heart[0, 0], cls == 2)):
                ok = False
                break
        _line(4, "mask binarization matches brute-force argmax on 1000 "
                 "instances", ok)

    def test_05_auc_matches_brute_force(self):
        rng = np.random.default_rng(3)
        ok = True
        for _ in range(1000):
            n = int(rng.integers(2, 16))
            labels = rng.integers(0, 2, size=n).astype(float)
            if labels.sum() in (0, n):
                labels[0] = 1.0 - labels[0]
            scores = rng.integers(0, 6, size=n).astype(float)
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            brute = float(sum((p > q) + 0.5 * (p == q)
                              for p in pos for q in neg)
                          / (len(pos) * len(neg)) * 100.0)
            if abs(auc(scores, labels) - brute) > 1e-9:
                ok = False
                break
            # strictly monotone transform must not move the value
            if abs(auc(2.0 * scores + 1.0, labels)
                   - auc(scores, labels)) > 1e-9:
                ok = False
                break
        _line(5, "AUC matches the pairwise oracle and monotone-transform "
                 "invariance on 1000 instances", ok)

    def test_06_seg_toy_loss_halves(self):
        def run(seed):
            nets = CycleNets.init(width=8, seed=seed)
            batches = gen_seg_batches(size=16, n_annotated=4,
                                      n_unannotated=4, seed=seed)
            _, curves = train_cyclegan_toy(batches, nets, steps=500, lr=3e-3)
            by_step = {row[0]: row[1] for row in curves}
            return by_step[500] / by_step[10]
        t0 = _cpu_seconds()
        ratios = parallel_map(run, list(SEEDS))
        elapsed = _cpu_seconds() - t0
        med = float(np.median(ratios))
        _line(6, "supervised mask loss at step 500 is <= 50% of step 10 "
                 "(median of 3 seeds)", med <= 0.5,
              f"ratio={med:.3f}, {elapsed:.0f}s cpu")

    def test_07_attention_beats_baseline(self, trained):
        def median_auc(name):
            return float(np.median([
                np.mean(_test_aucs(model, data, data["test_lung"],
                                   data["test_heart"]))
                for model, data in (trained[(name, s)] for s in SEEDS)]))

        l0, l1, l2 = (median_auc(n) for n in ("L0", "L1", "L2"))
        elapsed = trained["elapsed"]
        ok = l2 >= l0 + 3.0 and l2 >= l1 and elapsed < 900.0
        _line(7, "two-head attention >= baseline + 3.0 AUC and >= one-head",
              ok, f"L0={l0:.2f} L1={l1:.2f} L2={l2:.2f}, {elapsed:.0f}s cpu")

    def test_08_cutout_degradation(self, trained, spec):
        windows = (0, 2, 4, 6, 8, 10, 12)
        degr = {"aaa": [], "hardmask": []}
        zero_exact = True
        for seed in SEEDS:
            l2_model, data = trained[("L2", seed)]
            hard_model, _ = trained[("hardmask", seed)]
            per = {}
            for name, model in (("aaa", l2_model), ("hardmask", hard_model)):
                per[name] = {w: evaluate_with_cutout(
                    model, data, w, trials=3, base_seed=seed)
                    for w in windows}
                # window 0 must reproduce the uncorrupted evaluation exactly
                ref = evaluate_with_cutout(model, data, 0, trials=1,
                                           base_seed=seed)
                if per[name][0] != ref:
                    zero_exact = False
            for name in degr:
                degr[name].append(per[name][0] - per[name][windows[-1]])
        aaa_med = float(np.median(degr["aaa"]))
        hard_med = float(np.median(degr["hardmask"]))
        ok = aaa_med <= hard_med and zero_exact
        _line(8, "attention degrades no more than hard masking at the "
                 "largest cutout; window 0 is exact",
              ok, f"aaa_drop={aaa_med:.2f} hardmask_drop={hard_med:.2f}")

    def test_09_csv_reruns_byte_identical(self, trained, spec, tmp_path):
        model, data = trained[("L2", 0)]
        paths = []
        for i in range(2):
            table = robustness_sweep({"aaa": model}, data, (0, 4),
                                     trials=2, base_seed=0)
            p = tmp_path / f"robustness_{i}.csv"
            table.write_csv(p)
            paths.append(p)
        ok = paths[0].read_bytes() == paths[1].read_bytes()
        _line(9, "sweep CSV output is byte-identical across reruns", ok)

    def test_10_loss_anchors(self):
        bce = float(bce_loss(Tensor(np.full((4, 3), 0.5)),
                             np.ones((4, 3))).data)
        bce_err = abs(bce - np.log(2.0))
        rng = np.random.default_rng(4)
        onehot = np.eye(3)[rng.integers(0, 3, size=(2, 5, 5))]
        onehot = onehot.transpose(0, 3, 1, 2).astype(float)
        pce = float(pixel_ce(Tensor(onehot),
                             Tensor(np.full((2, 3, 5, 5), 1 / 3))).data)
        pce_err = abs(pce - 25 * np.log(3.0))
        ok = bce_err <= 1e-12 and pce_err <= 1e-9
        _line(10, "BCE(0.5)=ln 2 and uniform pixel-CE = #pixels*ln 3",
              ok, f"bce_err={bce_err:.1e} pce_err={pce_err:.1e}")
