"""The four benchmark workloads and their correctness gates.

Each workload has a timed set-up, a unit of work that the run repeats, the
number of operations one unit attempts, and a gate that compares a unit's
outputs with the reference values in `reference.json` /
`reference_probs.npz`. The package is imported inside `setup`, so import
time counts as set-up time.

Inputs come from `--seed`: the reference holds values for the input seeds
0..REFERENCE_SEEDS-1 and a run uses input seed `seed % REFERENCE_SEEDS`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_JSON = HERE / "reference.json"
REFERENCE_PROBS = HERE / "reference_probs.npz"
REFERENCE_SEEDS = 8

# Tolerances of the gates: they admit reduction-order rounding, as from a
# fused op, and nothing looser. Forward-only outputs move by ~1e-16 under
# such rounding. Training amplifies it: Adam turns gradient components
# that are zero up to rounding into full-size steps, so 30 steps of
# training moved the epoch loss by up to 1.8e-5 (relative) and an AUC by
# up to 0.12 points when batch_norm divided by a reciprocal product and
# mean divided instead of multiplying. Doubling batch_norm's epsilon, the
# smallest real change tried, moved the loss by >= 2.4e-3 and an AUC by
# >= 1.26 points, and the probabilities by 2.6e-8.
LOSS_RTOL = 2e-4
AUC_ATOL = 0.5
PROB_ATOL = 1e-12

SWEEP_THREADS = "2"


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def _reference(workload: str, seed: int):
    ref = json.loads(REFERENCE_JSON.read_text())["workloads"][workload]
    return ref[str(input_seed(seed))]


def _close(a: float, b: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


class TrainL2:
    name = "train-l2"
    why = ("Single-worker training of the headline L2/AAA/PWAP model: "
           "forward, backward and Adam with train-mode batch norm.")
    unit_desc = "one epoch of model.train: 480 images, 30 steps of batch 16"
    graph_scope = "model.train"
    item_rate = "train_samples_per_s"
    epochs, lr, batch = 1, 3e-3, 16

    def setup(self, seed: int) -> dict:
        from anatomy_attn import harness
        from anatomy_attn.model import ModelConfig

        s = input_seed(seed)
        data = harness.gen_synthetic(harness.SyntheticSpec(seed=s))
        return {"seed": s, "data": data,
                "config": ModelConfig(image_size=32)}

    def unit(self, state: dict):
        from anatomy_attn import model

        net = model.ToyModel(state["config"], seed=state["seed"])
        _, history = model.train(net, state["data"], self.epochs, self.lr,
                                 self.batch, state["seed"])
        return history

    def ops(self, state: dict) -> int:
        n = len(state["data"]["train_images"])
        steps = sum(1 for lo in range(0, n, self.batch)
                    if min(self.batch, n - lo) >= 2)
        return steps * self.epochs

    def items(self, state: dict) -> int:
        return len(state["data"]["train_images"]) * self.epochs

    def check(self, state: dict, history) -> tuple:
        bad = self._mismatches(state, history)
        return (self.ops(state) if bad else 0), bad

    def _mismatches(self, state: dict, history) -> list:
        ref = _reference(self.name, state["seed"])
        if len(history) != len(ref["loss"]):
            return [f"{len(history)} epochs, reference has {len(ref['loss'])}"]
        bad = []
        for (epoch, loss, val_auc), ref_loss, ref_auc in zip(
                history, ref["loss"], ref["val_auc"]):
            if not _close(loss, ref_loss, rtol=LOSS_RTOL):
                bad.append(f"epoch {epoch} loss {loss!r} != {ref_loss!r}")
            if not _close(val_auc, ref_auc, atol=AUC_ATOL):
                bad.append(f"epoch {epoch} val_auc {val_auc!r} != {ref_auc!r}")
        return bad

    def reference(self, history) -> dict:
        return {"loss": [h[1] for h in history],
                "val_auc": [h[2] for h in history]}

    def quality(self, history) -> dict:
        return {"val_auc": (max(h[2] for h in history), "%")}


class PredictL2:
    name = "predict-l2"
    why = ("Forward-only eval-mode inference of the same model after a "
           "checkpoint round trip, with per-batch mask resize and validation.")
    unit_desc = "one model.predict pass over 512 images in batches of 32"
    graph_scope = "model.predict"
    item_rate = "predict_images_per_s"
    n_images, batch, model_seed = 512, 32, 0

    def setup(self, seed: int) -> dict:
        from anatomy_attn import harness, model

        s = input_seed(seed)
        data = harness.gen_synthetic(harness.SyntheticSpec(
            seed=s, n_train=0, n_val=0, n_test=self.n_images))
        net = model.ToyModel(model.ModelConfig(image_size=32),
                             seed=self.model_seed)
        ckpt = HERE / "out" / f"ckpt-{os.getpid()}"
        try:
            model.save_checkpoint(net, ckpt)
            net = model.load_checkpoint(ckpt)
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)
        return {"seed": s, "model": net, "images": data["test_images"],
                "lung": data["test_lung"], "heart": data["test_heart"],
                "labels": data["test_labels"]}

    def unit(self, state: dict):
        from anatomy_attn import model

        return model.predict(state["model"], state["images"], state["lung"],
                             state["heart"], batch=self.batch)

    def ops(self, state: dict) -> int:
        return math.ceil(len(state["images"]) / self.batch)

    def items(self, state: dict) -> int:
        return len(state["images"])

    def check(self, state: dict, probs) -> tuple:
        import numpy as np

        with np.load(REFERENCE_PROBS) as ref_file:
            ref = ref_file[f"seed{state['seed']}"]
        if probs.shape != ref.shape:
            return self.ops(state), [
                f"probabilities shape {probs.shape} != {ref.shape}"]
        err = np.abs(probs - ref)
        bad_batches = {int(i) // self.batch
                       for i in np.flatnonzero(err.max(axis=1) > PROB_ATOL)}
        return len(bad_batches), [
            f"batch {b}: probabilities differ from the reference by up to "
            f"{err[b * self.batch:(b + 1) * self.batch].max():.3e}"
            for b in sorted(bad_batches)]

    def reference(self, probs):
        return probs

    def quality(self, probs) -> dict:
        return {}


class Gradcheck:
    name = "gradcheck"
    why = ("The full default gradcheck suite: thousands of tiny-graph "
           "forward evaluations where per-node Python overhead dominates.")
    unit_desc = "one suite.run_gradcheck_suite() call: 35 targets"
    graph_scope = "gradcheck.grad_check"
    item_rate = "targets_per_s"
    n_targets = 35

    def setup(self, seed: int) -> dict:
        import anatomy_attn.suite  # noqa: F401  (import is set-up work)

        # The suite fixes its own inputs; coordinate sampling follows the
        # interpreter's string-hash salt, which is deliberately not pinned.
        return {}

    def unit(self, state: dict):
        from anatomy_attn import suite

        return suite.run_gradcheck_suite()

    def ops(self, state: dict) -> int:
        return self.n_targets

    def items(self, state: dict) -> int:
        return self.n_targets

    def check(self, state: dict, reports) -> tuple:
        failing = [r for r in reports if not r.passed]
        bad = [f"{r.name}: max_rel_err {r.max_rel_err:.3e} > tol {r.tol:g}"
               for r in failing]
        missing = max(0, self.n_targets - len(reports))
        if len(reports) != self.n_targets:
            bad.append(f"{len(reports)} targets, expected {self.n_targets}")
        return len(failing) + missing, bad

    def reference(self, reports):
        return None

    def quality(self, reports) -> dict:
        return {"max_rel_err": (float(max(r.max_rel_err for r in reports)),
                                "ratio")}


class SweepLevels:
    name = "sweep-levels"
    why = ("Attention-level ablation on two harness threads: four unequal "
           "cells that each regenerate data, so the slowest cell sets wall.")
    unit_desc = ("one harness.ablation_sweep('attention_level') call: "
                 "4 cells of 1 epoch, 1 seed, ANATOMY_ATTN_THREADS=2")
    graph_scope = "model.train"
    item_rate = "cells_per_s"
    n_cells = 4

    def setup(self, seed: int) -> dict:
        os.environ["ANATOMY_ATTN_THREADS"] = SWEEP_THREADS
        from anatomy_attn import harness
        from anatomy_attn.model import ModelConfig

        s = input_seed(seed)
        return {"seed": s, "config": ModelConfig(image_size=32),
                "spec": harness.SyntheticSpec(seed=s)}

    def unit(self, state: dict):
        from anatomy_attn import harness

        table = harness.ablation_sweep(
            "attention_level", state["config"], state["spec"],
            [state["seed"]], {"epochs": 1})
        return table.rows

    def ops(self, state: dict) -> int:
        return self.n_cells

    def items(self, state: dict) -> int:
        return self.n_cells

    def check(self, state: dict, rows) -> tuple:
        ref = _reference(self.name, state["seed"])
        if [r[:2] for r in rows] != [tuple(r[:2]) for r in ref]:
            return self.n_cells, [f"table rows {[r[:2] for r in rows]} != "
                                  f"{[tuple(r[:2]) for r in ref]}"]
        bad = [(c, n, v, r) for (c, n, v), (_, _, r) in zip(rows, ref)
               if not _close(v, r, atol=AUC_ATOL)]
        return len({c for c, *_ in bad}), [
            f"{c} {n}: test AUC {v!r} != {r!r}" for c, n, v, r in bad]

    def reference(self, rows):
        return [list(r) for r in rows]

    def quality(self, rows) -> dict:
        means = [v for _, n, v in rows if n == "mean"]
        return {"test_auc": (sum(means) / len(means), "%")}


WORKLOADS = {w.name: w for w in (TrainL2(), PredictL2(), Gradcheck(),
                                 SweepLevels())}
