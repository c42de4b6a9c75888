"""Regenerate the correctness references of the benchmark:

    python3 perfbench/make_reference.py

Runs one unit of each checked workload for every input seed and writes
`reference.json` (training losses and validation AUCs, sweep tables) and
`reference_probs.npz` (prediction probabilities). Only regenerate when a
change is meant to alter the package's outputs.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run
from workloads import (AUC_ATOL, LOSS_RTOL, PROB_ATOL, REFERENCE_JSON,
                       REFERENCE_PROBS, REFERENCE_SEEDS, WORKLOADS)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    env = run.environment()
    refs, probs = {}, {}
    for name in ("train-l2", "predict-l2", "sweep-levels"):
        wl = WORKLOADS[name]
        refs[name] = {}
        for seed in range(REFERENCE_SEEDS):
            state = wl.setup(seed)
            out = wl.reference(wl.unit(state))
            if name == "predict-l2":
                probs[f"seed{seed}"] = out
            else:
                refs[name][str(seed)] = out
            print(name, seed, flush=True)
    run.check_package()
    del refs["predict-l2"]
    REFERENCE_JSON.write_text(json.dumps({
        "environment": env,
        "tolerances": {"loss_rtol": LOSS_RTOL, "prob_atol": PROB_ATOL,
                       "auc_atol": AUC_ATOL},
        "workloads": refs}, indent=1) + "\n")
    np.savez_compressed(REFERENCE_PROBS, **probs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
