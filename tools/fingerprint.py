"""Fingerprint what the package computes, to show what a change moved.

    python tools/fingerprint.py                 # JSON of every entry
    python tools/fingerprint.py --against REV   # only the entries that differ

Each entry is a sha256 digest with one readable number beside it (a loss,
an AUC, an error), so a moved digest shows how far it moved:

- the `train-l2`, `predict-l2` and `sweep-levels` unit outputs at input
  seeds 0-7, each through the workload's own `setup` and `unit` in
  `perfbench/workloads.py`, which is imported and left as it is;
- every array `gen_synthetic` returns for the default `SyntheticSpec` and
  for the `predict-l2` spec (`n_train=0, n_val=0, n_test=512`) at seeds
  0-7, and for the default spec at image sizes 24 and 48, so the arrays
  no workload reads (`*_lung_true`, `*_heart_true`, `*_lesions`) are
  covered too; and the first `gen_seg_batches` batch at the `seg-toy`
  defaults;
- every `run_gradcheck_suite()` report (name, `max_rel_err.hex()`, kinks,
  coordinates probed);
- `history.csv`, `checkpoint/weights.bin` and `config.ini` from
  `anatomy-attn --set train.epochs=2 train`;
- `robustness.csv` from `anatomy-attn --set train.epochs=1 --set
  robustness.windows=0,4 --set robustness.trials=1 robustness --seeds
  0,1`, the one entry that reaches `robustness_experiment`;
- the first 50 rows of the `seg-toy` curves (`--set seg.steps=50`).

Floats are hashed through `float.hex()` and arrays through their bytes, so
equal digests mean bit-identical outputs. `--against REV` fingerprints the
`src` tree of REV, extracted with `git archive` into a temporary
directory, against this checkout's `src`, both with the workloads of this
checkout. Each side runs in its own interpreter with `PYTHONHASHSEED=0`.
Digests that touch BLAS can differ between machines, since OpenBLAS picks
its kernels per CPU: compare two trees on one machine, and pin no digest.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
INPUT_SEEDS = range(8)
SEG_ROWS = 50


def digest(obj) -> str:
    """sha256 of `obj`: bytes as they are, arrays by shape, dtype and
    bytes, floats by their `.hex()`, lists and tuples item by item, and
    anything else by `repr`."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, bytes):
            h.update(x)
        elif isinstance(x, np.ndarray):
            h.update(f"array{x.shape}{x.dtype.str}:".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (float, np.floating)):
            h.update(float(x).hex().encode())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
                h.update(b",")
            h.update(b"]")
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _entry(obj, value) -> dict:
    return {"sha256": digest(obj), "value": value}


def _workload_entries(workloads) -> dict:
    readable = {
        "train-l2": lambda history: history[-1][1],  # last epoch's loss
        "predict-l2": lambda probs: float(probs.mean()),
        "sweep-levels": lambda rows: float(np.mean(
            [v for _, n, v in rows if n == "mean"])),  # mean test AUC
    }
    entries = {}
    for name, value in readable.items():
        workload = workloads.WORKLOADS[name]
        for seed in INPUT_SEEDS:
            out = workload.unit(workload.setup(seed))
            entries[f"{name}/seed{seed}"] = _entry(out, value(out))
    return entries


def _generator_entries() -> dict:
    from anatomy_attn.harness import (SyntheticSpec, gen_seg_batches,
                                      gen_synthetic)

    specs = {**{f"default-seed{seed}": {"seed": seed}
                for seed in INPUT_SEEDS},
             **{f"predict-seed{seed}": {"seed": seed, "n_train": 0,
                                        "n_val": 0, "n_test": 512}
                for seed in INPUT_SEEDS},
             **{f"size{size}": {"image_size": size} for size in (24, 48)}}
    entries = {}
    for name, fields in specs.items():
        for key, array in gen_synthetic(SyntheticSpec(**fields)).items():
            entries[f"gen_synthetic/{name}/{key}"] = _entry(
                array, float(array.sum()))
    batch = next(gen_seg_batches(size=16, n_annotated=8, n_unannotated=8,
                                 seed=0))
    arrays = [batch.annotated_cxr.data, batch.annotated_masks.data,
              batch.unannotated_cxr.data]
    entries["gen_seg_batches/batch1"] = _entry(arrays,
                                               float(arrays[0].sum()))
    return entries


def _gradcheck_entries() -> dict:
    from anatomy_attn.suite import run_gradcheck_suite

    return {f"gradcheck/{r.name}": _entry(
        (r.name, r.max_rel_err.hex(), r.skipped_kinks,
         getattr(r, "probed", None)),  # older reports do not count probes
        r.max_rel_err)
        for r in run_gradcheck_suite()}


def _cli(args: list, out: Path) -> None:
    from anatomy_attn import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--out", str(out), *args])
    if code:
        raise RuntimeError(f"anatomy-attn {' '.join(args)} exited {code}")


def _cli_entries(workdir: Path) -> dict:
    _cli(["--set", "train.epochs=2", "train"], workdir / "train")
    history = (workdir / "train" / "history.csv").read_bytes()
    weights = (workdir / "train" / "checkpoint" / "weights.bin").read_bytes()
    config = (workdir / "train" / "config.ini").read_bytes()
    last = list(csv.reader(io.StringIO(history.decode())))[-1]
    _cli(["--set", "train.epochs=1", "--set", "robustness.windows=0,4",
          "--set", "robustness.trials=1", "robustness", "--seeds", "0,1"],
         workdir / "robustness")
    robustness = (workdir / "robustness" / "robustness.csv").read_bytes()
    robust_last = list(csv.reader(io.StringIO(robustness.decode())))[-1]
    _cli(["--set", f"seg.steps={SEG_ROWS}", "seg-toy"], workdir / "seg")
    with open(workdir / "seg" / "seg_curves.csv", newline="") as fh:
        rows = list(csv.reader(fh))[:SEG_ROWS + 1]  # the header, then rows
    return {
        "cli-train/history.csv": _entry(history, float(last[1])),
        "cli-train/weights.bin": _entry(weights, len(weights)),
        "cli-train/config.ini": _entry(config, len(config)),
        "cli-robustness/robustness.csv": _entry(robustness,
                                                float(robust_last[-1])),
        f"seg-toy/rows1-{SEG_ROWS}": _entry(rows, float(rows[-1][-1])),
    }


def collect(src: Path) -> dict:
    """Every entry, computed by the package under `src`. A section that
    raises prints its traceback and becomes one entry holding the error,
    so an old tree still yields the rest."""
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # leave no cache under perfbench/
    import anatomy_attn
    import workloads

    package = Path(anatomy_attn.__file__).resolve().parent
    if package.parent != src.resolve():
        raise RuntimeError(f"imported anatomy_attn from {package}, "
                           f"not from {src}")
    entries = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, section in (
                ("workloads", lambda: _workload_entries(workloads)),
                ("generator", _generator_entries),
                ("gradcheck", _gradcheck_entries),
                ("cli", lambda: _cli_entries(Path(workdir)))):
            try:
                entries.update(section())
            except Exception as exc:  # reported, and the rest still runs
                traceback.print_exc()
                entries[f"{name}/error"] = {"sha256": None,
                                            "value": f"{type(exc).__name__}: "
                                                     f"{exc}"}
    return entries


def fingerprint(src: Path) -> dict:
    """`collect(src)` in a fresh interpreter with a fixed string-hash
    salt, so that each tree imports only its own package."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, __file__, "--src", str(src)],
                         env=env, check=True, stdout=subprocess.PIPE,
                         text=True)
    return json.loads(out.stdout)


def differences(ours: dict, theirs: dict, rev: str) -> dict:
    """The entries whose digests differ, that only one side has, or that
    hold an error."""
    def sha(entries, name):
        return (entries.get(name) or {}).get("sha256")

    names = list(ours) + [name for name in theirs if name not in ours]
    return {name: {"tree": ours.get(name), rev: theirs.get(name)}
            for name in names
            if sha(ours, name) is None or sha(ours, name) != sha(theirs, name)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="print only the entries that differ from the "
                             "src tree of this git revision")
    parser.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.src is not None:
        print(json.dumps(collect(args.src)))
        return 0
    ours = fingerprint(ROOT / "src")
    if args.against is None:
        print(json.dumps(ours, indent=1))
        return 0
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", args.against,
         "src"], check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        theirs = fingerprint(Path(tmp) / "src")
    diff = differences(ours, theirs, args.against)
    print(json.dumps(diff, indent=1))
    print(f"{len(diff)} of {len(set(ours) | set(theirs))} entries differ",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
