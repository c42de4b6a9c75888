"""Benchmark of the anatomy_attn package, run from the repository root:

    python3 perfbench/run.py --workload train-l2 --seed 0 --seconds 15 --trace 0

Untraced runs (`--trace 0`) report the end-to-end metrics: set-up time
(median of the in-process set-up and two fresh-process set-ups) and, per
unit of work, the median wall and CPU seconds, all scaled to reference
speed by a calibration kernel, plus peak resident memory. Units repeat
until the next one would end after `--seconds`; at least one runs. Traced runs (`--trace 1`) time one untraced and one traced unit,
after a traced set-up, and report per-layer metrics from the spans that
`tracer.py` records around the package's functions.

Each unit's outputs are checked against the stored reference; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Without the package sources next to this
directory, the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tracing
from workloads import HERE, WORKLOADS, input_seed

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120

# Machine-speed calibration. On a shared VM the speed of a core drifts by up
# to 2x over minutes (contention from neighbours, not steal time), and every
# timing moves with it. A fixed kernel of numpy array work and Python
# bytecode, timed next to each unit and each set-up, tracks that drift, so
# end-to-end times are reported in reference seconds: raw seconds times
# CALIBRATION_REF_S over the kernel's time, i.e. seconds on a machine where
# the kernel takes 0.2 s (the reference VM when quiet).
CALIBRATION_REF_S = 0.2


# -- measurement helpers ------------------------------------------------------


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def calibration_seconds() -> float:
    """Wall time of the fixed calibration kernel."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 16, 16, 16))
    w = rng.standard_normal((16, 16)) * 0.25
    acc = 0.0
    for _ in range(200):
        y = np.maximum(np.einsum("oc,nchw->nohw", w, x), 0.0)
        m = y.mean(axis=(0, 2, 3), keepdims=True)
        v = ((y - m) ** 2).mean(axis=(0, 2, 3), keepdims=True)
        x = (y - m) / np.sqrt(v + 1e-5)
        p = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        x = 0.5 * x + 0.5 * p[:, :, :-2, 1:-1]
        for i in range(300):
            acc += (i * 0.5) % 3
    return time.perf_counter() - start


def tail(values: list) -> float:
    """Largest sample with at least ten samples above it, the highest
    percentile that has ten samples beyond it; the maximum when there are
    fewer than 21 samples, where that percentile would fall below the
    median."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 21 else ordered[-1]


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)),
            "ANATOMY_ATTN_THREADS": os.environ.get("ANATOMY_ATTN_THREADS",
                                                   "unset")}


def check_package() -> None:
    import anatomy_attn

    origin = Path(anatomy_attn.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"anatomy_attn imported from {origin}, "
                           f"not from {SRC}")


def identical(a, b) -> bool:
    """Bitwise equality of unit outputs: arrays, numbers, sequences and
    dataclass records."""
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            identical(getattr(a, f), getattr(b, f))
            for f in a.__dataclass_fields__)
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(identical(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return a == b


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def unit(self, wl, state):
        """Run and time one unit, then gate its outputs. Returns (outputs
        or None when the unit raised, wall seconds, CPU seconds)."""
        ops = wl.ops(state)
        self.attempted += ops
        c0, w0 = cpu_seconds(), time.perf_counter()
        try:
            out = wl.unit(state)
        except Exception as exc:  # a failed unit is reported, not fatal
            out = None
            self.fail(ops, f"unit raised {exc!r}")
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        if out is not None:
            failed, problems = wl.check(state, out)
            self.failed += failed
            self.problems += problems
        return out, wall, cpu

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)


# -- untraced run -------------------------------------------------------------


def timed_setup(wl, seed: int):
    start = time.perf_counter()
    state = wl.setup(seed)
    return time.perf_counter() - start, state


def probe_setup(workload: str, seed: int) -> tuple:
    """(set-up seconds, calibration seconds right after it) in a fresh
    interpreter, imports included."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    setup_s, calib_s = proc.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(calib_s)


def run_plain(wl, seed: int, seconds: float):
    setup_s, state = timed_setup(wl, seed)
    setups = [(setup_s, calibration_seconds())]
    check_package()
    tally = Tally()
    walls, cpus, calibs, out = [], [], [calibration_seconds()], None
    start = time.perf_counter()
    while True:
        result, wall, cpu = tally.unit(wl, state)
        calibs.append(calibration_seconds())
        walls.append(wall)
        cpus.append(cpu)
        if result is None:
            break
        out = result
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    peak = peak_rss_mb()  # before the set-up probes start children
    setups += [probe_setup(wl.name, seed) for _ in range(SETUP_PROBES)]
    # Each unit is scaled by the mean of the kernel times around it.
    scales = [2 * CALIBRATION_REF_S / (a + b)
              for a, b in zip(calibs[:-1], calibs[1:])]
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(
            t * CALIBRATION_REF_S / k for t, k in setups), "s"),
        "wall_s": (statistics.median(
            t * f for t, f in zip(walls, scales)), "s"),
        "cpu_s": (statistics.median(
            t * f for t, f in zip(cpus, scales)), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    report = {"unit": wl.unit_desc, "raw_unit_walls_s": walls,
              "raw_setups_s": [t for t, _ in setups],
              "calibration_s": calibs + [k for _, k in setups],
              f"raw_{wl.item_rate}": (wl.items(state) / wall, "1/s"),
              wl.item_rate: (wl.items(state) / metrics["wall_s"][0],
                             "1/s at reference speed")}
    if out is not None:
        report.update(wl.quality(out))
    return tally, metrics, report


# -- traced run ---------------------------------------------------------------


def run_traced(wl, seed: int):
    tally = Tally()
    state = wl.setup(seed)
    check_package()
    plain, plain_wall, _ = tally.unit(wl, state)

    tracer = tracing.Tracer()
    tracer.install()
    patched = tracer.patched_attributes
    t0 = time.perf_counter()
    try:
        traced_state = wl.setup(seed)
        u0 = time.perf_counter()
        traced, traced_wall, _ = tally.unit(wl, traced_state)
    finally:
        broken = tracer.uninstall()
    if broken:
        tally.fail(wl.ops(state), f"wrappers left in place: {broken}")
    if plain is not None and traced is not None \
            and not identical(plain, traced):
        tally.fail(wl.ops(state), "traced outputs differ from untraced")

    metrics = layer_metrics(wl, tracer, u0, traced_wall, plain_wall)
    write_spans(tracer, wl.name, seed, t0)
    report = {"spans": len(tracer.spans), "patched_attributes": patched,
              "traced_unit_s": traced_wall, "untraced_unit_s": plain_wall}
    return tally, metrics, report, tracer


def layer_metrics(wl, tracer, u0: float, traced_wall: float,
                  plain_wall: float):
    spans = tracer.spans
    self_s = tracer.self_times()
    metrics = {}
    for name in tracing.SPAN_NAMES:
        idx = [i for i, s in enumerate(spans) if s[0] == name]
        metrics[f"{name}.calls"] = (len(idx), "count")
        metrics[f"{name}.self_s"] = (sum(self_s[i] for i in idx), "s")
        if name in tracing.LATENCY_SPANS:
            ms = [(spans[i][2] - spans[i][1]) * 1e3 for i in idx] or [0.0]
            metrics[f"{name}.ms_p50"] = (statistics.median(ms), "ms")
            metrics[f"{name}.ms_tail"] = (tail(ms), "ms")

    graphs = [g for g in tracer.graphs if g[0] == wl.graph_scope]
    metrics["tensor.graph_nodes"] = (sum(g[1] for g in graphs), "count")
    metrics["tensor.graph_mb"] = (sum(g[2] for g in graphs) / 1e6, "MB")

    cells = [s for s in spans if s[0] == "harness.train_condition"]
    sweeps = [s for s in spans if s[0] == "harness.ablation_sweep"]
    busy = 0.0
    if cells and sweeps:
        workers = len({s[4] for s in cells})
        sweep_wall = sum(s[2] - s[1] for s in sweeps)
        busy = sum(s[2] - s[1] for s in cells) / (sweep_wall * workers)
    metrics["harness.sweep.busy_share"] = (busy, "share")

    reports = tracer.reports
    metrics["gradcheck.skipped_kinks"] = (
        sum(r.skipped_kinks for r in reports), "count")
    metrics["gradcheck.max_rel_err"] = (
        float(max((r.max_rel_err for r in reports), default=0.0)), "ratio")

    main = threading.get_ident()
    covered = sum(self_s[i] for i, s in enumerate(spans)
                  if s[4] == main and s[1] >= u0)
    metrics["trace.coverage"] = (covered / traced_wall, "share")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics


def write_spans(tracer, workload: str, seed: int, t0: float) -> None:
    """Spans as JSON lines [name, start_s, end_s, parent, thread], with
    times relative to the traced set-up."""
    OUT.mkdir(exist_ok=True)
    threads = {}
    path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for name, start, end, parent, tid in tracer.spans:
            thread = threads.setdefault(tid, len(threads))
            fh.write(json.dumps([name, round(start - t0, 9),
                                 round(end - t0, 9), parent, thread]) + "\n")


# -- entry point --------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "anatomy_attn" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    if args.setup_probe:
        setup_s, _ = timed_setup(wl, args.seed)
        check_package()
        print(repr(setup_s), repr(calibration_seconds()))
        return 0

    if args.trace:
        tally, metrics, report, _ = run_traced(wl, args.seed)
    else:
        tally, metrics, report = run_plain(wl, args.seed, args.seconds)

    print(f"workload {wl.name} seed {args.seed} "
          f"(input seed {input_seed(args.seed)})")
    print("environment " + json.dumps(environment()))
    for key, value in report.items():
        if isinstance(value, tuple):
            print(f"  {key} {value[0]!r} {value[1]}")
        else:
            print(f"  {key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    for problem in tally.problems[:20]:
        print(f"FAILED: {problem}")
    failed = min(tally.failed, tally.attempted)  # a unit can fail twice
    result = {
        "correct": failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
