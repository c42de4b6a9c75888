"""Self-test of the benchmark's traced path, run from the repository root:

    python3 perfbench/selftest.py [workload ...]

For each workload (all four by default) it runs the traced path of
`run.py` and checks that
- the traced and untraced units give bit-identical outputs, and both pass
  the correctness gate;
- every module attribute and class attribute of the package is the same
  object after the tracer is removed as before it was installed;
- the self times of the spans on the main thread sum to within 10% of the
  traced unit's wall time;
- every span's parent runs on the same thread and encloses it, so the
  harness's worker threads cannot corrupt each other's span stacks;
- `BENCHMARK.json` lists exactly the per-layer metrics, with their units,
  that a traced run reports.
Exits 0 when every check holds.
"""

from __future__ import annotations

import importlib
import json
import sys

import run
import tracer as tracing
from workloads import WORKLOADS

COVERAGE_TOLERANCE = 0.10


def namespaces() -> dict:
    """Identity snapshot of every package module and class namespace."""
    snap = {}
    for mod_name in tracing.MODULES:
        mod = importlib.import_module(f"anatomy_attn.{mod_name}")
        for key, value in vars(mod).items():
            snap[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    snap[(mod_name, key, attr)] = member
    for key, value in vars(sys.modules["anatomy_attn"]).items():
        snap[("anatomy_attn", key)] = value
    return snap


def nesting_errors(spans) -> list:
    errors = []
    for i, (name, start, end, parent, tid) in enumerate(spans):
        if parent is None:
            continue
        p_name, p_start, p_end, _, p_tid = spans[parent]
        if p_tid != tid or not p_start <= start <= end <= p_end:
            errors.append(f"span {i} {name} not inside parent {p_name}")
    return errors


def check(name: str) -> list:
    before = namespaces()
    tally, metrics, _, tracer = run.run_traced(WORKLOADS[name], 0)
    after = namespaces()
    errors = [f"gate: {p}" for p in tally.problems]
    changed = [k for k in before if after.get(k) is not before[k]]
    errors += [f"not restored: {'.'.join(k)}" for k in changed]
    coverage = metrics["trace.coverage"][0]
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        errors.append(f"main-thread self times cover {coverage:.3f} of the "
                      "traced wall time")
    errors += nesting_errors(tracer.spans)
    declared = {m["name"]: m["unit"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    reported = {k: unit for k, (_, unit) in metrics.items()}
    if declared != reported:
        errors.append(f"BENCHMARK.json per_layer differs from the traced "
                      f"metrics: {sorted(set(declared.items()) ^ set(reported.items()))}")
    return errors


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    failures = 0
    for name in names:
        errors = check(name)
        failures += bool(errors)
        print(f"{name}: {'ok' if not errors else 'FAILED'}")
        for e in errors[:20]:
            print(f"  {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
