"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradCheckReport:
    name: str
    max_rel_err: float
    tol: float
    per_input: list = field(default_factory=list)
    skipped_kinks: int = 0
    probed: int = 0             # coordinates compared, skipped kinks included

    @property
    def passed(self) -> bool:
        """Within tol, on at least one coordinate that was compared and
        not skipped as a kink."""
        return (self.probed > self.skipped_kinks
                and self.max_rel_err <= self.tol)

    @property
    def margin(self) -> float:
        """tol / max_rel_err: > 1 passes, and larger is safer (inf at 0)."""
        return self.tol / self.max_rel_err if self.max_rel_err else np.inf


# Central-difference step: its truncation error O(_EPS^2) and the rounding
# error O(1e-16 / _EPS) of an fp64 difference both stay far below tol.
_EPS = 1e-5

# Relative disagreement between two finite-difference estimates above which
# a coordinate is treated as sitting on a kink (ReLU/max/clamp): independent
# estimates agree to ~O(_EPS) on smooth coordinates and to O(1) on kinks.
_KINK_DISAGREEMENT = 1e-3


def _rel_err(a: float, n: float) -> float:
    """|a - n| / max(1, |a|, |n|), or inf if either is not finite."""
    if not (math.isfinite(a) and math.isfinite(n)):
        return math.inf
    return abs(a - n) / max(1.0, abs(a), abs(n))


def grad_check(f, inputs, tol: float = 1e-4,
               name: str = "f", max_coords: int | list | None = None,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare reverse-mode gradients of scalar-valued `f` against central
    finite differences.

    `f` must be deterministic in the data of `inputs`. `max_coords` caps
    the coordinates probed per input tensor: one int (or None, no cap) for
    every input, or a list with one such count per input. Capped inputs
    probe coordinates chosen by `rng` (fixed seed 0 by default): the
    comparison stays exact per probed coordinate, only coverage shrinks.
    """
    inputs = list(inputs)
    if not isinstance(max_coords, (list, tuple)):
        max_coords = [max_coords] * len(inputs)
    for t in inputs:
        t.requires_grad = True
        t.grad = None

    y = f(*inputs)
    if y.size != 1:
        raise ValueError("grad_check target must be scalar-valued")
    y.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in inputs]

    if rng is None:
        rng = np.random.default_rng(0)

    report = GradCheckReport(name=name, max_rel_err=0.0, tol=tol)
    for t, a, limit in zip(inputs, analytic, max_coords, strict=True):
        # .flat indexes t's own memory in C order whatever its layout;
        # reshape(-1) of an F-ordered array is a copy the probes never reach
        flat, size = t.data.flat, t.data.size
        coords = np.arange(size)
        if limit is not None and size > limit:
            coords = rng.choice(size, size=limit, replace=False)
        report.probed += len(coords)
        worst = 0.0
        base = float(y.data)
        for k in coords:
            def probe(step):
                orig = flat[k]
                flat[k] = orig + step
                try:
                    return float(f(*inputs).data)
                finally:
                    flat[k] = orig

            hi = probe(_EPS)
            lo = probe(-_EPS)
            fd = (hi - lo) / (2.0 * _EPS)
            err = _rel_err(a.reshape(-1)[k], fd)
            # a non-finite gradient or difference (err inf) is no kink
            if tol < err < math.inf:
                # A kink (ReLU/max/clamp corner) inside the probe interval
                # makes the central difference invalid. Two symptoms, each
                # checked against an independent estimate that costs little:
                #  - forward and backward one-sided slopes differ by the slope
                #    jump when the kink sits at (or within _EPS of) the point;
                #  - the halved-step central difference moves when the kink
                #    sits strictly inside only the wider interval.
                # Smooth coordinates keep all estimates within O(_EPS).
                fwd = (hi - base) / _EPS
                bwd = (base - lo) / _EPS
                if _rel_err(fwd, bwd) > _KINK_DISAGREEMENT:
                    report.skipped_kinks += 1
                    continue
                fd_half = (probe(_EPS / 2.0) - probe(-_EPS / 2.0)) / _EPS
                if _rel_err(fd, fd_half) > _KINK_DISAGREEMENT:
                    report.skipped_kinks += 1
                    continue
                err = min(err, _rel_err(a.reshape(-1)[k], fd_half))
            worst = max(worst, err)
        report.per_input.append(worst)
        report.max_rel_err = max(report.max_rel_err, worst)
    return report
