"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradCheckReport:
    name: str
    max_rel_err: float
    tol: float
    per_input: list = field(default_factory=list)
    skipped_kinks: int = 0

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


# Relative disagreement between two finite-difference estimates above which
# a coordinate is treated as sitting on a kink (ReLU/max/clamp): independent
# estimates agree to ~O(eps) on smooth coordinates and to O(1) on kinks.
_KINK_DISAGREEMENT = 1e-3


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(1.0, abs(a), abs(n))


def grad_check(f, inputs, eps: float = 1e-5, tol: float = 1e-4,
               name: str = "f", max_coords: int | None = None,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare reverse-mode gradients of scalar-valued `f` against central
    finite differences.

    `f` must be deterministic in the data of `inputs`. When `max_coords` is
    set, at most that many coordinates per input tensor are probed (chosen
    by `rng`, fixed seed 0 by default): the comparison stays exact per
    probed coordinate, only coverage shrinks.
    """
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-4]")
    inputs = list(inputs)
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
    for t, a in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        worst = 0.0
        base = float(y.data)
        for k in coords:
            def probe(step):
                orig = flat[k]
                flat[k] = orig + step
                val = float(f(*inputs).data)
                flat[k] = orig
                return val

            hi = probe(eps)
            lo = probe(-eps)
            fd = (hi - lo) / (2.0 * eps)
            err = _rel_err(a.reshape(-1)[k], fd)
            if err > tol:
                # A kink (ReLU/max/clamp corner) inside the probe interval
                # makes the central difference invalid. Two symptoms, each
                # checked against an independent estimate that costs little:
                #  - forward and backward one-sided slopes differ by the slope
                #    jump when the kink sits at (or within eps of) the point;
                #  - the halved-step central difference moves when the kink
                #    sits strictly inside only the wider interval.
                # Smooth coordinates keep all estimates within O(eps).
                fwd = (hi - base) / eps
                bwd = (base - lo) / eps
                if _rel_err(fwd, bwd) > _KINK_DISAGREEMENT:
                    report.skipped_kinks += 1
                    continue
                fd_half = (probe(eps / 2.0) - probe(-eps / 2.0)) / eps
                if _rel_err(fd, fd_half) > _KINK_DISAGREEMENT:
                    report.skipped_kinks += 1
                    continue
                err = min(err, _rel_err(a.reshape(-1)[k], fd_half))
            worst = max(worst, err)
        report.per_input.append(worst)
        report.max_rel_err = max(report.max_rel_err, worst)
    return report
