"""Finite-difference gradient verification machinery."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anatomy_attn
from anatomy_attn import suite
from anatomy_attn.gradcheck import grad_check
from anatomy_attn.tensor import Tensor

# op names built by an f-string, expanded to every value the package uses
_OP_NAME_EXPANSIONS = {"f'resize_{method}'": ("resize_bilinear",
                                              "resize_nearest")}


def _core_op_names() -> set:
    """Every op name passed to `_from_op` in tensor.py, ops.py and
    attention.py."""
    names = set()
    for module in ("tensor.py", "ops.py", "attention.py"):
        path = Path(anatomy_attn.__file__).parent / module
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_from_op"):
                op = node.args[-1]
                if isinstance(op, ast.Constant):
                    names.add(op.value)
                else:
                    names.update(_OP_NAME_EXPANSIONS[ast.unparse(op)])
    return names


class TestGradCheck:
    def test_passes_on_correct_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        report = grad_check(lambda t: (t * t).sum(), [x])
        assert report.passed
        assert report.max_rel_err < 1e-6

    def test_catches_wrong_gradient(self):
        def bad(x):
            # forward x^2 but backward claims d/dx = x (missing factor 2)
            return Tensor._from_op(x.data ** 2, (x,),
                                   lambda g: [(x, g * x.data)],
                                   "bad").sum()

        report = grad_check(bad, [Tensor(np.linspace(1.0, 2.0, 4))])
        assert not report.passed

    def test_catches_sign_flip(self):
        def flipped(x):
            return Tensor._from_op(x.data ** 2, (x,),
                                   lambda g: [(x, -2.0 * g * x.data)],
                                   "flipped").sum()

        report = grad_check(flipped, [Tensor(np.linspace(0.5, 1.5, 4))])
        assert not report.passed
        assert report.max_rel_err > 1.0

    def test_skips_relu_kink_without_failing(self):
        # a coordinate exactly at the ReLU corner: any subgradient is valid,
        # the central difference is not
        x = Tensor(np.array([0.0, 1.0, -1.0]))
        report = grad_check(lambda t: t.relu().sum(), [x])
        assert report.passed
        assert report.skipped_kinks == 1

    def test_unattainable_tolerance_fails(self, rng):
        x = Tensor(rng.normal(size=4))
        report = grad_check(lambda t: (t.sigmoid() * t).sum(), [x],
                            tol=1e-12)
        assert not report.passed  # FD noise floor is far above 1e-12

    def test_multiple_inputs_reported_separately(self, rng):
        a = Tensor(rng.normal(size=3))
        b = Tensor(rng.normal(size=2))
        report = grad_check(lambda x, y: x.sum() * y.sum(), [a, b])
        assert len(report.per_input) == 2
        assert report.passed

    def test_coordinate_subsampling_is_deterministic(self, rng):
        x = Tensor(rng.normal(size=(8, 8)))
        r1 = grad_check(lambda t: (t ** 2).sum(), [x], max_coords=5,
                        rng=np.random.default_rng(3))
        r2 = grad_check(lambda t: (t ** 2).sum(), [x], max_coords=5,
                        rng=np.random.default_rng(3))
        assert r1.max_rel_err == r2.max_rel_err

    def test_eps_bounds_enforced(self):
        x = Tensor(np.ones(2))
        with pytest.raises(ValueError):
            grad_check(lambda t: t.sum(), [x], eps=1e-2)
        with pytest.raises(ValueError):
            grad_check(lambda t: t.sum(), [x], eps=1e-9)

    def test_non_scalar_target_rejected(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: t * 2.0, [Tensor(np.ones(3))])

    def test_zero_gradient_input_passes(self):
        a = Tensor(np.ones(2))
        b = Tensor(np.ones(2))
        # `a` does not influence the output at all
        report = grad_check(lambda x, y: (y * y).sum(), [a, b])
        assert report.passed


class TestSuite:
    def test_ops_suite_passes(self):
        from anatomy_attn.suite import run_gradcheck_suite
        reports = run_gradcheck_suite(include_models=False)
        failed = [r.name for r in reports if not r.passed]
        assert failed == []

    def test_injected_fault_is_detected(self):
        from anatomy_attn.suite import run_gradcheck_suite
        reports = run_gradcheck_suite(include_models=False,
                                      inject_fault=True)
        by_name = {r.name: r for r in reports}
        assert not by_name["injected_sign_flip"].passed

    def test_reports_do_not_depend_on_hash_seed(self):
        # coordinate sampling must not follow the interpreter's str-hash salt
        script = ("from anatomy_attn.suite import run_gradcheck_suite\n"
                  "for r in run_gradcheck_suite(include_models=False):\n"
                  "    print(r)\n")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert outputs[0] == outputs[1]
        assert "gen_losses" in outputs[0]

    def test_every_core_op_is_built_by_the_suite(self, monkeypatch):
        built = set()
        from_op = Tensor.__dict__["_from_op"].__func__

        def recording_from_op(cls, data, parents, backward_fn, op):
            built.add(op)
            return from_op(cls, data, parents, backward_fn, op)

        monkeypatch.setattr(Tensor, "_from_op",
                            classmethod(recording_from_op))
        # one forward evaluation per target is enough to build its graph
        monkeypatch.setattr(suite, "grad_check",
                            lambda f, inputs, **kw: f(*inputs))
        suite.run_gradcheck_suite()
        core = _core_op_names()
        assert len(core) > 20
        assert core - built == set()
