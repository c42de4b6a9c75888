"""Finite-difference gradient verification machinery."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anatomy_attn
from anatomy_attn import suite, tensor
from anatomy_attn.gradcheck import grad_check
from anatomy_attn.tensor import NonFiniteError, Tensor

# op names that are not literals, expanded to every value the package
# uses: an f-string, and the `op` that `_binary` and `_unary` pass on to
# `_from_op`, whose values are the keys of their op tables
_OP_NAME_EXPANSIONS = {"f'resize_{method}'": ("resize_bilinear",
                                              "resize_nearest"),
                       "op": ()}


def _core_op_names() -> set:
    """Every op name passed to `_from_op` in tensor.py, ops.py and
    attention.py, and every row of tensor.py's two op tables."""
    names = set(tensor._UNARY_OPS) | set(tensor._BINARY_OPS)
    for module in ("tensor.py", "ops.py", "attention.py"):
        path = Path(anatomy_attn.__file__).parent / module
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "_from_op"):
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
                                   lambda g: (g * x.data,),
                                   "bad").sum()

        report = grad_check(bad, [Tensor(np.linspace(1.0, 2.0, 4))])
        assert not report.passed

    def test_catches_sign_flip(self):
        def flipped(x):
            return Tensor._from_op(x.data ** 2, (x,),
                                   lambda g: (-2.0 * g * x.data,),
                                   "flipped").sum()

        report = grad_check(flipped, [Tensor(np.linspace(0.5, 1.5, 4))])
        assert not report.passed
        assert report.max_rel_err > 1.0

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_gradient_fails_with_infinite_error(self, bad):
        # a NaN error would compare false against tol and pass
        def square(x):
            return Tensor._from_op(x.data ** 2, (x,), lambda g: (g * bad,),
                                   "non_finite_square").sum()

        report = grad_check(square, [Tensor(np.linspace(0.5, 1.5, 4))])
        assert not report.passed
        assert report.max_rel_err == np.inf
        assert report.per_input == [np.inf]
        assert report.skipped_kinks == 0

    def test_catches_wrong_gradient_on_fortran_ordered_input(self):
        # Tensor(a.T) keeps a.T's F order, so a probe through a C-order
        # reshape of it would write to a copy and never reach the tensor
        def zero_backward(x):
            return Tensor._from_op(x.data ** 2, (x,), lambda g: (0.0 * g,),
                                   "zero_backward").sum()

        x = Tensor(np.arange(1.0, 7.0).reshape(2, 3).T)
        assert x.data.flags.f_contiguous and not x.data.flags.c_contiguous
        report = grad_check(zero_backward, [x])
        assert report.probed == 6 and not report.passed
        assert grad_check(lambda t: (t * t).sum(), [x]).passed

    def test_input_restored_when_target_raises(self):
        # log(t - 1 + 5e-6) is finite at t = 1 but not at the probe 1 - 1e-5
        x = Tensor(np.array([1.0, 2.0]))
        with pytest.raises(NonFiniteError):
            grad_check(lambda t: (t - 1.0 + 5e-6).log().sum(), [x])
        assert x.data.tolist() == [1.0, 2.0]

    def test_skips_relu_kink_without_failing(self):
        # a coordinate exactly at the ReLU corner: any subgradient is valid,
        # the central difference is not
        x = Tensor(np.array([0.0, 1.0, -1.0]))
        report = grad_check(lambda t: t.relu().sum(), [x])
        assert report.passed
        assert report.skipped_kinks == 1

    def test_skips_kink_seen_only_by_the_halved_step(self):
        # kinks at t = +-a lie inside the probe interval +-1e-5 but outside
        # the halved one; the one-sided slopes agree, the halved central
        # difference (0) does not match the full one (0.25); t = 1 is smooth
        a = 0.75e-5
        x = Tensor(np.array([0.0, 1.0]))
        report = grad_check(
            lambda t: ((t - a).relu() - (-t - a).relu()).sum(), [x])
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

    def test_coordinate_counts_per_input(self, rng):
        a = Tensor(rng.normal(size=(4, 5)))
        b = Tensor(rng.normal(size=3))

        def f(x, y):
            return (x * x).sum() * y.sum()

        assert grad_check(f, [a, b]).probed == 23
        assert grad_check(f, [a, b], max_coords=4).probed == 4 + 3
        assert grad_check(f, [a, b], max_coords=[None, 2]).probed == 20 + 2
        assert grad_check(f, [a, b], max_coords=[6, 5]).probed == 6 + 3

    def test_non_scalar_target_rejected(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: t * 2.0, [Tensor(np.ones(3))])

    @pytest.mark.parametrize("max_coords", [0, [0]])
    def test_report_that_compared_nothing_fails(self, max_coords):
        def flipped(x):
            return Tensor._from_op(x.data ** 2, (x,),
                                   lambda g: (-2.0 * g * x.data,),
                                   "flipped").sum()

        report = grad_check(flipped, [Tensor(np.linspace(0.5, 1.5, 4))],
                            max_coords=max_coords)
        assert report.probed == 0 and report.max_rel_err == 0.0
        assert not report.passed

    def test_only_kinks_probed_fails(self):
        # the one coordinate sits on the ReLU corner and is skipped
        report = grad_check(lambda t: t.relu().sum(),
                            [Tensor(np.array([0.0]))])
        assert report.probed == report.skipped_kinks == 1
        assert not report.passed

    def test_zero_gradient_input_passes(self):
        a = Tensor(np.ones(2))
        b = Tensor(np.ones(2))
        # `a` does not influence the output at all
        report = grad_check(lambda x, y: (y * y).sum(), [a, b])
        assert report.passed


_NON_MODEL_TARGETS = [name for name in suite.TARGETS
                      if not name.startswith("model_")]


@pytest.fixture(scope="module")
def serial_reports():
    """{name: repr(report)} of the whole suite, run serially."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ANATOMY_ATTN_THREADS", raising=False)
        return {r.name: repr(r) for r in suite.run_gradcheck_suite()}


class TestSuite:
    def test_ops_suite_passes(self):
        from anatomy_attn.suite import run_gradcheck_suite
        reports = run_gradcheck_suite(include_models=False)
        failed = [r.name for r in reports if not r.passed]
        assert failed == []

    def test_injected_fault_is_detected(self, sign_flipped_suite):
        from anatomy_attn.suite import run_gradcheck_suite
        reports = run_gradcheck_suite(include_models=False)
        failed = [r.name for r in reports if not r.passed]
        assert failed == ["injected_sign_flip"]

    def test_probe_counts_match_unstacked_attention(self, monkeypatch):
        # a stacked [3,...] attention leaf is probed as often as its three
        # rows were when stored as separate tensors. Counts depend only on
        # the tensor sizes, so a cheap stand-in target keeps them.
        from anatomy_attn import suite
        check = suite.grad_check
        monkeypatch.setattr(suite, "grad_check", lambda f, inputs, **kw: check(
            lambda *ts: sum((t * t).sum() for t in ts), inputs, **kw))
        probed = {r.name: r.probed for r in suite.run_gradcheck_suite()}
        counts = {"aaa_forward": 169}
        for level, row in (("L0", (25, 22, 22, 23)), ("L1", (92, 89, 89, 90)),
                           ("L2", (162, 156, 156, 158)),
                           ("L3", (232, 223, 223, 226))):
            for pool, n in zip(("pwap", "average", "max", "gem"), row):
                counts[f"model_{level}_{pool}"] = n
        assert {name: probed[name] for name in counts} == counts

    @pytest.mark.parametrize("left_out", _NON_MODEL_TARGETS)
    def test_leaving_out_a_target_changes_no_other_report(
            self, monkeypatch, serial_reports, left_out):
        # the rest also run in reverse order, so order is covered as well
        rest = [name for name in reversed(_NON_MODEL_TARGETS)
                if name != left_out]
        monkeypatch.setattr(suite, "TARGETS",
                            {name: suite.TARGETS[name] for name in rest})
        reports = suite.run_gradcheck_suite(include_models=False)
        assert [(r.name, repr(r)) for r in reports] == [
            (name, serial_reports[name]) for name in rest]

    def test_serial_and_parallel_reports_identical(self, monkeypatch,
                                                   serial_reports):
        monkeypatch.setenv("ANATOMY_ATTN_THREADS", "2")
        reports = suite.run_gradcheck_suite()
        assert list(serial_reports) == list(suite.TARGETS)
        assert [(r.name, repr(r)) for r in reports] == list(
            serial_reports.items())

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
        # serial, so the recording sees every target's ops in this process
        monkeypatch.delenv("ANATOMY_ATTN_THREADS", raising=False)
        # one forward evaluation per target is enough to build its graph
        monkeypatch.setattr(suite, "grad_check",
                            lambda f, inputs, **kw: f(*inputs))
        suite.run_gradcheck_suite()
        core = _core_op_names()
        assert len(core) > 20
        assert {"add", "sub", "mul", "div", "fully_connected"} <= core
        assert core - built == set()
