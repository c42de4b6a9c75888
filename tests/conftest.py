import numpy as np
import pytest

from anatomy_attn import suite
from anatomy_attn.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def sign_flipped_suite(monkeypatch):
    """The gradcheck suite with one more op target, `injected_sign_flip`:
    a square whose backward has the wrong sign."""
    op_targets = suite._op_targets

    def flipped_square(x):
        return Tensor._from_op(x.data ** 2, (x,),
                               lambda g: (-2.0 * g * x.data,),
                               "flipped_square")

    monkeypatch.setattr(suite, "_op_targets", lambda rng: op_targets(rng) + [
        ("injected_sign_flip", lambda t: flipped_square(t).sum(),
         [Tensor(np.linspace(0.5, 1.5, 6))], None)])
