"""tools/fingerprint.py: its digest tells bit-level changes apart, and
`--against` keeps only the entries that differ. No digest is pinned, since
BLAS-touched outputs differ between CPUs."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
_SPEC = importlib.util.spec_from_file_location("fingerprint", _PATH)
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


@pytest.mark.parametrize("a, b", [
    (0.0, -0.0),
    (0.1 + 0.2, 0.3),
    (np.zeros((2, 3)), np.zeros((3, 2))),
    (np.zeros(2), np.zeros(2, dtype=np.float32)),
    ([(1, 0.5)], [(1, 0.5), ()]),
    ([[1], 2], [1, [2]]),
    (b"a,b\n", b"a,b\r\n")],
    ids=["signed zero", "last bit", "shape", "dtype", "length", "nesting",
         "bytes"])
def test_digest_tells_apart(a, b):
    assert fingerprint.digest(a) != fingerprint.digest(b)


def test_digest_is_the_same_for_equal_values():
    assert (fingerprint.digest([np.arange(3.0), (2, np.float64(0.5))])
            == fingerprint.digest([np.arange(3.0), (2, 0.5)]))


def test_differences_keep_moved_missing_and_failed_entries():
    ours = {"same": {"sha256": "a", "value": 1.0},
            "moved": {"sha256": "b", "value": 2.0},
            "new": {"sha256": "c", "value": 3.0},
            "cli/error": {"sha256": None, "value": "RuntimeError: boom"}}
    theirs = {"same": {"sha256": "a", "value": 1.0},
              "moved": {"sha256": "B", "value": 2.5},
              "gone": {"sha256": "d", "value": 4.0}}
    diff = fingerprint.differences(ours, theirs, "REV")
    assert list(diff) == ["moved", "new", "cli/error", "gone"]
    assert diff["moved"] == {"tree": ours["moved"], "REV": theirs["moved"]}
    assert diff["gone"] == {"tree": None, "REV": theirs["gone"]}
