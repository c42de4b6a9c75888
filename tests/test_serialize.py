"""Binary tensor serialization and PGM image output."""

import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anatomy_attn.serialize import (MAGIC, load_tensors, read_array,
                                    save_tensors, write_array, write_pgm)

# Byte strings that mostly carry a valid magic, so parsing gets past it.
_BLOBS = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda rank, extents, payload:
              MAGIC + struct.pack("<I4H", rank, *extents) + payload,
              st.integers(0, 8), st.tuples(*[st.integers(0, 3)] * 4),
              st.binary(max_size=160)))


class TestArrayRoundTrip:
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (1, 2, 3, 4)])
    def test_round_trip_preserves_bits(self, rng, shape):
        arr = rng.normal(size=shape)
        buf = io.BytesIO()
        write_array(buf, arr)
        buf.seek(0)
        out = read_array(buf)
        assert out.shape == arr.shape
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, arr)

    def test_header_is_16_bytes(self):
        buf = io.BytesIO()
        write_array(buf, np.zeros(2))
        assert len(buf.getvalue()) == 16 + 2 * 8

    def test_bad_magic_rejected(self):
        buf = io.BytesIO()
        write_array(buf, np.zeros(2))
        raw = bytearray(buf.getvalue())
        raw[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            read_array(io.BytesIO(bytes(raw)))

    def test_truncated_payload_rejected(self):
        buf = io.BytesIO()
        write_array(buf, np.zeros(4))
        with pytest.raises(ValueError, match="truncated"):
            read_array(io.BytesIO(buf.getvalue()[:-8]))

    def test_oversized_extent_rejected(self):
        with pytest.raises(ValueError):
            write_array(io.BytesIO(), np.zeros((70000,)))

    def test_header_rank_above_four_rejected(self):
        blob = MAGIC + struct.pack("<I4H", 7, 2, 2, 0, 0) + bytes(32)
        with pytest.raises(ValueError, match="rank"):
            read_array(io.BytesIO(blob))

    def test_nonzero_unused_extent_rejected(self):
        blob = MAGIC + struct.pack("<I4H", 1, 2, 5, 0, 0) + bytes(16)
        with pytest.raises(ValueError, match="unused"):
            read_array(io.BytesIO(blob))

    @given(_BLOBS)
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_round_trip_or_raise(self, blob):
        # what read_array accepts is exactly the canonical encoding of
        # the array it returns
        try:
            arr = read_array(io.BytesIO(blob))
        except ValueError:
            return
        buf = io.BytesIO()
        write_array(buf, arr)
        assert blob.startswith(buf.getvalue())


class TestNamedTensors:
    def test_round_trip_and_order(self, rng, tmp_path):
        named = [("b.weight", rng.normal(size=(3, 2))),
                 ("a.bias", rng.normal(size=3))]
        path = tmp_path / "ckpt.bin"
        save_tensors(path, named)
        out = load_tensors(path)
        assert list(out.keys()) == ["b.weight", "a.bias"]
        for name, arr in named:
            np.testing.assert_array_equal(out[name], arr)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_tensors(path, [("x", rng.normal(size=3))])
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(ValueError, match="trailing"):
            load_tensors(path)

    @given(_BLOBS)
    @settings(max_examples=200, deadline=None)
    def test_any_file_round_trips_or_raises(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "a.bin", Path(tmp) / "b.bin"
            save_tensors(path, [("x", np.zeros(1))])
            path.write_bytes(blob)
            try:
                out = load_tensors(path)
            except ValueError:
                return
            save_tensors(again, out.items())
            assert again.read_bytes() == blob

    def test_write_is_deterministic(self, rng, tmp_path):
        named = [("x", rng.normal(size=(2, 2)))]
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_tensors(p1, named)
        save_tensors(p2, named)
        assert p1.read_bytes() == p2.read_bytes()


class TestPgm:
    def test_header_and_size(self, tmp_path):
        img = np.linspace(0, 1, 12).reshape(3, 4)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5")
        assert b"4 3" in raw
        header_end = raw.index(b"255\n") + 4
        assert len(raw) - header_end == 12

    def test_value_mapping(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[0.0, 1.0]]))
        raw = path.read_bytes()
        assert raw[-2:] == bytes([0, 255])

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))
