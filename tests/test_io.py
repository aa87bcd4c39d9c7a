"""PFM/PLY/sidecar serialization round trips and error handling."""

import json

import numpy as np
import pytest

from poldefl.pfmio import (
    IOFormatError,
    read_pfm,
    read_ply,
    write_pfm,
    write_ply,
    write_sidecar,
)


class TestPfm:
    def test_gray_round_trip(self, tmp_path, rng):
        a = rng.normal(size=(13, 17)).astype(np.float32)
        p = tmp_path / "a.pfm"
        write_pfm(p, a)
        back = read_pfm(p)
        np.testing.assert_array_equal(back.astype(np.float32), a)

    def test_three_channel_round_trip(self, tmp_path, rng):
        a = rng.normal(size=(9, 5, 3)).astype(np.float32)
        p = tmp_path / "rgb.pfm"
        write_pfm(p, a)
        np.testing.assert_array_equal(read_pfm(p).astype(np.float32), a)

    def test_negative_and_special_values(self, tmp_path):
        a = np.array([[-1.5, 0.0], [3.25e-10, 7.0e8]], dtype=np.float32)
        p = tmp_path / "n.pfm"
        write_pfm(p, a)
        np.testing.assert_array_equal(read_pfm(p).astype(np.float32), a)

    def test_row_order_convention(self, tmp_path):
        # bottom row is stored first: the raw payload of a 2x1 raster
        # [[top], [bottom]] starts with `bottom`
        a = np.array([[1.0], [2.0]], dtype=np.float32)
        p = tmp_path / "o.pfm"
        write_pfm(p, a)
        raw = p.read_bytes()
        payload = raw.split(b"-1.0\n", 1)[1]
        first = np.frombuffer(payload[:4], dtype="<f4")[0]
        assert first == 2.0

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(IOFormatError):
            write_pfm(tmp_path / "x.pfm", np.zeros((4, 4, 2)))
        with pytest.raises(IOFormatError):
            write_pfm(tmp_path / "x.pfm", np.zeros(7))

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.pfm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(IOFormatError):
            read_pfm(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "short.pfm"
        p.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\x00" * 8)
        with pytest.raises(IOFormatError):
            read_pfm(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(IOFormatError):
            read_pfm(tmp_path / "nope.pfm")


class TestSidecar:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "map.pfm"
        write_pfm(p, np.zeros((2, 2)))
        meta = {"kind": "depth", "units": "mm", "frequency": [16.0, 16.0]}
        write_sidecar(p, meta)
        assert json.loads((tmp_path / "map.json").read_text()) == meta


class TestPly:
    def test_bit_exact_round_trip(self, tmp_path, rng):
        pts = rng.normal(size=(25, 3)) * 1e3
        nrm = rng.normal(size=(25, 3))
        nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)
        p = tmp_path / "c.ply"
        write_ply(p, pts, nrm)
        rp, rn = read_ply(p)
        np.testing.assert_array_equal(rp, pts)
        np.testing.assert_array_equal(rn, nrm)

    def test_points_only(self, tmp_path, rng):
        pts = rng.normal(size=(4, 3))
        p = tmp_path / "p.ply"
        write_ply(p, pts)
        rp, rn = read_ply(p)
        np.testing.assert_array_equal(rp, pts)
        assert rn is None

    def test_empty_cloud(self, tmp_path):
        p = tmp_path / "e.ply"
        write_ply(p, np.zeros((0, 3)), np.zeros((0, 3)))
        rp, rn = read_ply(p)
        assert rp.shape == (0, 3)
        text = p.read_text()
        assert "element vertex 0" in text and text.rstrip().endswith("end_header")

    def test_normal_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(IOFormatError):
            write_ply(tmp_path / "m.ply", np.zeros((4, 3)), np.zeros((3, 3)))

    def test_non_ply_rejected(self, tmp_path):
        p = tmp_path / "junk.ply"
        p.write_text("OFF\n0 0 0\n")
        with pytest.raises(IOFormatError):
            read_ply(p)
