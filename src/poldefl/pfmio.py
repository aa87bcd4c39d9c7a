"""Raster and point-cloud file I/O.

PFM: portable float map, little-endian float32, rows stored bottom-to-top
per convention ('Pf' grayscale, 'PF' 3-channel). PLY: ASCII point clouds
with per-vertex normals. JSON sidecars carry decode metadata next to the
rasters.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np


class IOFormatError(ValueError):
    pass


def write_pfm(path, data: np.ndarray):
    """Write a (h, w) or (h, w, 3) float array as little-endian PFM."""
    path = Path(path)
    data = np.asarray(data, dtype=np.float32)
    if data.ndim == 2:
        header = b"Pf"
    elif data.ndim == 3 and data.shape[2] == 3:
        header = b"PF"
    else:
        raise IOFormatError(f"{path}: PFM needs (h, w) or (h, w, 3), got {data.shape}")
    h, w = data.shape[:2]
    with open(path, "wb") as f:
        f.write(header + b"\n")
        f.write(f"{w} {h}\n".encode())
        f.write(b"-1.0\n")  # negative scale = little-endian
        f.write(np.flipud(data).astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    path = Path(path)
    try:
        with open(path, "rb") as f:
            header = f.readline().strip()
            if header == b"PF":
                channels = 3
            elif header == b"Pf":
                channels = 1
            else:
                raise IOFormatError(f"{path}: not a PFM file (header {header!r})")
            dims = f.readline().split()
            w, h = int(dims[0]), int(dims[1])
            scale = float(f.readline())
            endian = "<" if scale < 0 else ">"
            count = w * h * channels
            data = np.frombuffer(f.read(count * 4), dtype=endian + "f4", count=count)
    except (OSError, ValueError, IndexError) as e:
        raise IOFormatError(f"{path}: failed to read PFM: {e}") from e
    shape = (h, w) if channels == 1 else (h, w, 3)
    return np.flipud(data.reshape(shape)).astype(np.float64)


def write_sidecar(pfm_path, meta: dict):
    Path(pfm_path).with_suffix(".json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def write_ply(path, points: np.ndarray, normals: np.ndarray | None = None):
    """ASCII PLY with optional per-vertex normals. Empty clouds produce a
    valid zero-vertex file."""
    path = Path(path)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    props = ["property double x", "property double y", "property double z"]
    cols = [points]
    if normals is not None:
        normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
        if normals.shape != points.shape:
            raise IOFormatError(f"{path}: normals shape mismatch")
        props += ["property double nx", "property double ny", "property double nz"]
        cols.append(normals)
    header = "\n".join(
        ["ply", "format ascii 1.0", f"element vertex {len(points)}", *props, "end_header"]
    )
    body = np.hstack(cols)
    row = " ".join(["%r"] * body.shape[1]) + "\n"
    text = (row * len(body)) % tuple(body.ravel().tolist())
    try:
        path.write_text(header + "\n" + text)
    except OSError as e:
        raise IOFormatError(f"{path}: failed to write PLY: {e}") from e


def read_ply(path):
    """Read an ASCII PLY written by write_ply. Returns (points, normals)
    with normals None when absent."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "ply":
        raise IOFormatError(f"{path}: not a PLY file")
    n_vertex = 0
    props = []
    i = 0
    for i, line in enumerate(lines):
        if line.startswith("element vertex"):
            n_vertex = int(line.split()[-1])
        elif line.startswith("property"):
            props.append(line.split()[-1])
        elif line == "end_header":
            break
    data = np.array(
        [[float(v) for v in ln.split()] for ln in lines[i + 1 : i + 1 + n_vertex]],
        dtype=np.float64,
    ).reshape(n_vertex, len(props))
    points = data[:, :3]
    normals = data[:, 3:6] if "nx" in props else None
    return points, normals
