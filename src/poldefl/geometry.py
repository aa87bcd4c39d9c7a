"""Camera, display and specular-ray geometry.

World units are millimetres throughout. Direction vectors are unit-norm.
All functions are pure and vectorized: a "Vec3" is a numpy array whose
last axis has length 3, so every operation broadcasts over rasters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Invalid geometric configuration (bad parameters, out of bounds)."""


class DegenerateGeometryError(GeometryError):
    """Construction is undefined (coincident points, antipodal rays)."""


def norm(v: np.ndarray) -> np.ndarray:
    return np.linalg.norm(v, axis=-1)


def normalize(v: np.ndarray) -> np.ndarray:
    """Unit vector(s) along v. Raises on zero-norm input."""
    v = np.asarray(v, dtype=np.float64)
    n = norm(v)
    if np.any(n == 0.0):
        raise DegenerateGeometryError("cannot normalize zero vector")
    return v / n[..., None]


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=-1)


def reflect(d: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Reflect direction d about unit normal n: d - 2(d.n)n."""
    return d - 2.0 * dot(d, n)[..., None] * n


@dataclass(frozen=True)
class PinholeCamera:
    """Ideal pinhole camera. `rotation` maps camera coords to world,
    `translation` is the camera center O in world mm. Camera frame:
    x right, y down, z forward along the optical axis."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64))
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise GeometryError("principal point outside the sensor")
        R = self.rotation
        if R.shape != (3, 3) or not np.allclose(R @ R.T, np.eye(3), atol=1e-9):
            raise GeometryError("rotation must be orthonormal")
        if not np.isclose(np.linalg.det(R), 1.0, atol=1e-9):
            raise GeometryError("rotation must be proper (det = +1)")

    @property
    def center(self) -> np.ndarray:
        return self.translation

    def pixel_to_ray(self, px: np.ndarray) -> np.ndarray:
        """World-frame unit ray direction(s) through pixel coords (u, v).

        Rays originate at the camera center. Pixels outside the sensor
        raise GeometryError.
        """
        px = np.asarray(px, dtype=np.float64)
        u, v = px[..., 0], px[..., 1]
        if np.any(u < 0) or np.any(u > self.width) or np.any(v < 0) or np.any(v > self.height):
            raise GeometryError("pixel outside sensor bounds")
        d_cam = np.stack(
            [(u - self.cx) / self.fx, (v - self.cy) / self.fy, np.ones_like(u)], axis=-1
        )
        d_world = d_cam @ self.rotation.T
        return normalize(d_world)

    def project(self, points: np.ndarray) -> np.ndarray:
        """Forward projection world point(s) -> pixel coords (u, v)."""
        p_cam = (np.asarray(points, dtype=np.float64) - self.translation) @ self.rotation
        z = p_cam[..., 2]
        if np.any(z <= 0):
            raise GeometryError("point behind the camera")
        return np.stack(
            [self.fx * p_cam[..., 0] / z + self.cx, self.fy * p_cam[..., 1] / z + self.cy],
            axis=-1,
        )

    def pixel_grid(self) -> np.ndarray:
        """Pixel-center coordinates, shape (height, width, 2)."""
        u = np.arange(self.width, dtype=np.float64) + 0.5
        v = np.arange(self.height, dtype=np.float64) + 0.5
        uu, vv = np.meshgrid(u, v)
        return np.stack([uu, vv], axis=-1)

    def ray_grid(self) -> np.ndarray:
        """Unit ray directions for every pixel, shape (height, width, 3)."""
        return self.pixel_to_ray(self.pixel_grid())

    def world_to_camera(self, v_world: np.ndarray) -> np.ndarray:
        """Rotate world direction(s) into the camera frame."""
        return np.asarray(v_world, dtype=np.float64) @ self.rotation

    def camera_to_world(self, v_cam: np.ndarray) -> np.ndarray:
        return np.asarray(v_cam, dtype=np.float64) @ self.rotation.T


@dataclass(frozen=True)
class DisplayPlane:
    """Planar display: origin + pitch*(i*u + j*v), display pixels (i, j)."""

    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray
    pitch: float  # mm per display pixel
    width: int
    height: int

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.float64))
        object.__setattr__(self, "u", normalize(self.u))
        object.__setattr__(self, "v", normalize(self.v))
        if abs(dot(self.u, self.v)) > 1e-9:
            raise GeometryError("display basis vectors must be orthogonal")
        if self.pitch <= 0:
            raise GeometryError("pixel pitch must be positive")

    @property
    def normal(self) -> np.ndarray:
        return np.cross(self.u, self.v)

    def index_to_point(self, ij: np.ndarray) -> np.ndarray:
        """World point(s) of display pixel index (i, j)."""
        ij = np.asarray(ij, dtype=np.float64)
        i, j = ij[..., 0], ij[..., 1]
        if np.any(i < 0) or np.any(i > self.width) or np.any(j < 0) or np.any(j > self.height):
            raise GeometryError("display index out of bounds")
        return self.origin + self.pitch * (i[..., None] * self.u + j[..., None] * self.v)

    def point_to_index(self, points: np.ndarray) -> np.ndarray:
        """Inverse of index_to_point for points on the plane (no bounds check)."""
        rel = np.asarray(points, dtype=np.float64) - self.origin
        return np.stack([dot(rel, self.u), dot(rel, self.v)], axis=-1) / self.pitch

    def intersect_ray(self, origin: np.ndarray, direction: np.ndarray):
        """Ray/plane intersection. Returns (t, hit) with t = nan on miss
        (parallel or behind the ray origin)."""
        n = self.normal
        denom = dot(direction, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = dot(self.origin - origin, n) / denom
        hit = np.isfinite(t) & (t > 0) & (np.abs(denom) > 1e-12)
        t = np.where(hit, t, np.nan)
        return t, hit


@dataclass(frozen=True)
class WorkingDistanceInterval:
    """Admissible standoff range [s_min, s_max] along the camera ray, mm."""

    s_min: float
    s_max: float

    def __post_init__(self):
        if not (0 < self.s_min < self.s_max < np.inf):
            raise GeometryError("require 0 < s_min < s_max < inf")

    def contains(self, s) -> np.ndarray:
        return (s >= self.s_min) & (s <= self.s_max)


def bisector_normal(S: np.ndarray, C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Surface normal at S as the bisector of the rays S->C and S->D.

    Specular reflection geometry: the normal halves the angle between the
    reflected ray (towards the camera C) and the incident ray (towards
    the display point D). The result points into the camera half-space.
    Near-antipodal rays raise: the rounding error grows as 2e-16 / |sum|.
    """
    to_c = normalize(np.asarray(C, dtype=np.float64) - S)
    to_d = normalize(np.asarray(D, dtype=np.float64) - S)
    s = to_c + to_d
    n = norm(s)
    if np.any(n < 1e-6):
        raise DegenerateGeometryError("antipodal rays: bisector undefined")
    return s / n[..., None]


def half_angle(S: np.ndarray, C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Incidence angle theta: half the angle between rays S->C and S->D.

    theta in [0, pi/2); pi would mean antipodal rays (degenerate).
    """
    to_c = normalize(np.asarray(C, dtype=np.float64) - S)
    to_d = normalize(np.asarray(D, dtype=np.float64) - S)
    c = np.clip(dot(to_c, to_d), -1.0, 1.0)
    if np.any(c <= -1.0 + 1e-12):
        raise DegenerateGeometryError("antipodal rays: half angle undefined")
    return 0.5 * np.arccos(c)


def half_angle_along_ray(origin: np.ndarray, direction: np.ndarray, D: np.ndarray, s):
    """half_angle at S = origin + s*direction without the degeneracy check.

    Vectorized over s and D. This is g(s), strictly decreasing in s;
    reconstruct.solve_depth_for_theta inverts it in closed form, and the
    tests use it as the reference for that inverse.
    """
    s = np.asarray(s, dtype=np.float64)
    S = origin + s[..., None] * direction
    to_c = -direction  # S -> origin is exactly the reversed ray direction
    to_d = normalize(np.asarray(D, dtype=np.float64) - S)
    c = np.clip(dot(to_c, to_d), -1.0, 1.0)
    return 0.5 * np.arccos(c)
