"""Quantitative evaluation: angular normal errors against ground truth,
least-squares sphere fitting, and error profiles over the field angle.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .geometry import PinholeCamera


class MetricError(ValueError):
    pass


def angular_error_deg(estimated: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-pixel angle between normal fields, degrees."""
    d = np.clip(np.sum(estimated * truth, axis=-1), -1.0, 1.0)
    return np.degrees(np.arccos(d))


def normal_rmse(estimated, truth, mask):
    """RMSE (degrees) of the angular normal error over the mask, plus
    50/95/max percentiles."""
    mask = np.asarray(mask, dtype=bool)
    if not np.any(mask):
        raise MetricError("empty evaluation mask")
    err = angular_error_deg(np.asarray(estimated), np.asarray(truth))[mask]
    rmse = float(np.sqrt(np.mean(err**2, dtype=np.float64)))
    p50, p95 = np.percentile(err, [50, 95])
    return rmse, {"p50": float(p50), "p95": float(p95), "max": float(np.max(err))}


def depth_rmse(estimated, truth, mask) -> float:
    mask = np.asarray(mask, dtype=bool)
    if not np.any(mask):
        raise MetricError("empty evaluation mask")
    d = (np.asarray(estimated) - np.asarray(truth))[mask]
    return float(np.sqrt(np.mean(d**2, dtype=np.float64)))


def fit_sphere(points: np.ndarray):
    """Least-squares sphere fit: algebraic linear solve, then Gauss-Newton
    refinement of the orthogonal distances.

    |p|^2 = 2 p.c + (r^2 - |c|^2) is linear in (c, k); the geometric pass
    then minimizes sum(|p - c| - r)^2, iterating until the step stalls
    (at most 50 iterations).
    Returns (center, radius, rms_residual).
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(p) < 4:
        raise MetricError("sphere fit needs at least 4 points")
    A = np.hstack([2.0 * p, np.ones((len(p), 1))])
    b = np.sum(p * p, axis=1)
    sol, residues, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < 4:
        raise MetricError("degenerate point set (coplanar?) for sphere fit")
    center = sol[:3]
    r2 = sol[3] + center @ center
    if r2 <= 0:
        raise MetricError("sphere fit produced non-positive radius")
    radius = float(np.sqrt(r2))

    for _ in range(50):
        rel = p - center
        d = np.linalg.norm(rel, axis=1)
        if np.any(d == 0):
            break
        res = d - radius
        # Jacobian rows: d(res)/d(center) = -rel/d, d(res)/d(radius) = -1
        J = np.hstack([-rel / d[:, None], -np.ones((len(p), 1))])
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        center = center + step[:3]
        radius = float(radius + step[3])
        if np.max(np.abs(step)) < 1e-10 * max(radius, 1.0):
            break

    d = np.linalg.norm(p - center, axis=1)
    rms = float(np.sqrt(np.mean((d - radius) ** 2, dtype=np.float64)))
    return center, radius, rms


def field_angle_error_profile(
    estimated, truth, cam: PinholeCamera, mask, bins: int = 8
):
    """Mean angular normal error binned by field angle (angle between the
    pixel ray and the principal axis). Returns a list of
    (bin_center_deg, mean_error_deg, pixel_count); empty bins are skipped.
    """
    mask = np.asarray(mask, dtype=bool)
    if not np.any(mask):
        raise MetricError("empty evaluation mask")
    rays = cam.ray_grid()
    axis = cam.camera_to_world(np.array([0.0, 0.0, 1.0]))
    field = np.degrees(np.arccos(np.clip(np.sum(rays * axis, axis=-1), -1.0, 1.0)))
    err = angular_error_deg(np.asarray(estimated), np.asarray(truth))
    f = field[mask]
    e = err[mask]
    edges = np.linspace(f.min(), f.max() + 1e-9, bins + 1)
    rows = []
    for k in range(bins):
        sel = (f >= edges[k]) & (f < edges[k + 1])
        if not np.any(sel):
            continue
        rows.append(
            (float(0.5 * (edges[k] + edges[k + 1])), float(np.mean(e[sel])), int(np.sum(sel)))
        )
    return rows


@dataclass
class EvaluationReport:
    normal_rmse_deg: float
    normal_percentiles: dict
    normal_rmse_central_deg: float | None
    depth_rmse_mm: float
    sphere_center: list | None
    sphere_radius_mm: float | None
    sphere_rms_residual_mm: float | None
    radius_error_um: float | None
    valid_fraction: float
    status_counts: dict
    field_profile: list

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(
    est_normals,
    est_depth,
    est_points,
    truth_normals,
    truth_depth,
    mask,
    cam: PinholeCamera,
    status_counts: dict | None = None,
    true_radius: float | None = None,
) -> EvaluationReport:
    """Full evaluation over the mask; sphere fit runs when a reference
    radius is given. The central-region RMSE (inner half of the occupied
    field-angle range) is reported alongside the full-mask value."""
    mask = np.asarray(mask, dtype=bool)
    rmse, pct = normal_rmse(est_normals, truth_normals, mask)
    drmse = depth_rmse(est_depth, truth_depth, mask)

    rays = cam.ray_grid()
    axis = cam.camera_to_world(np.array([0.0, 0.0, 1.0]))
    field = np.degrees(np.arccos(np.clip(np.sum(rays * axis, axis=-1), -1.0, 1.0)))
    cutoff = np.percentile(field[mask], 50)
    central = mask & (field <= cutoff)
    central_rmse = normal_rmse(est_normals, truth_normals, central)[0] if np.any(central) else None

    sphere_center = sphere_radius = sphere_rms = radius_err = None
    if true_radius is not None:
        pts = np.asarray(est_points)[mask]
        center, radius, rms = fit_sphere(pts)
        sphere_center = [float(v) for v in center]
        sphere_radius = radius
        sphere_rms = rms
        radius_err = abs(radius - true_radius) * 1000.0  # mm -> um

    return EvaluationReport(
        normal_rmse_deg=rmse,
        normal_percentiles=pct,
        normal_rmse_central_deg=central_rmse,
        depth_rmse_mm=drmse,
        sphere_center=sphere_center,
        sphere_radius_mm=sphere_radius,
        sphere_rms_residual_mm=sphere_rms,
        radius_error_um=radius_err,
        valid_fraction=float(np.mean(mask)),
        status_counts=status_counts or {},
        field_profile=field_angle_error_profile(est_normals, truth_normals, cam, mask),
    )
