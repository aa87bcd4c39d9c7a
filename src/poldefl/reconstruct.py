"""Ambiguity-free fusion of polarimetric incidence angles with the
deflectometric correspondence, plus the orthographic baseline.

Per pixel: the measured DoP gives two candidate incidence angles. For
each candidate theta the surface point S = O + s*d on the camera ray
follows from the law of sines in the triangle camera centre O, S and
display point D: the angle at S is 2*theta and the angle at O is phi,
the angle between the ray and OD, so

    s = |OD| * sin(phi + 2*theta) / sin(2*theta).

Candidates whose depth falls outside the working distance interval are
discarded; the surviving root fixes the surface point and, through the
bisector construction, the normal.
"""

from __future__ import annotations

from enum import IntEnum
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .codec import CorrespondenceMap
from .geometry import DisplayPlane, PinholeCamera, WorkingDistanceInterval
from .polarization import (
    IncidenceCandidates,
    MaterialOpticalProperties,
    StokesEstimate,
    invert_dop,
)

# Retro-reflection threshold: below this theta the half-angle equation is
# satisfied by every s, so depth is indeterminate.
THETA_ZERO_EPS = 1e-6


class Status(IntEnum):
    OK = 0
    NO_ROOT = 1
    BOTH_FEASIBLE = 2
    SATURATED_DOP = 3
    INVALID_DECODE = 4


@dataclass
class SurfaceSolution:
    """Per-pixel fused solution (nan where not solved)."""

    depth: np.ndarray  # standoff s along the ray, mm
    points: np.ndarray
    normals: np.ndarray
    theta: np.ndarray
    status: np.ndarray
    # The DoP inverse the fusion used: NaN thetas and saturated False
    # off the measurable pixels, where no inverse was run.
    candidates: IncidenceCandidates

    @property
    def ok(self) -> np.ndarray:
        return self.status == Status.OK

    def counts(self) -> dict[str, int]:
        return {s.name.lower(): int(np.sum(self.status == s)) for s in Status}


def solve_depth_for_theta(
    origin: np.ndarray,
    dirs: np.ndarray,
    D: np.ndarray,
    theta,
    interval: WorkingDistanceInterval,
):
    """Depth s along each ray at which half_angle(O + s*d, O, D) = theta.

    Law of sines in the triangle O, S, D (see the module docstring).
    With along = OD.d = |OD|cos(phi) and perp = |OD|sin(phi) the sine of
    the sum expands to s = along + perp / tan(2*theta). Vectorized;
    returns nan where s leaves the working interval (this covers
    phi + 2*theta >= pi, where s <= 0), where theta is degenerate (~0)
    or nan, and where D lies on the ray line.
    """
    theta = np.asarray(theta, dtype=np.float64)
    rel = np.asarray(D, dtype=np.float64) - origin
    along = geo.dot(rel, dirs)
    # D on the ray line is the retro-reflective degeneracy: theta = 0 for
    # every s beyond D, so no root determines the depth.
    perp = np.linalg.norm(rel - along[..., None] * dirs, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = along + perp / np.tan(2.0 * theta)
    feasible = (theta > THETA_ZERO_EPS) & (perp > 1e-6) & interval.contains(s)
    return np.where(feasible, s, np.nan)


def _fuse(rho, D, rays, origin, interval, mat, dop_model, tol_theta, strict_dop):
    """The one fusion path, on 1-D arrays of measurable pixels: DoP
    inverse, depth per branch, status and normals. Returns the solution
    over those pixels and the per-branch depths (s_low, s_high)."""
    cand = invert_dop(rho, mat, tol=tol_theta, model=dop_model)
    # The strict policy takes a saturated DoP for no measurement, so its
    # clamped angles are not solved.
    keep = ~(strict_dop & cand.saturated)
    theta_low = np.where(keep, cand.theta_low, np.nan)
    theta_high = np.where(keep, cand.theta_high, np.nan)
    s_low = solve_depth_for_theta(origin, rays, D, theta_low, interval)
    s_high = solve_depth_for_theta(origin, rays, D, theta_high, interval)

    low_ok = np.isfinite(s_low)
    high_ok = np.isfinite(s_high)
    solved = low_ok | high_ok
    s = np.where(low_ok, s_low, s_high)
    theta = np.where(low_ok, theta_low, theta_high)

    status = np.full(rho.shape, int(Status.NO_ROOT), dtype=np.int16)
    status[solved] = Status.OK
    status[low_ok & high_ok] = Status.BOTH_FEASIBLE
    if strict_dop:
        status[cand.saturated] = Status.INVALID_DECODE
    else:
        status[solved & cand.saturated] = Status.SATURATED_DOP
    usable = np.isin(status, (Status.OK, Status.BOTH_FEASIBLE, Status.SATURATED_DOP))

    s = np.where(usable, s, np.nan)
    points = origin + s[..., None] * rays
    normals = np.full(points.shape, np.nan)
    if np.any(usable):
        normals[usable] = geo.bisector_normal(points[usable], origin, D[usable])
    sol = SurfaceSolution(
        depth=s,
        points=points,
        normals=normals,
        theta=np.where(usable, theta, np.nan),
        status=status,
        candidates=cand,
    )
    return sol, (s_low, s_high)


def _scatter(mask, packed, fill):
    """Raster of mask's shape holding packed (one entry per True pixel)
    on the mask and fill elsewhere."""
    out = np.full(mask.shape + packed.shape[1:], fill, dtype=packed.dtype)
    out[mask] = packed
    return out


def fuse_map(
    stokes: StokesEstimate,
    corr: CorrespondenceMap,
    cam: PinholeCamera,
    disp: DisplayPlane,
    interval: WorkingDistanceInterval,
    mat: MaterialOpticalProperties,
    dop_model: str | None = None,
    tol_theta: float = 1e-7,
    strict_dop: bool = False,
):
    """Fuse DoP and correspondence on the measurable pixels (a valid
    Stokes estimate and a decoded correspondence); every other pixel is
    INVALID_DECODE. dop_model None inverts with the material's model.

    Returns (SurfaceSolution, stats) over the full raster. Feasibility
    filtering over the working interval realizes the geometric
    constraints; a pixel where both branches survive takes the low branch
    and is flagged BOTH_FEASIBLE.
    """
    if stokes.dop.shape != corr.i.shape:
        raise ValueError("stokes and correspondence rasters must be co-registered")
    shape = stokes.dop.shape
    rays = cam.ray_grid()
    if rays.shape[:-1] != shape:
        raise ValueError("raster dimensions do not match the camera model")

    measurable = stokes.valid & corr.valid
    D = disp.index_to_point(np.stack([corr.i[measurable], corr.j[measurable]], axis=-1))
    packed, _ = _fuse(stokes.dop[measurable], D, rays[measurable], cam.center, interval,
                      mat, dop_model, tol_theta, strict_dop)
    cand = packed.candidates
    sol = SurfaceSolution(
        depth=_scatter(measurable, packed.depth, np.nan),
        points=_scatter(measurable, packed.points, np.nan),
        normals=_scatter(measurable, packed.normals, np.nan),
        theta=_scatter(measurable, packed.theta, np.nan),
        status=_scatter(measurable, packed.status, int(Status.INVALID_DECODE)),
        candidates=IncidenceCandidates(
            theta_low=_scatter(measurable, cand.theta_low, np.nan),
            theta_high=_scatter(measurable, cand.theta_high, np.nan),
            saturated=_scatter(measurable, cand.saturated, False),
            theta_peak=cand.theta_peak,
            rho_max=cand.rho_max,
        ),
    )

    counts = sol.counts()
    n_meas = int(np.sum(measurable))
    stats = {
        "pixels": int(np.prod(shape)),
        "measurable": n_meas,
        "counts": counts,
        "ok_fraction": counts["ok"] / n_meas if n_meas else 0.0,
        "theta_peak": cand.theta_peak,
        "rho_max": cand.rho_max,
    }
    return sol, stats


def fuse_pixel(
    rho: float,
    D: np.ndarray,
    ray: np.ndarray,
    origin: np.ndarray,
    interval: WorkingDistanceInterval,
    mat: MaterialOpticalProperties,
    *,
    dop_model: str | None = None,
    tol_theta: float = 1e-7,
    strict_dop: bool = False,
):
    """Fusion of one measurable pixel through the code path fuse_map runs.

    Returns a dict with the status and the depth of each branch
    ("branches", None where infeasible); a usable pixel also carries the
    chosen branch, depth, point, normal and theta.
    """
    sol, depths = _fuse(
        np.asarray([rho], dtype=np.float64),
        np.asarray(D, dtype=np.float64)[None, :],
        np.asarray(ray, dtype=np.float64)[None, :],
        np.asarray(origin, dtype=np.float64),
        interval, mat, dop_model, tol_theta, strict_dop,
    )
    out = {name: float(s[0]) if np.isfinite(s[0]) else None
           for name, s in zip(("low", "high"), depths)}
    status = Status(int(sol.status[0]))
    if status in (Status.INVALID_DECODE, Status.NO_ROOT):
        return {"status": status, "branches": out}
    return {
        "status": status,
        "branch": "low" if out["low"] is not None else "high",
        "depth": float(sol.depth[0]),
        "point": sol.points[0],
        "normal": sol.normals[0],
        "theta": float(sol.theta[0]),
        "branches": out,
    }


def export_geometry(solution: SurfaceSolution, out_dir):
    """Write solution artifacts: PLY point cloud (usable pixels, with
    normals), plus depth/normal/theta/status PFM rasters."""
    from pathlib import Path

    from .pfmio import write_pfm, write_ply, write_sidecar

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    usable = np.isfinite(solution.depth)
    write_ply(out / "points.ply", solution.points[usable], solution.normals[usable])
    write_pfm(out / "depth.pfm", np.where(usable, solution.depth, 0.0))
    write_sidecar(out / "depth.pfm", {"units": "mm", "kind": "standoff depth"})
    write_pfm(out / "normal.pfm", np.where(usable[..., None], solution.normals, 0.0))
    write_sidecar(out / "normal.pfm", {"units": "unit vector, world frame", "kind": "normal"})
    write_pfm(out / "theta.pfm", np.where(usable, solution.theta, 0.0))
    write_sidecar(out / "theta.pfm", {"units": "radians", "kind": "incidence angle"})
    write_pfm(out / "status.pfm", solution.status.astype(np.float32))
    write_sidecar(
        out / "status.pfm",
        {"kind": "status codes", "codes": {s.name.lower(): int(s) for s in Status}},
    )
    return out


@dataclass
class OrthographicNormals:
    """The four orthographic-assumption normal candidates per pixel, in
    world coordinates, plus an optional best-case selection. Both are NaN
    where valid is False."""

    candidates: np.ndarray  # (h, w, 4, 3)
    valid: np.ndarray
    best: np.ndarray | None = None  # closest candidate to ground truth


def orthographic_baseline(
    stokes: StokesEstimate,
    cand: IncidenceCandidates,
    cam: PinholeCamera,
    truth_normals: np.ndarray | None = None,
) -> OrthographicNormals:
    """Conventional SfP normals under the orthographic assumption.

    Zenith candidates {theta_low, theta_high} from the DoP inverse (the
    one fusion computed, SurfaceSolution.candidates), azimuth
    candidates alpha = aolp +/- pi/2; camera-frame normal
    (sin t cos a, sin t sin a, -cos t) (towards the camera), rotated to
    world. Only pixels with a valid Stokes estimate and finite candidates
    get normals: fusion leaves the thetas NaN off its measurable pixels,
    so no normal is made up there. The best-case map (needs truth)
    upper-bounds what any disambiguation could achieve and isolates the
    orthographic error.
    """
    valid = (stokes.valid & np.isfinite(stokes.aolp)
             & np.isfinite(cand.theta_low) & np.isfinite(cand.theta_high))
    aolp = stokes.aolp[valid]
    cands = np.empty(aolp.shape + (4, 3))
    idx = 0
    for th in (cand.theta_low[valid], cand.theta_high[valid]):
        for da in (np.pi / 2, -np.pi / 2):
            alpha = aolp + da
            n_cam = np.stack(
                [
                    np.sin(th) * np.cos(alpha),
                    np.sin(th) * np.sin(alpha),
                    -np.cos(th),
                ],
                axis=-1,
            )
            cands[:, idx, :] = cam.camera_to_world(n_cam)
            idx += 1
    best = None
    if truth_normals is not None:
        dots = np.clip(np.sum(cands * truth_normals[valid][:, None, :], axis=-1), -1.0, 1.0)
        pick = np.argmax(np.where(np.isfinite(dots), dots, -np.inf), axis=-1)
        best = _scatter(valid, np.take_along_axis(cands, pick[:, None, None], axis=-2)[:, 0, :],
                        np.nan)
    return OrthographicNormals(candidates=_scatter(valid, cands, np.nan), valid=valid, best=best)
