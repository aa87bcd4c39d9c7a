"""Polarimetric measurement model.

Stokes analysis of four-channel polarizer stacks, degree-of-polarization
(DoP) models for dielectric and metallic specular reflection, complex-index
Fresnel reflectances, and numeric inversion of DoP to the two candidate
incidence angles.

Polarizer/AoLP angles are measured in the sensor plane from the camera
x axis towards the camera y axis, modulo pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Grazing cutoff: stay this far below pi/2 so tan(theta) cannot overflow.
GRAZING_EPS = 1e-4


@dataclass(frozen=True)
class MaterialOpticalProperties:
    """Complex refractive index m + i*kappa. kappa == 0 means dielectric."""

    m: float
    kappa: float = 0.0

    def __post_init__(self):
        if self.m <= 1.0:
            raise ValueError("refractive index m must exceed 1")
        if self.kappa < 0.0:
            raise ValueError("attenuation kappa must be >= 0")

    @property
    def is_dielectric(self) -> bool:
        return self.kappa == 0.0

    @property
    def default_model(self) -> str:
        return "eq5" if self.is_dielectric else "eq6"


# Named presets (complex indices of the measured objects).
MATERIAL_PRESETS = {
    "bearing-ball-steel": MaterialOpticalProperties(m=2.76, kappa=3.79),
    "chrome": MaterialOpticalProperties(m=3.13, kappa=3.31),
}


def dop_dielectric(theta, m: float):
    """DoP of specular reflection off a dielectric with index m.

    rho = 2 sin^2(t) cos(t) sqrt(m^2 - sin^2 t)
          / (m^2 - sin^2 t - m^2 sin^2 t + 2 sin^4 t)
    """
    theta = np.asarray(theta, dtype=np.float64)
    s2 = np.sin(theta) ** 2
    num = 2.0 * s2 * np.cos(theta) * np.sqrt(m * m - s2)
    den = m * m - s2 - m * m * s2 + 2.0 * s2 * s2
    return num / den


def dop_metal(theta, m: float, kappa: float):
    """Approximate DoP for a metal with complex index m + i*kappa.

    rho = 2 m tan(t) sin(t) / (tan^2 t sin^2 t + m^2 (1 + kappa^2))
    """
    theta = np.asarray(theta, dtype=np.float64)
    ts = np.tan(theta) * np.sin(theta)
    return 2.0 * m * ts / (ts * ts + m * m * (1.0 + kappa * kappa))


def fresnel_reflectance(theta, m: float, kappa: float = 0.0):
    """Exact complex-index Fresnel power reflectances (|r_s|^2, |r_p|^2)."""
    theta = np.asarray(theta, dtype=np.float64)
    n2 = complex(m, kappa) ** 2
    cos_t = np.cos(theta)
    w = np.sqrt(n2 - np.sin(theta) ** 2 + 0j)
    r_s = (cos_t - w) / (cos_t + w)
    r_p = (n2 * cos_t - w) / (n2 * cos_t + w)
    return np.abs(r_s) ** 2, np.abs(r_p) ** 2


def dop_exact(theta, m: float, kappa: float = 0.0):
    """DoP from exact Fresnel reflectances: (Rs - Rp) / (Rs + Rp)."""
    rs, rp = fresnel_reflectance(theta, m, kappa)
    # Rs - Rp can round to ~ -1e-16 at normal incidence; keep the result
    # inside the mathematically guaranteed [0, 1].
    return np.clip((rs - rp) / (rs + rp), 0.0, 1.0)


def dop_model(theta, mat: MaterialOpticalProperties, model: str | None = None):
    """Evaluate the selected DoP model ('eq5' | 'eq6' | 'exact')."""
    model = model or mat.default_model
    if model == "eq5":
        return dop_dielectric(theta, mat.m)
    if model == "eq6":
        return dop_metal(theta, mat.m, mat.kappa)
    if model == "exact":
        return dop_exact(theta, mat.m, mat.kappa)
    raise ValueError(f"unknown DoP model {model!r}")


@lru_cache(maxsize=32)
def dop_peak(m: float, kappa: float, model: str) -> tuple[float, float]:
    """(theta_peak, rho_max) of the unimodal DoP curve on [0, pi/2): the
    sign change of the slope rho(t + h) - rho(t - h), found by bisection."""
    mat = MaterialOpticalProperties(m=m, kappa=kappa)
    h = 1e-6
    slope = lambda t: dop_model(t + h, mat, model) - dop_model(t - h, mat, model)
    theta = float(_bisect_monotone(slope, GRAZING_EPS, np.pi / 2 - GRAZING_EPS, 0.0, 1e-12))
    return theta, float(dop_model(theta, mat, model))


@dataclass
class StokesEstimate:
    """Per-pixel linear Stokes summary of a four-channel stack.

    dop is clamped to [0, 1]; aolp is in [0, pi). valid marks pixels
    above the dark threshold.
    """

    s0: np.ndarray
    dop: np.ndarray
    aolp: np.ndarray
    valid: np.ndarray

    @property
    def i_max(self):
        return self.s0 * (1.0 + self.dop) / 2.0

    @property
    def i_min(self):
        return self.s0 * (1.0 - self.dop) / 2.0


def stokes_from_quad(i0, i45, i90, i135, dark_threshold: float = 1e-6) -> StokesEstimate:
    """Closed-form Stokes solution for the standard four polarizer angles."""
    i0, i45, i90, i135 = (np.asarray(x, dtype=np.float64) for x in (i0, i45, i90, i135))
    if not (i0.shape == i45.shape == i90.shape == i135.shape):
        raise ValueError("the four channel rasters must share dimensions")
    s0 = (i0 + i45 + i90 + i135) / 2.0
    s1 = i0 - i90
    s2 = i45 - i135
    valid = s0 > dark_threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_raw = np.sqrt(s1 * s1 + s2 * s2) / s0
    rho_raw = np.where(valid, rho_raw, 0.0)
    phi = 0.5 * np.arctan2(s2, s1)
    phi = np.mod(phi, np.pi)
    return StokesEstimate(
        s0=s0,
        dop=np.clip(rho_raw, 0.0, 1.0),
        aolp=phi,
        valid=valid,
    )


@dataclass
class IncidenceCandidates:
    """The two incidence angles compatible with a measured DoP.

    saturated marks pixels whose measured DoP exceeded the model peak;
    those pixels carry theta_peak on both branches.
    """

    theta_low: np.ndarray
    theta_high: np.ndarray
    saturated: np.ndarray
    theta_peak: float
    rho_max: float


def _bisect_monotone(f, lo, hi, target, tol: float, iterations: int | None = None):
    """Vectorized bisection for f(theta) = target on a monotone bracket.

    lo/hi/target broadcast together; assumes sign(f(lo)-target) !=
    sign(f(hi)-target) elementwise (caller guarantees the bracket).
    """
    lo = np.array(np.broadcast_arrays(lo, target)[0], dtype=np.float64)
    hi = np.array(np.broadcast_arrays(hi, target)[0], dtype=np.float64)
    if iterations is None:
        span = float(np.max(hi - lo, initial=0.0))
        iterations = max(1, int(np.ceil(np.log2(max(span, tol) / tol))) + 1)
    f_lo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        # Strict inequality: when an endpoint already sits on the root
        # (f == target) the bracket must shrink towards it, not away.
        same = (f_mid - target) * (f_lo - target) > 0
        lo = np.where(same, mid, lo)
        f_lo = np.where(same, f_mid, f_lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def invert_dop(
    rho,
    mat: MaterialOpticalProperties,
    tol: float = 1e-7,
    model: str | None = None,
) -> IncidenceCandidates:
    """Invert the DoP curve: measured rho -> the two candidate thetas.

    The curve is unimodal on [0, pi/2): one root below theta_peak, one
    above. Vectorized over rho. Saturated pixels (rho > rho_max) are
    flagged and pinned to theta_peak.
    """
    model = model or mat.default_model
    rho = np.asarray(rho, dtype=np.float64)
    if np.any((rho < 0) | (rho > 1)):
        raise ValueError("rho must lie in [0, 1]")
    theta_peak, rho_max = dop_peak(mat.m, mat.kappa, model)
    hi = np.pi / 2 - GRAZING_EPS

    f = lambda t: dop_model(t, mat, model)
    saturated = rho > rho_max
    rho_c = np.where(saturated, rho_max, rho)

    theta_low = _bisect_monotone(f, 0.0, theta_peak, rho_c, tol)
    theta_high = _bisect_monotone(f, theta_peak, hi, rho_c, tol)
    # Below the grazing-end DoP there is no high-branch sign change; the
    # root is pinned to the cutoff (rho = 0 -> grazing candidate).
    rho_grazing = float(f(hi))
    theta_high = np.where(rho_c <= rho_grazing, hi, theta_high)
    theta_low = np.where(rho_c <= 0.0, 0.0, theta_low)

    theta_low = np.where(saturated, theta_peak, theta_low)
    theta_high = np.where(saturated, theta_peak, theta_high)
    return IncidenceCandidates(
        theta_low=theta_low,
        theta_high=theta_high,
        saturated=saturated,
        theta_peak=theta_peak,
        rho_max=rho_max,
    )
