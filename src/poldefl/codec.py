"""Display pattern generation and decoding.

Two correspondence routes:

* multi-shot: K-step phase-shifted sinusoids per axis at a unit frequency
  and a high frequency, unwrapped against each other;
* single-shot: one cross-sinusoid frame demodulated in the Fourier domain
  (heterodyned by the phase predicted from a stored low-frequency prior,
  then lowpassed around DC), unwrapped against that prior.

Display phase convention: a pattern of frequency f on axis u encodes
phi = 2*pi*f*i/w_d at display pixel column i, so the decoded absolute
phase maps back to display coordinates via i = phi*w_d/(2*pi*f).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import DisplayPlane


class CodecError(ValueError):
    """Invalid pattern spec or decode configuration."""


FREQ_LOW = 1.0  # one cycle: the low-frequency phase is absolute as decoded


@dataclass(frozen=True)
class PatternSpec:
    """Display pattern parameters.

    kind 'phase-shift': K-step sinusoids on the listed axes, one set at
    FREQ_LOW (absolute reference) and one at freq cycles across the
    display extent. kind 'cross-sinusoid': a single frame summing a
    horizontal and a vertical carrier at (f_u, f_v) cycles.
    """

    kind: str = "phase-shift"
    axes: tuple[str, ...] = ("u", "v")
    steps: int = 4
    freq: float = 16.0
    f_u: float = 32.0
    f_v: float = 32.0
    mean: float = 0.7
    depth: float = 0.25

    def __post_init__(self):
        if self.kind not in ("phase-shift", "cross-sinusoid"):
            raise CodecError(f"unknown pattern kind {self.kind!r}")
        if self.steps < 3:
            raise CodecError("phase shifting needs K >= 3 steps")
        if min(self.freq, self.f_u, self.f_v) <= 0:
            raise CodecError("frequencies must be positive")
        if not (0.0 <= self.mean - self.depth and self.mean + self.depth <= 1.0):
            raise CodecError("mean +/- depth must stay within [0, 1]")
        for ax in self.axes:
            if ax not in ("u", "v"):
                raise CodecError(f"unknown axis {ax!r}")


@dataclass
class PatternFrame:
    """One display raster plus the metadata needed to decode it."""

    raster: np.ndarray  # (h_d, w_d) in [0, 1]
    kind: str
    axis: str  # 'u' | 'v' | 'both'
    freq: float
    step: int = 0
    steps: int = 1
    role: str = "code"  # 'code' | 'prior'

    def meta(self) -> dict:
        return {
            "kind": self.kind,
            "axis": self.axis,
            "frequency": self.freq,
            "step": self.step,
            "steps": self.steps,
            "role": self.role,
            "units": "display intensity fraction, phase = 2*pi*f*index/extent",
        }


def _axis_phase(disp: DisplayPlane, axis: str, freq: float) -> np.ndarray:
    i = np.arange(disp.width, dtype=np.float64) + 0.5
    j = np.arange(disp.height, dtype=np.float64) + 0.5
    ii, jj = np.meshgrid(i, j)
    if axis == "u":
        return 2.0 * np.pi * freq * ii / disp.width
    return 2.0 * np.pi * freq * jj / disp.height


def generate_patterns(spec: PatternSpec, disp: DisplayPlane) -> list[PatternFrame]:
    """Emit the display rasters for a pattern spec.

    Phase-shift: steps frames per (axis, frequency) pair, phase offsets
    2*pi*k/K. Cross-sinusoid: a single frame
    mean + depth*(cos(phi_u) + cos(phi_v))/2, preceded by low-frequency
    phase-shift prior frames used for unwrapping.
    """
    frames: list[PatternFrame] = []
    if spec.kind == "phase-shift":
        for axis in spec.axes:
            for freq in (FREQ_LOW, spec.freq):
                phase = _axis_phase(disp, axis, freq)
                for k in range(spec.steps):
                    delta = 2.0 * np.pi * k / spec.steps
                    raster = spec.mean + spec.depth * np.cos(phase - delta)
                    frames.append(
                        PatternFrame(raster, "phase-shift", axis, freq, k, spec.steps)
                    )
        return frames

    # Single-shot: low-frequency prior frames, then the cross-sinusoid.
    for axis in spec.axes:
        phase = _axis_phase(disp, axis, FREQ_LOW)
        for k in range(spec.steps):
            delta = 2.0 * np.pi * k / spec.steps
            raster = spec.mean + spec.depth * np.cos(phase - delta)
            frames.append(
                PatternFrame(
                    raster, "phase-shift", axis, FREQ_LOW, k, spec.steps, role="prior"
                )
            )
    cross = spec.mean + spec.depth * 0.5 * (
        np.cos(_axis_phase(disp, "u", spec.f_u)) + np.cos(_axis_phase(disp, "v", spec.f_v))
    )
    frames.append(PatternFrame(cross, "cross-sinusoid", "both", spec.f_u))
    return frames


def decode_phase_shift(captured, steps: int, modulation_threshold: float = 1e-6):
    """K-step phase estimator.

    captured: sequence of K rasters taken with phase offsets 2*pi*k/K.
    Returns (wrapped_phase in [0, 2*pi), modulation_amplitude, valid).
    A pattern generated as mean + depth*cos(phi - 2*pi*k/K) decodes to
    phi with modulation = depth (times any common intensity scale).
    """
    if len(captured) != steps or steps < 3:
        raise CodecError("need exactly K >= 3 equally spaced frames")
    stack = np.stack([np.asarray(c, dtype=np.float64) for c in captured])
    deltas = 2.0 * np.pi * np.arange(steps) / steps
    num = np.tensordot(np.sin(deltas), stack, axes=1)
    den = np.tensordot(np.cos(deltas), stack, axes=1)
    phase = np.mod(np.arctan2(num, den), 2.0 * np.pi)
    modulation = 2.0 / steps * np.hypot(num, den)
    return phase, modulation, modulation > modulation_threshold


def unwrap_two_frequency(phase_low, phase_high, freq_high: float):
    """Temporal unwrap of a high-frequency wrapped phase.

    phase_low must be absolute (one cycle across the display), so
    freq_high must be a whole number of cycles. Returns (absolute_high,
    valid, residual); residual is the distance of the fringe-order
    estimate from an integer, in radians, and valid is residual <= pi/2.
    """
    if abs(freq_high - round(freq_high)) > 1e-9:
        raise CodecError("freq_high must be an integer number of cycles")
    phase_low = np.asarray(phase_low, dtype=np.float64)
    phase_high = np.asarray(phase_high, dtype=np.float64)
    order_real = (freq_high * phase_low - phase_high) / (2.0 * np.pi)
    order = np.round(order_real)
    residual = 2.0 * np.pi * np.abs(order_real - order)
    return phase_high + 2.0 * np.pi * order, residual <= np.pi / 2, residual


# Single-shot decode settings: the margin (pixels) cut from the image
# border and then eroded from the valid mask to hide transform edge
# effects, and the lowpass radius (cycles/pixel) that keeps the
# heterodyned residual phase around DC.
GUARD = 8
LOWPASS_BANDWIDTH = 0.02


def _raised_cosine_lowpass(shape, bandwidth):
    """2-D raised-cosine window around DC, radius `bandwidth` (cycles/pixel)."""
    ky = np.fft.fftfreq(shape[0])[:, None]
    kx = np.fft.fftfreq(shape[1])[None, :]
    r = np.hypot(kx, ky)
    return np.where(r < bandwidth, 0.5 * (1.0 + np.cos(np.pi * r / bandwidth)), 0.0)


def _erode(mask, iterations: int):
    """Binary erosion by the 4-neighbour cross; pixels past the border
    count as False."""
    for _ in range(iterations):
        p = np.pad(mask, 1)
        mask = mask & p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
    return mask


def decode_fourier_single_shot(
    captured,
    reference_phase: dict[str, np.ndarray],
    valid_mask=None,
    amplitude_threshold: float = 1e-6,
):
    """Takeda-style demodulation of a single cross-sinusoid frame against
    a space-variant carrier.

    `reference_phase[axis]` is a per-pixel predicted phase in radians
    (the scaled low-frequency prior). The frame is heterodyned by
    exp(-i*reference) so the residual sits near DC, and a raised-cosine
    lowpass extracts it. This tracks curved surfaces whose instantaneous
    frequency sweeps too widely for any fixed bandpass.

    Returns {axis: {"phase", "valid"}} for each axis of reference_phase:
    wrapped phase in [0, 2*pi), and validity from the mask shrunk by the
    guard margin and the fringe amplitude.
    """
    img = np.asarray(captured, dtype=np.float64)
    if valid_mask is None:
        valid_mask = np.ones_like(img, dtype=bool)
    fill = float(np.mean(img[valid_mask])) if np.any(valid_mask) else 0.0
    # zero outside the mask: the reference is meaningless there and a
    # constant fill would alias into the baseband after mixing
    centred = np.where(valid_mask, img - fill, 0.0)

    interior = np.zeros_like(valid_mask)
    interior[GUARD:-GUARD, GUARD:-GUARD] = valid_mask[GUARD:-GUARD, GUARD:-GUARD]
    interior = _erode(interior, GUARD)
    window = _raised_cosine_lowpass(img.shape, LOWPASS_BANDWIDTH)

    out = {}
    for axis, ref in reference_phase.items():
        ref = np.asarray(ref, dtype=np.float64)
        if ref.shape != img.shape:
            raise CodecError("reference phase dimensions do not match")
        analytic = np.fft.ifft2(np.fft.fft2(centred * np.exp(-1j * ref)) * window)
        out[axis] = {
            "phase": np.mod(np.angle(analytic) + ref, 2.0 * np.pi),
            "valid": interior & (2.0 * np.abs(analytic) > amplitude_threshold),
        }
    return out


@dataclass
class CorrespondenceMap:
    """Per camera pixel: real-valued display coordinates (i, j), a
    validity mask and the decode residual."""

    i: np.ndarray
    j: np.ndarray
    valid: np.ndarray
    residual: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.residual is None:
            self.residual = np.zeros_like(self.i)


def phase_to_display_coords(
    abs_phase_u,
    abs_phase_v,
    freq_u: float,
    freq_v: float,
    disp: DisplayPlane,
    valid=None,
    residual=None,
) -> CorrespondenceMap:
    """Absolute phases -> display pixel coordinates.

    i = phi_u * w_d / (2*pi*f_u), j likewise; out-of-bounds coordinates
    are invalidated (boundary values are kept).
    """
    abs_phase_u = np.asarray(abs_phase_u, dtype=np.float64)
    abs_phase_v = np.asarray(abs_phase_v, dtype=np.float64)
    i = abs_phase_u * disp.width / (2.0 * np.pi * freq_u)
    j = abs_phase_v * disp.height / (2.0 * np.pi * freq_v)
    in_bounds = (i >= 0) & (i <= disp.width) & (j >= 0) & (j <= disp.height)
    if valid is None:
        valid = np.ones_like(i, dtype=bool)
    return CorrespondenceMap(i=i, j=j, valid=valid & in_bounds, residual=residual)
