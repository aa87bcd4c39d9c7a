"""Forward renderer: ground-truthed four-channel polarization stacks of
analytic specular surfaces reflecting display patterns.

Per camera pixel the tracer intersects the ray with the surface, reflects
it about the surface normal and intersects the reflected ray with the
display plane. The renderer then synthesizes the four polarizer channels
from the Fresnel reflectances:

    I(a) = (I_s + I_p)/2 + (I_s - I_p)/2 * cos(2*(a - aolp))

with the s axis perpendicular to the plane of incidence. An unpolarized
display is assumed, so the source splits evenly between s and p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry as geo
from .codec import PatternSpec, generate_patterns
from .geometry import DisplayPlane, PinholeCamera, WorkingDistanceInterval
from .polarization import MaterialOpticalProperties, dop_model, fresnel_reflectance


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")

    def intersect(self, origin, dirs):
        oc = origin - self.center
        b = geo.dot(dirs, oc)
        c = geo.dot(oc, oc) - self.radius**2
        disc = b * b - c
        with np.errstate(invalid="ignore"):
            sq = np.sqrt(disc)
        t = -b - sq  # near intersection; camera outside the sphere
        hit = (disc > 0) & (t > 1e-9)
        t = np.where(hit, t, np.nan)
        points = origin + t[..., None] * dirs
        normals = (points - self.center) / self.radius
        return t, points, normals


@dataclass(frozen=True)
class Plane:
    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=np.float64))
        object.__setattr__(self, "normal", geo.normalize(self.normal))

    def intersect(self, origin, dirs):
        denom = geo.dot(dirs, self.normal)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = geo.dot(self.point - origin, self.normal) / denom
        hit = (np.abs(denom) > 1e-12) & (t > 1e-9)
        t = np.where(hit, t, np.nan)
        points = origin + t[..., None] * dirs
        normals = np.broadcast_to(self.normal, points.shape).copy()
        return t, points, normals


HIT_TOL = 1e-9  # |z_ray - f| in scene units at which a ray has hit
MAX_STEPS = 500  # sphere-tracing iterations before a ray is given up
_K = np.arange(1.0, 4.0)  # d/du u^k = k u^(k-1) for k = 1..3
# Power-basis to Bernstein-basis coefficients of a cubic on [0, 1].
_TO_BERNSTEIN = np.array([[1, 0, 0, 0], [1, 1 / 3, 0, 0], [1, 2 / 3, 1 / 3, 0], [1, 1, 1, 1]])


def _not_a_knot(n: int) -> np.ndarray:
    """(n-1, 4, n) operator from n equally spaced node values to each
    interval's cubic in u in [0, 1] (power basis, constant first) of the
    not-a-knot interpolating spline (de Boor 1978)."""
    # Unknowns m = h^2 f'' at the nodes. Interior rows: f' is continuous;
    # end rows m0 - 2 m1 + m2 = 0: f''' is continuous at x_1 and x_(n-2).
    k = np.arange(1, n - 1)
    lhs, rhs = np.zeros((n, n)), np.zeros((n, n))
    lhs[k, k - 1], lhs[k, k], lhs[k, k + 1] = 1.0, 4.0, 1.0
    rhs[k, k - 1], rhs[k, k], rhs[k, k + 1] = 6.0, -12.0, 6.0
    lhs[0, :3] = lhs[-1, -3:] = (1.0, -2.0, 1.0)
    m = np.linalg.solve(lhs, rhs)
    y = np.eye(n)
    return np.stack([y[:-1], y[1:] - y[:-1] - (2.0 * m[:-1] + m[1:]) / 6.0,
                     m[:-1] / 2.0, (m[1:] - m[:-1]) / 6.0], axis=1)


def _horner(c: np.ndarray, t) -> np.ndarray:
    """Polynomial with coefficients on c's last axis (constant first) at t."""
    out = c[..., -1]
    for k in range(c.shape[-1] - 2, -1, -1):
        out = out * t + c[..., k]
    return out


@dataclass(frozen=True)
class HeightField:
    """z = f(x, y) over a rectangle, bicubic-interpolated from a grid.

    f is the tensor-product not-a-knot cubic spline through the grid, held
    as one patch per cell: f = sum_pq patches[j, i, p, q] v^p u^q on cell
    (j, i), with u = (x - x_i) / dx and v = (y - y_j) / dy in [0, 1].

    Intersection is sphere tracing (Hart 1996) of g(t) = z_ray(t) - f along
    each ray. A patch lies in the convex hull of its Bernstein coefficients,
    and so does its x-derivative, whose coefficients are 3 / dx times their
    differences along u, so the largest of those bounds |df/dx| (and
    likewise |df/dy|) on the whole grid; the node values do not, since the
    spline overshoots between nodes. Hence
    |g'(t)| <= |d_z| + Lx |d_x| + Ly |d_y|, and the step |g| / that rate
    can never pass the first root, whichever side of the two-sided sheet
    the ray starts on. Each ray starts at its entry into the bounding box
    (whose z-range is the Bernstein coefficients' range, which by the same
    argument holds the whole sheet) and leaves the working set as soon as
    |g| <= HIT_TOL, g changes sign (a rounding overshoot of the root), or
    it leaves the box. Rays still active after MAX_STEPS iterations are
    returned as misses, never as hits at an unconverged t.
    """

    x0: float
    y0: float
    dx: float
    dy: float
    z_grid: np.ndarray  # (ny, nx)

    def __post_init__(self):
        z = np.asarray(self.z_grid, dtype=np.float64)
        object.__setattr__(self, "z_grid", z)
        if z.shape[0] < 4 or z.shape[1] < 4 or not np.all(np.isfinite(z)):
            raise ValueError("heightfield grid must be >= 4x4 and finite")

    @cached_property
    def patches(self) -> np.ndarray:
        """(ny-1, nx-1, 4, 4) power-basis coefficients, see the class doc."""
        ops = [_not_a_knot(n) for n in self.z_grid.shape]
        return np.ascontiguousarray(np.einsum("jpb,iqa,ba->jipq", *ops, self.z_grid, optimize=True))

    @cached_property
    def bernstein(self) -> np.ndarray:
        """The patches' coefficients in the Bernstein basis."""
        return _TO_BERNSTEIN @ self.patches @ _TO_BERNSTEIN.T

    def _locate(self, x, y):
        """Each point's patch, (p, q) swapped so Horner's rule in v reads
        contiguous rows, and its (u, v); off the grid the edge cell's."""
        ny, nx = self.z_grid.shape
        u = (np.asarray(x, dtype=np.float64) - self.x0) / self.dx
        v = (np.asarray(y, dtype=np.float64) - self.y0) / self.dy
        i = np.clip(np.floor(u), 0, nx - 2).astype(np.intp)
        j = np.clip(np.floor(v), 0, ny - 2).astype(np.intp)
        c = np.take(self.patches.reshape(-1, 4, 4), j * (nx - 1) + i, axis=0)
        return np.swapaxes(c, -1, -2), u - i, v - j

    def height(self, x, y) -> np.ndarray:
        """f at the points."""
        c, u, v = self._locate(x, y)
        return _horner(_horner(c, v[..., None]), u)

    def gradient(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """(df/dx, df/dy) at the points."""
        c, u, v = self._locate(x, y)
        fu = _horner(_horner(c, v[..., None])[..., 1:] * _K, u)
        fv = _horner(_horner(c[..., 1:] * _K, v[..., None]), u)
        return fu / self.dx, fv / self.dy

    def slope_bounds(self) -> tuple[float, float]:
        """Sound bounds (Lx, Ly) on |df/dx| and |df/dy| over the grid, from
        the Bernstein coefficients of the derivative patches."""
        b = self.bernstein
        return (3.0 * float(np.max(np.abs(np.diff(b, axis=-1)))) / self.dx,
                3.0 * float(np.max(np.abs(np.diff(b, axis=-2)))) / self.dy)

    def first_hit(self, origin, dirs):
        """Ray parameter of each ray's first hit (nan on a miss), and the
        mask of rays given up as misses at MAX_STEPS."""
        lx, ly = self.slope_bounds()
        ny, nx = self.z_grid.shape
        b = self.bernstein
        lo = np.array([self.x0, self.y0, b.min()])
        hi = np.array([self.x0 + self.dx * (nx - 1), self.y0 + self.dy * (ny - 1), b.max()])

        d = dirs.reshape(-1, 3)
        o = np.broadcast_to(origin, dirs.shape).reshape(-1, 3)
        # Slab test against the bounding box gives each ray's span.
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo - o) / d
            tb = (hi - o) / d
        t = np.maximum(np.max(np.minimum(ta, tb), axis=-1), 1e-6)
        t_far = np.min(np.maximum(ta, tb), axis=-1)
        rate = np.abs(d[:, 2]) + lx * np.abs(d[:, 0]) + ly * np.abs(d[:, 1])
        hit = np.zeros(t.shape, dtype=bool)

        active = np.flatnonzero(t <= t_far)
        side = None  # sign of g at each active ray's box entry
        for _ in range(MAX_STEPS):
            if active.size == 0:
                break
            p = o[active] + t[active, None] * d[active]
            g = p[:, 2] - self.height(np.clip(p[:, 0], lo[0], hi[0]),
                                      np.clip(p[:, 1], lo[1], hi[1]))
            if side is None:
                side = np.sign(g)
            done = (np.abs(g) <= HIT_TOL) | (np.sign(g) != side)
            hit[active[done]] = True
            t[active] += np.where(done, 0.0, np.abs(g) / rate[active])
            keep = ~done & (t[active] <= t_far[active])
            active, side = active[keep], side[keep]

        capped = np.zeros(t.shape, dtype=bool)
        capped[active] = True
        shape = dirs.shape[:-1]
        return np.where(hit, t, np.nan).reshape(shape), capped.reshape(shape)

    def intersect(self, origin, dirs):
        t, _ = self.first_hit(origin, dirs)
        points = origin + t[..., None] * dirs
        hit = np.isfinite(t)
        gx, gy = self.gradient(points[hit, 0], points[hit, 1])
        n = geo.normalize(np.stack([-gx, -gy, np.ones_like(gx)], axis=-1))
        normals = np.full(points.shape, np.nan)
        # two-sided sheet: orient toward the viewer
        normals[hit] = np.where((geo.dot(n, dirs[hit]) > 0)[:, None], -n, n)
        return t, points, normals


@dataclass(frozen=True)
class NoiseModel:
    """Sensor noise: additive Gaussian (fraction of full scale), optional
    photon noise, optional quantization. Deterministic via a counter-based
    (Philox) stream keyed on (seed, frame, channel)."""

    sigma: float = 0.0
    photon: bool = False
    photon_full_well: float = 10000.0
    bits: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.bits not in (0, 8, 10, 12, 16):
            raise ValueError("bits must be one of 0, 8, 10, 12, 16")

    def apply(self, image: np.ndarray, frame: int, channel: int) -> np.ndarray:
        out = np.asarray(image, dtype=np.float64)
        rng = np.random.Generator(
            np.random.Philox(key=[self.seed, (frame << 32) | channel])
        )
        if self.photon:
            n = self.photon_full_well
            out = rng.poisson(np.clip(out, 0.0, None) * n) / n
        if self.sigma > 0:
            out = out + rng.normal(0.0, self.sigma, size=out.shape)
        if self.bits:
            levels = 2**self.bits - 1
            out = np.round(np.clip(out, 0.0, 1.0) * levels) / levels
        return out


@dataclass(frozen=True)
class Scene:
    """Everything the simulator and reconstructor share."""

    camera: PinholeCamera
    display: DisplayPlane
    interval: WorkingDistanceInterval
    surface: object
    material: MaterialOpticalProperties
    pattern: PatternSpec = field(default_factory=PatternSpec)
    noise: NoiseModel = field(default_factory=NoiseModel)
    dop_model: str | None = None  # 'eq5' | 'eq6' | 'exact'; None: the material's

    def __post_init__(self):
        if self.dop_model is None:
            object.__setattr__(self, "dop_model", self.material.default_model)


@dataclass
class GroundTruth:
    """Per-pixel ground truth of a traced scene (nan off the hit mask)."""

    depth: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    theta: np.ndarray
    display_ij: np.ndarray
    display_points: np.ndarray
    mask: np.ndarray


def trace(scene: Scene) -> GroundTruth:
    """Intersect all camera rays with the surface, reflect, and intersect
    with the display. A pixel is a miss if the ray misses the surface, the
    depth falls outside the working interval, or the reflected ray misses
    the display extent."""
    cam = scene.camera
    rays = cam.ray_grid()
    origin = cam.center
    t, points, normals = scene.surface.intersect(origin, rays)
    mask = np.isfinite(t)
    mask &= scene.interval.contains(np.where(mask, t, 0.0))
    mask &= geo.dot(normals, -rays) > 1e-9  # the surface faces the camera

    refl = geo.reflect(rays, normals)
    t_d, plane_hit = scene.display.intersect_ray(points, refl)
    d_points = points + np.where(np.isfinite(t_d), t_d, 0.0)[..., None] * refl
    ij = scene.display.point_to_index(d_points)
    extent = (scene.display.width, scene.display.height)
    mask &= plane_hit & np.all((ij >= 0) & (ij <= extent), axis=-1)
    theta = np.arccos(np.clip(geo.dot(-rays, normals), -1.0, 1.0))

    nanify = lambda a: np.where(mask[..., None] if a.ndim == 3 else mask, a, np.nan)
    return GroundTruth(
        depth=nanify(t),
        points=nanify(points),
        normals=nanify(normals),
        theta=nanify(theta),
        display_ij=nanify(ij),
        display_points=nanify(d_points),
        mask=mask,
    )


def aolp_of(scene: Scene, truth: GroundTruth) -> np.ndarray:
    """Sensor-plane orientation of the s-polarization axis, in [0, pi).

    The s axis is perpendicular to the plane of incidence; its camera-frame
    x-y components give the angle the polarizer analysis sees. Degenerate
    (theta = 0) pixels get 0.
    """
    cam = scene.camera
    rays = cam.ray_grid()
    s_axis = np.cross(rays, truth.normals)
    n = np.linalg.norm(s_axis, axis=-1)
    ok = n > 1e-12
    s_axis = np.where(ok[..., None], s_axis / np.where(ok, n, 1.0)[..., None], 0.0)
    s_cam = cam.world_to_camera(s_axis)
    phi = np.mod(np.arctan2(s_cam[..., 1], s_cam[..., 0]), np.pi)
    return np.where(ok, phi, 0.0)


def sample_bilinear(raster: np.ndarray, ij: np.ndarray) -> np.ndarray:
    """Bilinear sample of a display raster at real pixel indices (i, j);
    pixel centres sit at integer + 0.5."""
    h, w = raster.shape
    i = np.clip(np.asarray(ij[..., 0]) - 0.5, 0.0, w - 1.0)
    j = np.clip(np.asarray(ij[..., 1]) - 0.5, 0.0, h - 1.0)
    i0 = np.clip(np.floor(i).astype(int), 0, w - 2)
    j0 = np.clip(np.floor(j).astype(int), 0, h - 2)
    fi = i - i0
    fj = j - j0
    v00 = raster[j0, i0]
    v01 = raster[j0, i0 + 1]
    v10 = raster[j0 + 1, i0]
    v11 = raster[j0 + 1, i0 + 1]
    return (1 - fj) * ((1 - fi) * v00 + fi * v01) + fj * ((1 - fi) * v10 + fi * v11)


CHANNEL_ANGLES = np.deg2rad([0.0, 45.0, 90.0, 135.0])
CHANNEL_NAMES = ("I000", "I045", "I090", "I135")


# The exposure gain puts the brightest noiseless sample of a sequence at
# this fraction of full scale; pipeline's validity thresholds assume it.
EXPOSURE_HEADROOM = 0.95


@dataclass(frozen=True)
class RenderPlan:
    """Per hit pixel, in the mask's order: display coordinates (n, 2), the
    reflectance (R_s + R_p)/2, the DoP and cos(2*(a - aolp)) per
    CHANNEL_ANGLES (4, n)."""

    mask: np.ndarray
    display_ij: np.ndarray
    reflectance: np.ndarray
    rho: np.ndarray
    cos2: np.ndarray

    def raster(self, packed: np.ndarray) -> np.ndarray:
        """The packed values at their pixels of a raster that is 0 elsewhere."""
        out = np.zeros(self.mask.shape)
        out[self.mask] = packed
        return out


def render_plan(scene: Scene, truth: GroundTruth) -> RenderPlan:
    """The scene's plan, computed once. The reflected power always follows
    the exact Fresnel reflectances; the DoP follows scene.dop_model so the
    model-matched modes isolate pipeline numerics from model error."""
    hit = truth.mask
    rs, rp = fresnel_reflectance(truth.theta[hit], scene.material.m, scene.material.kappa)
    return RenderPlan(
        mask=hit,
        display_ij=truth.display_ij[hit],
        reflectance=0.5 * (rs + rp),
        rho=dop_model(truth.theta[hit], scene.material, scene.dop_model),
        cos2=np.cos(2.0 * (CHANNEL_ANGLES[:, None] - aolp_of(scene, truth)[hit])),
    )


def render_frame(plan: RenderPlan, pattern: np.ndarray) -> list[np.ndarray]:
    """Noiseless four channels of one display pattern, packed as the plan."""
    total = sample_bilinear(pattern, plan.display_ij) * plan.reflectance
    mean = total / 2.0
    amp = total * plan.rho / 2.0
    return [mean + amp * c for c in plan.cos2]


def render_stack(scene: Scene, truth: GroundTruth):
    """Render all pattern frames of the scene: (frames, report).

    One gain scales the sequence so its brightest noiseless sample sits at
    EXPOSURE_HEADROOM (gain 1 without hit pixels). frames yields
    (PatternFrame, channels) one at a time, each channel a full raster
    with noise applied after exposure, per (frame, channel) substream.
    """
    plan = render_plan(scene, truth)
    patterns = generate_patterns(scene.pattern, scene.display)
    clean = [render_frame(plan, p.raster) for p in patterns]
    # every sample is >= 0, and 0 off the hit mask
    peak = max((float(np.max(ch, initial=0.0)) for frame in clean for ch in frame), default=0.0)
    gain = EXPOSURE_HEADROOM / peak if peak > 0 else 1.0
    frames = (
        (pattern, [scene.noise.apply(plan.raster(gain * ch), f_idx, c_idx)
                   for c_idx, ch in enumerate(chans)])
        for f_idx, (pattern, chans) in enumerate(zip(patterns, clean))
    )
    report = {
        "frames": len(patterns),
        "exposure_gain": gain,
        "peak_noiseless": peak,
        "dop_model": scene.dop_model,
        "hit_fraction": float(np.mean(truth.mask)),
    }
    return frames, report
