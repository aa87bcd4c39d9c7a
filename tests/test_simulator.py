"""Forward renderer: tracing, polarized channel synthesis, noise."""

import numpy as np
import pytest

from poldefl import geometry as geo
from poldefl import simulator
from poldefl.codec import PatternSpec
from poldefl.geometry import (
    DisplayPlane,
    PinholeCamera,
    WorkingDistanceInterval,
    bisector_normal,
    half_angle,
)
from poldefl.manifest import qualitative_heightfield_manifest, validate_manifest
from poldefl.polarization import (
    MATERIAL_PRESETS,
    MaterialOpticalProperties,
    dop_model,
    stokes_from_quad,
)
from poldefl.simulator import (
    CHANNEL_ANGLES,
    EXPOSURE_HEADROOM,
    HeightField,
    NoiseModel,
    Plane,
    Scene,
    Sphere,
    aolp_of,
    render_frame,
    render_plan,
    render_stack,
    sample_bilinear,
    trace,
)

STEEL = MATERIAL_PRESETS["bearing-ball-steel"]


def _cam(n=32):
    return PinholeCamera(fx=2.0 * n, fy=2.0 * n, cx=n / 2, cy=n / 2, width=n, height=n)


def _horse(n):
    return validate_manifest(qualitative_heightfield_manifest("horse", size=n))


def _ridge():
    """A 5x81 sheet, constant along y: a ridge thinner than a grid cell at
    x = 0, a deep valley at x = 4 and a far wall at x = 10."""
    xs = np.linspace(-10.0, 10.0, 81)
    h = (np.exp(-xs**2 / 0.5) - 3.0 * np.exp(-((xs - 4.0) / 2.0) ** 2)
         + 3.0 * np.exp(-((xs - 10.0) / 1.5) ** 2))
    return HeightField(x0=-10.0, y0=-2.0, dx=0.25, dy=1.0, z_grid=np.tile(h, (5, 1)))


def _render(scene, truth, pattern):
    """Noiseless full-raster channels of one display pattern."""
    plan = render_plan(scene, truth)
    return [plan.raster(ch) for ch in render_frame(plan, pattern)]


def _coplanar_display():
    return DisplayPlane(origin=np.array([-50.0, -50.0, 0.0]), u=np.array([1.0, 0, 0]),
                        v=np.array([0, 1.0, 0]), pitch=1.0, width=100, height=100)


def _plane_mirror_scene(n=32, s0=100.0, **kw):
    base = dict(
        camera=_cam(n),
        display=_coplanar_display(),
        interval=WorkingDistanceInterval(1.0, 1000.0),
        surface=Plane(point=np.array([0.0, 0.0, s0]), normal=np.array([0.0, 0.0, -1.0])),
        material=STEEL,
    )
    base.update(kw)
    return Scene(**base)


class TestTrace:
    def test_plane_mirror_closed_form(self):
        """Mirror at z=s0 with a display coplanar with the camera plane:
        the display hit is the surface point mirrored through the axis,
        D = (2 Px, 2 Py, 0)."""
        scene = _plane_mirror_scene()
        truth = trace(scene)
        assert truth.mask.sum() > 500
        P = truth.points[truth.mask]
        D = truth.display_points[truth.mask]
        np.testing.assert_allclose(D[:, 0], 2.0 * P[:, 0], atol=1e-9)
        np.testing.assert_allclose(D[:, 1], 2.0 * P[:, 1], atol=1e-9)
        np.testing.assert_allclose(D[:, 2], 0.0, atol=1e-9)

    def test_on_axis_sphere_pole(self):
        # coplanar display: the near-retro centre pixel still lands on the
        # display plane, so the on-axis example stays on the hit mask
        n = 33
        cam = PinholeCamera(fx=4.0 * n, fy=4.0 * n, cx=n / 2, cy=n / 2,
                            width=n, height=n)
        scene = _plane_mirror_scene(
            camera=cam,
            surface=Sphere(center=np.array([0.0, 0.0, 250.0]), radius=12.7),
        )
        truth = trace(scene)
        cy = cx = n // 2
        assert truth.mask[cy, cx]
        S = truth.points[cy, cx]
        nrm = truth.normals[cy, cx]
        pole = np.array([0.0, 0.0, 250.0 - 12.7])
        np.testing.assert_allclose(S, pole, atol=1e-2)
        d = cam.pixel_to_ray([cx + 0.5, cy + 0.5])
        assert abs(np.arccos(np.clip(np.dot(nrm, -d), -1, 1)) - truth.theta[cy, cx]) < 1e-9

    def test_reflection_law_residual(self, ball_truth):
        scene, truth = ball_truth
        rays = scene.camera.ray_grid()
        refl = geo.reflect(rays, truth.normals)
        to_d = truth.display_points - truth.points
        to_d /= np.linalg.norm(to_d, axis=-1, keepdims=True)
        res = np.linalg.norm(refl - to_d, axis=-1)
        assert np.nanmax(res[truth.mask]) < 1e-9

    def test_truth_self_consistency(self, ball_truth):
        """half_angle(S, O, D) equals the stored theta; bisector_normal
        reproduces the stored normal."""
        scene, truth = ball_truth
        O = scene.camera.center
        ys, xs = np.nonzero(truth.mask)
        idx = np.linspace(0, len(ys) - 1, 200).astype(int)
        for y, x in zip(ys[idx], xs[idx]):
            S = truth.points[y, x]
            D = truth.display_points[y, x]
            assert abs(half_angle(S, O, D) - truth.theta[y, x]) < 1e-9
            np.testing.assert_allclose(bisector_normal(S, O, D),
                                       truth.normals[y, x], atol=1e-9)

    def test_depth_outside_interval_is_a_miss(self):
        scene = _plane_mirror_scene(interval=WorkingDistanceInterval(1.0, 50.0))
        truth = trace(scene)
        assert truth.mask.sum() == 0
        assert np.all(np.isnan(truth.depth))

    def test_reflection_off_display_is_a_miss(self):
        # tiny display: oblique pixels reflect past its extent
        small = DisplayPlane(origin=np.array([-5.0, -5.0, 0.0]), u=np.array([1.0, 0, 0]),
                             v=np.array([0, 1.0, 0]), pitch=1.0, width=10, height=10)
        scene = _plane_mirror_scene(display=small)
        truth = trace(scene)
        full = trace(_plane_mirror_scene())
        assert 0 < truth.mask.sum() < full.mask.sum()


class TestSurfaces:
    def test_sphere_intersection_and_normal(self):
        s = Sphere(center=np.array([0.0, 0.0, 10.0]), radius=2.0)
        t, p, n = s.intersect(np.zeros(3), np.array([[0.0, 0.0, 1.0]]))
        assert np.isclose(t[0], 8.0)
        np.testing.assert_allclose(n[0], [0, 0, -1], atol=1e-12)
        t_miss, _, _ = s.intersect(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        assert np.isnan(t_miss[0])

    def test_sphere_invalid_radius(self):
        with pytest.raises(ValueError):
            Sphere(center=np.zeros(3), radius=0.0)

    def test_heightfield_matches_analytic_plane(self):
        # a planar heightfield z = 100 + 0.3 y must agree with the closed form
        xs = np.linspace(-60, 60, 33)
        zg = 100.0 + 0.3 * xs[:, None] * 0.0 + 0.3 * xs[None, :].T * np.ones((33, 33))
        zg = 100.0 + 0.3 * np.broadcast_to(xs[:, None], (33, 33))
        hf = HeightField(x0=-60.0, y0=-60.0, dx=3.75, dy=3.75, z_grid=zg)
        plane = Plane(point=np.array([0.0, 0.0, 100.0]),
                      normal=geo.normalize(np.array([0.0, -0.3, 1.0])))
        rays = _cam(16).ray_grid()
        t_h, p_h, n_h = hf.intersect(np.zeros(3), rays)
        t_p, p_p, n_p = plane.intersect(np.zeros(3), rays)
        sel = np.isfinite(t_h)
        assert sel.sum() > 200
        np.testing.assert_allclose(t_h[sel], t_p[sel], atol=1e-6)
        # hf normals are flipped toward the viewer (camera below the sheet)
        align = np.abs(np.sum(n_h[sel] * n_p[sel], axis=-1))
        np.testing.assert_allclose(align, 1.0, atol=1e-6)

    def test_heightfield_paraboloid_first_root(self):
        """Bowl z = 20 + 0.2 r^2 seen from below its vertex: a ray meets it
        where 0.2 a t^2 - d_z t + 20 = 0 (a = d_x^2 + d_y^2), and the first
        hit is the smaller root. Near the rim the larger root lies on the
        grid too, so returning it would fail."""
        xs = np.linspace(-15.0, 15.0, 41)
        zg = 20.0 + 0.2 * (xs[None, :] ** 2 + xs[:, None] ** 2)
        hf = HeightField(x0=-15.0, y0=-15.0, dx=0.75, dy=0.75, z_grid=zg)
        rays = _cam(24).ray_grid()
        t, p, n = hf.intersect(np.zeros(3), rays)
        dz = rays[..., 2]
        disc = dz**2 - 16.0 * (rays[..., 0] ** 2 + rays[..., 1] ** 2)
        hits, misses = disc > 0.02, disc < -0.02
        assert hits.sum() > 300 and misses.sum() > 50
        t_first = 40.0 / (dz[hits] + np.sqrt(disc[hits]))
        np.testing.assert_allclose(t[hits], t_first, atol=1e-6)
        assert np.all(np.isnan(t[misses]))
        P = p[hits]
        n_true = geo.normalize(np.stack([-0.4 * P[:, 0], -0.4 * P[:, 1],
                                         np.ones(len(P))], axis=-1))
        np.testing.assert_allclose(np.abs(np.sum(n[hits] * n_true, axis=-1)), 1.0,
                                   atol=1e-9)

    def test_heightfield_grazed_ridge_before_valley(self):
        """A level ray clips the top of a ridge thinner than a grid cell,
        then crosses a deep valley and meets a far wall: the ridge is the
        hit."""
        hf = _ridge()
        z0 = hf.z_grid[0, 40] - 0.01  # 10 um below the ridge's crest
        t, p, _ = hf.intersect(np.array([-10.0, 0.0, z0]), np.array([[1.0, 0.0, 0.0]]))
        assert -0.25 < p[0, 0] < 0.0
        assert abs(z0 - hf.height(p[0, 0], 0.0)) <= 1e-8
        before = np.linspace(-10.0, p[0, 0], 20001)[:-1]
        assert np.all(z0 - hf.height(before, 0.0) > 0.0)

    def test_heightfield_slope_bound_is_sound(self):
        """The slope bounds and the bounding box's z-range (the Bernstein
        hull) hold every sampled gradient and height, and are not loose."""
        hf = _horse(96).surface
        lx, ly = hf.slope_bounds()
        rng = np.random.default_rng(0)
        x, y = rng.uniform(-14.0, 14.0, (2, 200_000))
        gx, gy = (np.max(np.abs(g)) for g in hf.gradient(x, y))
        assert gx <= lx <= 1.25 * gx
        assert gy <= ly <= 1.25 * gy
        z = hf.height(x, y)
        assert hf.bernstein.min() <= z.min() and z.max() <= hf.bernstein.max()

    @pytest.mark.parametrize("grid", ["4x4", "ridge-5x81", "horse"])
    def test_heightfield_patches_match_scipy_spline(self, grid):
        """Values and gradients of the patches equal FITPACK's
        interpolating bicubic spline (s = 0, which is not-a-knot)."""
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(1)
        hf = {
            "4x4": lambda: HeightField(0.5, -1.0, 0.7, 1.3, rng.normal(size=(4, 4))),
            "ridge-5x81": _ridge,
            "horse": lambda: _horse(96).surface,
        }[grid]()
        ny, nx = hf.z_grid.shape
        xs, ys = hf.x0 + hf.dx * np.arange(nx), hf.y0 + hf.dy * np.arange(ny)
        ref = interpolate.RectBivariateSpline(ys, xs, hf.z_grid, kx=3, ky=3)
        x = rng.uniform(xs[0], xs[-1], 200_000)
        y = rng.uniform(ys[0], ys[-1], 200_000)
        gx, gy = hf.gradient(x, y)
        np.testing.assert_allclose(hf.height(x, y), ref(y, x, grid=False), rtol=0, atol=1e-11)
        np.testing.assert_allclose(gx, ref(y, x, dy=1, grid=False), rtol=0, atol=1e-11)
        np.testing.assert_allclose(gy, ref(y, x, dx=1, grid=False), rtol=0, atol=1e-11)

    def test_heightfield_no_ray_reaches_step_cap(self):
        scene = _horse(96)
        t, capped = scene.surface.first_hit(scene.camera.center, scene.camera.ray_grid())
        assert not capped.any()
        assert np.isfinite(t).sum() > 8000

    def test_heightfield_capped_rays_are_misses(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_STEPS", 10)
        scene = _horse(96)
        rays = scene.camera.ray_grid()
        t, capped = scene.surface.first_hit(scene.camera.center, rays)
        assert capped.sum() > 1000
        assert np.all(np.isnan(t[capped]))
        p = scene.camera.center + t[..., None] * rays
        sel = np.isfinite(t)
        g = p[sel, 2] - scene.surface.height(p[sel, 0], p[sel, 1])
        assert sel.sum() > 100 and np.max(np.abs(g)) <= 1e-8

    def test_heightfield_validation(self):
        with pytest.raises(ValueError):
            HeightField(0.0, 0.0, 1.0, 1.0, np.zeros((3, 3)))
        bad = np.zeros((5, 5))
        bad[2, 2] = np.nan
        with pytest.raises(ValueError):
            HeightField(0.0, 0.0, 1.0, 1.0, bad)


class TestRenderFrame:
    def _stokes(self, scene, truth, pattern_value=1.0):
        pattern = np.full((scene.display.height, scene.display.width), pattern_value)
        chans = _render(scene, truth, pattern)
        return chans, stokes_from_quad(*chans)

    def test_measured_dop_matches_model(self, ball_truth):
        scene, truth = ball_truth
        chans, est = self._stokes(scene, truth)
        rho_true = dop_model(truth.theta, scene.material, scene.dop_model)
        sel = truth.mask & est.valid
        assert sel.sum() > 2000
        assert np.nanmax(np.abs(est.dop[sel] - rho_true[sel])) < 1e-6

    def test_measured_aolp_matches_prediction(self, ball_truth):
        scene, truth = ball_truth
        chans, est = self._stokes(scene, truth)
        predicted = aolp_of(scene, truth)
        sel = truth.mask & est.valid & (est.dop > 1e-3)
        diff = np.angle(np.exp(2j * (est.aolp[sel] - predicted[sel]))) / 2.0
        assert np.max(np.abs(diff)) < 1e-6

    def test_energy_split(self, ball_truth):
        scene, truth = ball_truth
        chans, _ = self._stokes(scene, truth)
        i0, i45, i90, i135 = chans
        np.testing.assert_allclose(i0 + i90, i45 + i135, atol=1e-14)
        for ch in chans:
            assert np.all(ch >= 0.0) and np.all(ch <= 1.0)

    def test_normal_incidence_channels_equal(self):
        # on-axis sphere: the principal pixel is a retro-reflection, theta=0
        n = 33
        cam = PinholeCamera(fx=4.0 * n, fy=4.0 * n, cx=n / 2, cy=n / 2, width=n, height=n)
        scene = Scene(
            camera=cam,
            display=DisplayPlane(origin=np.array([-50.0, -50.0, 0.0]),
                                 u=np.array([1.0, 0, 0]), v=np.array([0, 1.0, 0]),
                                 pitch=1.0, width=100, height=100),
            interval=WorkingDistanceInterval(1.0, 1000.0),
            surface=Sphere(center=np.array([0.0, 0.0, 250.0]), radius=12.7),
            material=STEEL,
            dop_model="exact",
        )
        truth = trace(scene)
        cy = cx = n // 2
        assert truth.mask[cy, cx] and truth.theta[cy, cx] < 1e-3
        chans = _render(scene, truth, np.ones((100, 100)))
        vals = [c[cy, cx] for c in chans]
        assert np.ptp(vals) < 1e-6 * max(vals)

    def test_brewster_reads_full_polarization(self):
        """Dielectric mirror tilted so the principal ray hits at Brewster
        incidence: the p channel vanishes and the measured DoP is 1, with
        the exact model and with the model left unset (the dielectric's
        eq5, which is exact there)."""
        from dataclasses import replace
        m = 1.5
        beta = np.arctan(m)
        n_vec = np.array([-np.sin(beta), 0.0, -np.cos(beta)])
        disp = DisplayPlane(origin=np.array([-100.0, -50.0, 60.0]),
                            u=np.array([0.0, 1.0, 0.0]), v=np.array([0.0, 0.0, 1.0]),
                            pitch=1.0, width=100, height=100)
        unset = Scene(
            camera=_cam(16),
            display=disp,
            interval=WorkingDistanceInterval(1.0, 1000.0),
            surface=Plane(point=np.array([0.0, 0.0, 100.0]), normal=n_vec),
            material=MaterialOpticalProperties(m=m, kappa=0.0),
        )
        assert unset.dop_model == "eq5"
        truth = trace(unset)
        # the pixel closest to Brewster incidence (DoP falls off
        # quadratically in theta - beta, so use the best sample)
        dev = np.where(truth.mask, np.abs(truth.theta - beta), np.inf)
        cy, cx = np.unravel_index(np.argmin(dev), dev.shape)
        assert dev[cy, cx] < 5e-3
        for scene in (replace(unset, dop_model="exact"), unset):
            chans = _render(scene, truth, np.ones((100, 100)))
            est = stokes_from_quad(*chans)
            assert est.dop[cy, cx] > 0.999, scene.dop_model
            assert est.i_min[cy, cx] < 1e-4 * est.i_max[cy, cx]

    def test_misses_render_zero(self, ball_truth):
        scene, truth = ball_truth
        plan = render_plan(scene, truth)
        chans = render_frame(plan, np.ones((scene.display.height, scene.display.width)))
        for ch in chans:
            assert ch.shape == (truth.mask.sum(),) and np.all(ch > 0.0)
            assert np.all(plan.raster(ch)[~truth.mask] == 0.0)


class TestRenderStack:
    def test_auto_exposure_headroom(self, ball_truth):
        scene, truth = ball_truth
        frames, report = render_stack(scene, truth)
        frames = list(frames)
        peak = max(float(np.max(ch)) for _, chans in frames for ch in chans)
        assert np.isclose(peak, EXPOSURE_HEADROOM, atol=1e-9)
        assert report["frames"] == len(frames)
        assert 0 < report["hit_fraction"] < 1

    def test_no_hit_pixel_keeps_unit_gain(self, ball_truth):
        scene, truth = ball_truth
        from dataclasses import replace
        blind = replace(truth, mask=np.zeros_like(truth.mask))
        frames, report = render_stack(scene, blind)
        assert report["peak_noiseless"] == 0.0 and report["exposure_gain"] == 1.0
        for _, chans in frames:
            assert all(ch.shape == truth.mask.shape and not ch.any() for ch in chans)

    def test_deterministic_bit_identical(self, ball_truth):
        scene, truth = ball_truth
        from dataclasses import replace
        noisy_scene = replace(scene, noise=NoiseModel(sigma=0.01, seed=42))
        a, _ = render_stack(noisy_scene, truth)
        b, _ = render_stack(noisy_scene, truth)
        for (_, ca), (_, cb) in zip(a, b, strict=True):
            for xa, xb in zip(ca, cb):
                np.testing.assert_array_equal(xa, xb)

    def test_seed_changes_noise_not_truth(self, ball_truth):
        scene, truth = ball_truth
        from dataclasses import replace
        a, _ = render_stack(replace(scene, noise=NoiseModel(sigma=0.01, seed=1)), truth)
        b, _ = render_stack(replace(scene, noise=NoiseModel(sigma=0.01, seed=2)), truth)
        assert not np.array_equal(next(a)[1][0], next(b)[1][0])
        t2 = trace(scene)
        np.testing.assert_array_equal(truth.mask, t2.mask)
        np.testing.assert_array_equal(truth.depth, t2.depth)


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(bits=7)

    def test_gaussian_statistics(self):
        img = np.full((200, 200), 0.5)
        out = NoiseModel(sigma=0.01, seed=5).apply(img, 0, 0)
        assert abs(np.std(out - img) - 0.01) < 5e-4
        assert abs(np.mean(out - img)) < 1e-3

    def test_quantization_grid(self):
        img = np.linspace(0, 1, 1000).reshape(20, 50)
        out = NoiseModel(bits=8).apply(img, 0, 0)
        np.testing.assert_allclose(out * 255, np.round(out * 255), atol=1e-12)

    def test_photon_noise_scales_with_signal(self):
        img = np.full((100, 100), 0.25)
        out = NoiseModel(photon=True, photon_full_well=10000.0, seed=1).apply(img, 0, 0)
        assert abs(np.std(out) - np.sqrt(0.25 / 10000.0)) < 2e-4

    def test_channel_substreams_differ(self):
        img = np.full((50, 50), 0.5)
        nm = NoiseModel(sigma=0.01, seed=9)
        assert not np.array_equal(nm.apply(img, 0, 0), nm.apply(img, 0, 1))
        assert not np.array_equal(nm.apply(img, 0, 0), nm.apply(img, 1, 0))
        np.testing.assert_array_equal(nm.apply(img, 3, 2), nm.apply(img, 3, 2))


class TestSampleBilinear:
    def test_constant_raster(self):
        r = np.full((10, 20), 0.37)
        ij = np.array([[1.0, 1.0], [19.5, 9.5], [0.0, 0.0]])
        np.testing.assert_allclose(sample_bilinear(r, ij), 0.37)

    def test_linear_ramp_exact_at_centres(self):
        r = np.tile(np.arange(20, dtype=np.float64), (10, 1))
        ij = np.stack([np.arange(1, 19) + 0.5, np.full(18, 5.5)], axis=-1)
        np.testing.assert_allclose(sample_bilinear(r, ij), np.arange(1, 19), atol=1e-12)
