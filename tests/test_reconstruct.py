"""Depth/normal fusion, branch feasibility, statuses, orthographic baseline."""

import numpy as np
import pytest

from poldefl import geometry as geo
from poldefl.codec import CorrespondenceMap
from poldefl.geometry import (
    WorkingDistanceInterval,
    bisector_normal,
    half_angle,
    half_angle_along_ray,
)
from poldefl.metrics import normal_rmse
from poldefl.pfmio import read_ply
from poldefl.polarization import (
    MATERIAL_PRESETS,
    StokesEstimate,
    dop_model,
    dop_peak,
    invert_dop,
)
from poldefl.reconstruct import (
    Status,
    SurfaceSolution,
    export_geometry,
    fuse_map,
    fuse_pixel,
    orthographic_baseline,
    solve_depth_for_theta,
)
from poldefl.simulator import aolp_of, trace

STEEL = MATERIAL_PRESETS["bearing-ball-steel"]
IVAL = WorkingDistanceInterval(1.0, 100.0)


class TestSolveDepth:
    def test_analytic_case(self):
        s = solve_depth_for_theta(
            np.zeros(3), np.array([[0.0, 0, 1]]), np.array([[10.0, 0, 0]]),
            np.array([np.radians(22.5)]), IVAL)
        assert abs(s[0] - 10.0) < 2e-3

    def test_theta_above_bracket_has_no_root(self):
        d = np.array([[0.0, 0, 1]])
        D = np.array([[10.0, 0, 0]])
        g_min = half_angle_along_ray(np.zeros(3), d, D, np.array([IVAL.s_min]))[0]
        s = solve_depth_for_theta(np.zeros(3), d, D, np.array([g_min + 0.05]), IVAL)
        assert np.isnan(s[0])

    def test_theta_zero_degenerate(self):
        s = solve_depth_for_theta(
            np.zeros(3), np.array([[0.0, 0, 1]]), np.array([[10.0, 0, 0]]),
            np.array([0.0]), IVAL)
        assert np.isnan(s[0])

    def test_d_on_ray_degenerate(self):
        s = solve_depth_for_theta(
            np.zeros(3), np.array([[0.0, 0, 1]]), np.array([[0.0, 0, 50]]),
            np.array([0.3]), IVAL)
        assert np.isnan(s[0])

    def test_random_scenes_recover_true_depth(self, rng):
        n = 500
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        s_true = rng.uniform(5.0, 90.0, n)
        S = s_true[:, None] * d
        D = rng.uniform(-200.0, 200.0, (n, 3))
        theta = np.array([
            half_angle(S[i], np.zeros(3), D[i]) for i in range(n)
        ])
        usable = theta > 1e-3
        s = solve_depth_for_theta(np.zeros(3), d, D, theta, IVAL)
        good = np.isfinite(s) & usable
        assert good.sum() > 400
        assert np.max(np.abs(s[good] - s_true[good])) < 1e-6

    def test_law_of_sines_analytic_triangles(self, rng):
        """Triangles built with a known S and a known angle 2*theta at S:
        D = S + L*(cos(2t)*(-d) + sin(2t)*e) with e a unit normal of d."""
        n = 200
        O = rng.uniform(-50.0, 50.0, (n, 3))
        d = _unit(rng.normal(size=(n, 3)))
        s_true = rng.uniform(2.0, 95.0, n)
        theta = rng.uniform(0.05, np.pi / 2 - 0.05, n)
        D = _triangle_display_point(O, d, s_true, theta, rng.uniform(1.0, 300.0, n), rng)
        s = solve_depth_for_theta(O, d, D, theta, IVAL)
        np.testing.assert_allclose(s, s_true, rtol=0, atol=1e-9)

    def test_half_angle_round_trip(self, rng):
        """g(s) = theta at the returned s, on random feasible geometries."""
        n = 500
        d = _unit(rng.normal(size=(n, 3)))
        D = rng.uniform(-200.0, 200.0, (n, 3))
        g_near = half_angle_along_ray(np.zeros(3), d, D, np.full(n, IVAL.s_min))
        g_far = half_angle_along_ray(np.zeros(3), d, D, np.full(n, IVAL.s_max))
        theta = g_far + rng.uniform(0.0, 1.0, n) * (g_near - g_far)
        # away from theta = 0 and pi/2, where arccos in g loses precision
        keep = (theta > 0.02) & (theta < np.pi / 2 - 0.02)
        assert keep.sum() > 300
        s = solve_depth_for_theta(np.zeros(3), d[keep], D[keep], theta[keep], IVAL)
        assert np.all(np.isfinite(s))
        g = half_angle_along_ray(np.zeros(3), d[keep], D[keep], s)
        assert np.max(np.abs(g - theta[keep])) < 1e-12

    def test_interval_ends(self, rng):
        n = 4
        O = np.zeros((n, 3))
        d = _unit(rng.normal(size=(n, 3)))
        s_true = np.array([IVAL.s_min * (1 - 1e-9), IVAL.s_min * (1 + 1e-9),
                           IVAL.s_max * (1 - 1e-9), IVAL.s_max * (1 + 1e-9)])
        theta = np.full(n, 0.4)
        D = _triangle_display_point(O, d, s_true, theta, np.full(n, 30.0), rng)
        s = solve_depth_for_theta(O, d, D, theta, IVAL)
        assert np.isnan(s[0]) and np.isnan(s[3])
        np.testing.assert_allclose(s[1:3], s_true[1:3], rtol=1e-12)

    def test_no_triangle_has_no_root(self):
        # phi = pi/2 between the ray and OD: a triangle needs 2*theta < pi/2
        near_zero = WorkingDistanceInterval(1e-9, 100.0)
        theta = np.array([np.pi / 4 - 1e-3, np.pi / 4, np.pi / 4 + 0.1])
        s = solve_depth_for_theta(np.zeros(3), np.array([0.0, 0, 1]),
                                  np.array([10.0, 0, 0]), theta, near_zero)
        assert np.isfinite(s[0]) and np.isnan(s[1]) and np.isnan(s[2])


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _triangle_display_point(O, d, s, theta, L, rng):
    """Display point D at distance L from S = O + s*d such that the angle
    at S between S->O and S->D is exactly 2*theta."""
    e = _unit(np.cross(d, rng.normal(size=d.shape)))
    two_t = 2.0 * theta[:, None]
    return O + s[:, None] * d + L[:, None] * (np.cos(two_t) * -d + np.sin(two_t) * e)


class TestFusePixel:
    def test_noiseless_pixel_ok(self):
        theta_true = np.radians(22.5)
        rho = float(dop_model(theta_true, STEEL, "eq6"))
        r = fuse_pixel(rho, np.array([10.0, 0, 0]), np.array([0.0, 0, 1]),
                       np.zeros(3), IVAL, STEEL)
        assert r["status"] == Status.OK and r["branch"] == "low"
        assert abs(r["depth"] - 10.0) < 2e-3
        n_true = bisector_normal(np.array([0.0, 0, 10.0]), np.zeros(3),
                                 np.array([10.0, 0, 0]))
        np.testing.assert_allclose(r["normal"], n_true, atol=1e-4)
        assert abs(r["theta"] - theta_true) < 1e-6

    def test_saturated_clamped_to_peak(self):
        t_peak, rho_max = dop_peak(STEEL.m, STEEL.kappa, "eq6")
        # D nearly along the ray: the half angle sweeps through theta_peak
        r = fuse_pixel(min(1.0, rho_max * 1.05), np.array([1.0, 0, 100.0]),
                       np.array([0.0, 0, 1]), np.zeros(3),
                       WorkingDistanceInterval(0.01, 1000.0), STEEL)
        assert r["status"] == Status.SATURATED_DOP
        assert abs(r["theta"] - t_peak) < 1e-9

    def test_saturated_strict_policy_invalid(self):
        _, rho_max = dop_peak(STEEL.m, STEEL.kappa, "eq6")
        r = fuse_pixel(min(1.0, rho_max * 1.05), np.array([1.0, 0, 100.0]),
                       np.array([0.0, 0, 1]), np.zeros(3),
                       WorkingDistanceInterval(0.01, 1000.0), STEEL, strict_dop=True)
        assert r["status"] == Status.INVALID_DECODE
        assert "depth" not in r

    def test_retro_pixel_no_root(self):
        r = fuse_pixel(0.0, np.array([0.0, 0, 50.0]), np.array([0.0, 0, 1]),
                       np.zeros(3), IVAL, STEEL)
        assert r["status"] == Status.NO_ROOT
        assert r["branches"] == {"low": None, "high": None}

    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_fuse_map_bit_for_bit(self, strict):
        from poldefl.manifest import bearing_ball_manifest, validate_manifest

        # exact Fresnel: some clamped saturated pixels stay solvable
        scene = validate_manifest(bearing_ball_manifest(size=64, dop_model="exact"))
        truth = trace(scene)
        stokes, corr = _truth_stokes_corr(scene, truth)
        _, rho_max = dop_peak(scene.material.m, scene.material.kappa, scene.dop_model)
        stokes.dop[truth.mask & (stokes.dop > 0.5 * rho_max)] = min(1.0, rho_max * 1.02)
        sol, _ = fuse_map(stokes, corr, scene.camera, scene.display, scene.interval,
                          scene.material, dop_model=scene.dop_model, strict_dop=strict)
        rays = scene.camera.ray_grid()
        ij = np.where(truth.mask[..., None], np.stack([corr.i, corr.j], axis=-1), 0.0)
        D = scene.display.index_to_point(ij)
        statuses = set()
        for code in np.unique(sol.status[truth.mask]):
            ys, xs = np.nonzero(truth.mask & (sol.status == code))
            for k in np.linspace(0, len(ys) - 1, min(len(ys), 15)).astype(int):
                y, x = ys[k], xs[k]
                r = fuse_pixel(stokes.dop[y, x], D[y, x], rays[y, x], scene.camera.center,
                               scene.interval, scene.material,
                               dop_model=scene.dop_model, strict_dop=strict)
                assert r["status"] == sol.status[y, x]
                statuses.add(Status(r["status"]))
                if "depth" in r:
                    assert r["depth"] == sol.depth[y, x]
                    assert r["theta"] == sol.theta[y, x]
                    assert np.array_equal(r["point"], sol.points[y, x])
                    assert np.array_equal(r["normal"], sol.normals[y, x])
                else:
                    assert np.isnan(sol.depth[y, x])
        expected = {Status.OK, Status.INVALID_DECODE} if strict else {
            Status.OK, Status.NO_ROOT, Status.SATURATED_DOP}
        assert statuses == expected


def _truth_stokes_corr(scene, truth, model=None):
    """Model-matched synthetic inputs straight from the traced ground
    truth: exact DoP of the scene's model and exact display coordinates."""
    model = model or scene.dop_model
    theta = np.where(truth.mask, truth.theta, 0.0)
    rho = np.where(truth.mask, dop_model(theta, scene.material, model), 0.0)
    stokes = StokesEstimate(
        s0=np.where(truth.mask, 1.0, 0.0),
        dop=np.clip(rho, 0.0, 1.0),
        aolp=aolp_of(scene, truth),
        valid=truth.mask.copy(),
    )
    ij = np.where(np.isfinite(truth.display_ij), truth.display_ij, 0.0)
    corr = CorrespondenceMap(i=ij[..., 0], j=ij[..., 1], valid=truth.mask.copy())
    return stokes, corr


class TestFuseMap:
    def test_noiseless_scene_mostly_ok(self, ball_run):
        stats = ball_run["stats"]
        assert stats["ok_fraction"] >= 0.99
        assert stats["counts"]["both_feasible"] == 0

    def test_ambiguity_free_invariant(self, ball_truth):
        """Exact model-matched inputs: every mask pixel solves on exactly
        one branch, depth within 1e-6 mm and normal within 0.02 deg. The
        DoP inverse runs to 1e-12 rad: at its default 1e-7 rad the angle
        alone moves depth by up to about 1e-5 mm."""
        scene, truth = ball_truth
        stokes, corr = _truth_stokes_corr(scene, truth)
        sol, stats = fuse_map(stokes, corr, scene.camera, scene.display,
                              scene.interval, scene.material,
                              dop_model=scene.dop_model, tol_theta=1e-12)
        assert stats["counts"]["both_feasible"] == 0
        ok = sol.ok
        assert ok.sum() >= 0.999 * truth.mask.sum()
        assert np.max(np.abs(sol.depth[ok] - truth.depth[ok])) < 1e-6
        rmse, pct = normal_rmse(sol.normals, truth.normals, ok)
        assert pct["max"] < 0.02

    def test_solution_internal_consistency(self, ball_run, ball_truth):
        """On ok pixels: s in the interval, theta = half_angle(S, O, D)
        within root tolerance, n = bisector_normal(S, O, D)."""
        scene, _ = ball_truth
        sol = ball_run["solution"]
        corr = ball_run["corr"]
        ok = sol.ok
        O = scene.camera.center
        assert np.all(sol.depth[ok] >= scene.interval.s_min)
        assert np.all(sol.depth[ok] <= scene.interval.s_max)
        ij = np.stack([corr.i, corr.j], axis=-1)
        D = scene.display.index_to_point(np.where(ok[..., None], ij, 0.0))
        ys, xs = np.nonzero(ok)
        idx = np.linspace(0, len(ys) - 1, 200).astype(int)
        for y, x in zip(ys[idx], xs[idx]):
            th = half_angle(sol.points[y, x], O, D[y, x])
            assert abs(th - sol.theta[y, x]) < 1e-4
            np.testing.assert_allclose(
                bisector_normal(sol.points[y, x], O, D[y, x]),
                sol.normals[y, x], atol=1e-9)

    def test_dop_consistency(self, ball_run):
        """Recomputing rho from the solved theta reproduces the measured
        DoP within the inversion tolerance."""
        sol = ball_run["solution"]
        stokes = ball_run["stokes"]
        scene = ball_run["scene"]
        ok = sol.ok
        rho_back = dop_model(sol.theta[ok], scene.material, scene.dop_model)
        assert np.max(np.abs(rho_back - stokes.dop[ok])) < 1e-6

    def test_dimension_mismatch_rejected(self, ball_run):
        stokes = ball_run["stokes"]
        scene = ball_run["scene"]
        bad = CorrespondenceMap(i=np.zeros((4, 4)), j=np.zeros((4, 4)),
                                valid=np.ones((4, 4), dtype=bool))
        with pytest.raises(ValueError):
            fuse_map(stokes, bad, scene.camera, scene.display, scene.interval,
                     scene.material)

    def test_empty_mask_empty_solution(self, ball_truth):
        scene, truth = ball_truth
        stokes, corr = _truth_stokes_corr(scene, truth)
        stokes.valid[:] = False
        sol, stats = fuse_map(stokes, corr, scene.camera, scene.display,
                              scene.interval, scene.material)
        assert stats["measurable"] == 0 and stats["ok_fraction"] == 0.0
        assert np.all(sol.status == Status.INVALID_DECODE)
        assert np.all(np.isnan(sol.depth))
        assert np.all(np.isnan(sol.candidates.theta_low)) and not sol.candidates.saturated.any()

    def test_unset_model_is_the_materials(self):
        """A dielectric fused without a DoP model is inverted with eq5 (the
        material's model), bit for bit, not with the metal curve eq6."""
        from poldefl.manifest import bearing_ball_manifest, validate_manifest

        doc = bearing_ball_manifest(size=48)
        doc["material"] = {"m": 1.5}
        scene = validate_manifest(doc)
        truth = trace(scene)
        stokes, corr = _truth_stokes_corr(scene, truth, model="eq5")
        args = (stokes, corr, scene.camera, scene.display, scene.interval, scene.material)
        unset, _ = fuse_map(*args)
        eq5, _ = fuse_map(*args, dop_model="eq5")
        assert unset.ok.any()
        for name in ("depth", "normals", "theta", "status"):
            assert getattr(unset, name).tobytes() == getattr(eq5, name).tobytes()
        y, x = np.argwhere(unset.ok)[0]
        D = scene.display.index_to_point(np.array([corr.i[y, x], corr.j[y, x]]))
        pixel = (stokes.dop[y, x], D, scene.camera.ray_grid()[y, x], scene.camera.center,
                 scene.interval, scene.material)
        assert fuse_pixel(*pixel)["depth"] == fuse_pixel(*pixel, dop_model="eq5")["depth"] \
            == unset.depth[y, x]

    def test_strict_dop_marks_saturated_invalid(self, ball_truth):
        scene, truth = ball_truth
        stokes, corr = _truth_stokes_corr(scene, truth)
        _, rho_max = dop_peak(scene.material.m, scene.material.kappa, scene.dop_model)
        sat = truth.mask & (stokes.dop > 0.5 * rho_max)
        stokes.dop[sat] = min(1.0, rho_max * 1.02)
        sol, _ = fuse_map(stokes, corr, scene.camera, scene.display,
                          scene.interval, scene.material,
                          dop_model=scene.dop_model, strict_dop=True)
        assert np.all(sol.status[sat] == Status.INVALID_DECODE)
        assert np.all(np.isnan(sol.depth[sat]))

    def test_clamped_saturated_flagged_not_silently_ok(self, ball_truth):
        scene, truth = ball_truth
        stokes, corr = _truth_stokes_corr(scene, truth)
        _, rho_max = dop_peak(scene.material.m, scene.material.kappa, scene.dop_model)
        sat = truth.mask & (stokes.dop > 0.5 * rho_max)
        assert sat.sum() > 10
        stokes.dop[sat] = min(1.0, rho_max * 1.02)
        sol, _ = fuse_map(stokes, corr, scene.camera, scene.display,
                          scene.interval, scene.material, dop_model=scene.dop_model)
        assert not np.any(sol.status[sat] == Status.OK)

    def test_noise_monotone_normal_rmse(self, tmp_path):
        from poldefl import pipeline
        from poldefl.manifest import bearing_ball_manifest, load_manifest, validate_manifest

        rmses = []
        for sigma in (0.0, 0.0025, 0.005, 0.01):
            out = tmp_path / f"s{sigma}"
            doc = bearing_ball_manifest(size=96, sigma=sigma, seed=11,
                                        dop_model="exact")
            pipeline.simulate(doc, out)
            rec = pipeline.reconstruct(out, "multi")
            scene = validate_manifest(load_manifest(out / "manifest.json"))
            truth = trace(scene)
            sol = rec["solution"]
            sel = sol.ok & truth.mask
            rmses.append(normal_rmse(sol.normals, truth.normals, sel)[0])
        assert all(b >= a - 1e-6 for a, b in zip(rmses, rmses[1:])), rmses


class TestOrthographicBaseline:
    def _stokes_single(self, theta_deg, alpha_deg, cam):
        theta = np.radians(theta_deg)
        rho = float(dop_model(theta, STEEL, "eq6"))
        aolp = np.mod(np.radians(alpha_deg) - np.pi / 2, np.pi)
        shape = (cam.height, cam.width)
        return StokesEstimate(
            s0=np.ones(shape), dop=np.full(shape, rho),
            aolp=np.full(shape, aolp), valid=np.ones(shape, dtype=bool),
        )

    def test_direct_formula_candidate(self):
        from poldefl.geometry import PinholeCamera
        cam = PinholeCamera(fx=100.0, fy=100.0, cx=2.0, cy=2.0, width=4, height=4)
        est = self._stokes_single(30.0, 60.0, cam)
        base = orthographic_baseline(est, invert_dop(est.dop, STEEL, model="eq6"), cam)
        # low-branch, alpha = aolp + pi/2 candidate; camera z flipped toward
        # the camera (the sensor sees front-facing normals)
        expected = np.array([np.sin(np.radians(30)) * np.cos(np.radians(60)),
                             np.sin(np.radians(30)) * np.sin(np.radians(60)),
                             -np.cos(np.radians(30))])
        got = base.candidates[0, 0]
        dots = [abs(np.dot(c, expected)) for c in got]
        best = got[int(np.argmax(dots))]
        np.testing.assert_allclose(np.abs(best), np.abs(expected), atol=1e-4)
        np.testing.assert_allclose(np.linalg.norm(got, axis=-1), 1.0, atol=1e-9)

    def test_no_normal_off_measurable_pixels(self, tmp_path):
        """No silent fill: the baseline reuses fusion's DoP inverse, which
        runs on measurable pixels only. Elsewhere the baseline is not
        valid and orthographic_best.pfm holds 0, not a made-up normal."""
        from poldefl import pipeline
        from poldefl.manifest import bearing_ball_manifest
        from poldefl.pfmio import read_pfm

        pipeline.simulate(bearing_ball_manifest(size=64), tmp_path)
        rec = pipeline.reconstruct(tmp_path, "multi", with_baseline=True)
        measurable = rec["stokes"].valid & rec["corr"].valid
        assert 0 < measurable.sum() < measurable.size
        assert np.array_equal(rec["baseline"].valid, measurable)
        assert np.all(np.isnan(rec["baseline"].candidates[~measurable]))
        best = read_pfm(tmp_path / "solution" / "orthographic_best.pfm")
        assert np.all(best[~measurable] == 0)
        assert np.all(np.any(best[measurable] != 0, axis=-1))

    def test_error_grows_with_field_angle(self, ball_run, ball_truth):
        scene, truth = ball_truth
        baseline = ball_run["baseline"]
        assert baseline.best is not None
        sel = ball_run["solution"].ok & truth.mask & baseline.valid
        rays = scene.camera.ray_grid()
        axis = scene.camera.camera_to_world(np.array([0.0, 0.0, 1.0]))
        field = np.degrees(np.arccos(np.clip(np.sum(rays * axis, axis=-1), -1, 1)))
        err = np.degrees(np.arccos(np.clip(
            np.sum(baseline.best * truth.normals, axis=-1), -1, 1)))
        f, e = field[sel], err[sel]
        edges = np.linspace(f.min(), f.max() + 1e-9, 5)
        means = [np.mean(e[(f >= a) & (f < b)]) for a, b in zip(edges, edges[1:])]
        assert all(b > a for a, b in zip(means, means[1:]))
        assert means[-1] > means[0] + 2.0

    def test_fused_error_flat_with_field_angle(self, ball_run, ball_truth):
        """Perspective correctness: the fused normal error does not grow
        with field angle, unlike the orthographic baseline."""
        scene, truth = ball_truth
        sol = ball_run["solution"]
        sel = sol.ok & truth.mask
        rays = scene.camera.ray_grid()
        axis = scene.camera.camera_to_world(np.array([0.0, 0.0, 1.0]))
        field = np.degrees(np.arccos(np.clip(np.sum(rays * axis, axis=-1), -1, 1)))
        err = np.degrees(np.arccos(np.clip(
            np.sum(sol.normals * truth.normals, axis=-1), -1, 1)))
        f, e = field[sel], err[sel]
        edges = np.linspace(f.min(), f.max() + 1e-9, 5)
        means = [np.mean(e[(f >= a) & (f < b)]) for a, b in zip(edges, edges[1:])]
        assert max(means) - min(means) < 0.05  # degrees


class TestExportGeometry:
    def _solution(self, n_ok):
        shape = (2, 3)
        depth = np.full(shape, np.nan)
        pts = np.full(shape + (3,), np.nan)
        nrm = np.full(shape + (3,), np.nan)
        status = np.full(shape, int(Status.NO_ROOT), dtype=np.int16)
        rng = np.random.default_rng(0)
        flat = [(i, j) for i in range(2) for j in range(3)][:n_ok]
        for (i, j) in flat:
            depth[i, j] = 10.0 + i + j
            pts[i, j] = rng.normal(size=3)
            v = rng.normal(size=3)
            nrm[i, j] = v / np.linalg.norm(v)
            status[i, j] = int(Status.OK)
        return SurfaceSolution(
            depth=depth, points=pts, normals=nrm,
            theta=np.where(np.isfinite(depth), 0.4, np.nan), status=status,
            candidates=invert_dop(np.zeros(shape), STEEL),
        )

    def test_three_points_round_trip(self, tmp_path):
        sol = self._solution(3)
        out = export_geometry(sol, tmp_path)
        pts, nrm = read_ply(out / "points.ply")
        assert pts.shape == (3, 3)
        usable = np.isfinite(sol.depth)
        np.testing.assert_array_equal(pts, sol.points[usable])
        np.testing.assert_array_equal(nrm, sol.normals[usable])
        np.testing.assert_allclose(np.linalg.norm(nrm, axis=-1), 1.0, atol=1e-12)

    def test_empty_solution_valid_ply(self, tmp_path):
        sol = self._solution(0)
        out = export_geometry(sol, tmp_path)
        pts, nrm = read_ply(out / "points.ply")
        assert pts.shape[0] == 0 and nrm.shape[0] == 0
