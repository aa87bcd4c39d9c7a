"""Acceptance suite: end-to-end criteria at full resolution.

Each criterion prints one PASS/FAIL line (printed before the assert so
the verdict is visible even when a criterion fails).
"""

import time

import numpy as np
import pytest

from poldefl import geometry as geo
from poldefl import pipeline
from poldefl.codec import CorrespondenceMap
from poldefl.geometry import WorkingDistanceInterval, half_angle_along_ray
from poldefl.manifest import bearing_ball_manifest, load_manifest, validate_manifest
from poldefl.metrics import field_angle_error_profile
from poldefl.polarization import (
    GRAZING_EPS,
    MATERIAL_PRESETS,
    MaterialOpticalProperties,
    StokesEstimate,
    dop_dielectric,
    dop_exact,
    dop_model,
    dop_peak,
    invert_dop,
    stokes_from_quad,
)
from poldefl.reconstruct import Status, fuse_map, fuse_pixel
from poldefl.simulator import aolp_of, render_frame, render_plan, render_stack, trace

SIZE = 512
STEEL = MATERIAL_PRESETS["bearing-ball-steel"]


def _verdict(name: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _run_case(tmp_path_factory, doc, mode, with_baseline=False):
    out = tmp_path_factory.mktemp("acc")
    t0 = time.perf_counter()
    pipeline.simulate(doc, out)
    rec = pipeline.reconstruct(out, mode, with_baseline=with_baseline)
    ev = pipeline.evaluate(out / "solution", out / "truth")
    elapsed = time.perf_counter() - t0
    return out, rec, ev, elapsed


@pytest.fixture(scope="module")
def noiseless_case(tmp_path_factory):
    return _run_case(tmp_path_factory, bearing_ball_manifest(size=SIZE), "multi",
                     with_baseline=True)


class TestCriterion1MultiShotNoiseless:
    def test_normal_rmse_radius_and_runtime(self, noiseless_case):
        _, _, ev, elapsed = noiseless_case
        r = ev["report"]
        ok = (r.normal_rmse_deg <= 0.05 and r.radius_error_um <= 10.0
              and elapsed <= 60.0)
        _verdict(
            "criterion 1 (multi-shot noiseless 512x512)", ok,
            f"normal RMSE {r.normal_rmse_deg:.4f} deg (<= 0.05), radius error "
            f"{r.radius_error_um:.2f} um (<= 10), runtime {elapsed:.1f} s (<= 60)",
        )


class TestCriterion2MultiShotNoisy:
    def test_normal_rmse_and_radius_under_noise(self, tmp_path_factory):
        doc = bearing_ball_manifest(size=SIZE, sigma=0.005, seed=7, dop_model="exact")
        _, _, ev, _ = _run_case(tmp_path_factory, doc, "multi")
        r = ev["report"]
        ok = r.normal_rmse_deg <= 0.6 and r.radius_error_um <= 70.0
        _verdict(
            "criterion 2 (multi-shot, sigma = 0.5% full scale)", ok,
            f"normal RMSE {r.normal_rmse_deg:.3f} deg (<= 0.6), radius error "
            f"{r.radius_error_um:.1f} um (<= 70)",
        )


class TestCriterion3SingleShot:
    def test_single_shot_completes_within_bound(self, tmp_path_factory):
        doc = bearing_ball_manifest(size=SIZE, mode="single")
        _, rec, ev, _ = _run_case(tmp_path_factory, doc, "single")
        r = ev["report"]
        ok = rec["stats"]["counts"]["ok"] > 1000 and r.normal_rmse_deg <= 2.0
        _verdict(
            "criterion 3 (single-shot cross-sinusoid, noiseless)", ok,
            f"completed with {rec['stats']['counts']['ok']} ok pixels, normal "
            f"RMSE {r.normal_rmse_deg:.3f} deg (<= 2)",
        )


class TestCriterion4OrthographicContrast:
    def test_outermost_field_bin(self, noiseless_case):
        out, rec, ev, _ = noiseless_case
        from poldefl.pfmio import read_pfm

        scene = rec["scene"]
        truth_n = read_pfm(out / "truth" / "normal.pfm")
        sol = rec["solution"]
        baseline = rec["baseline"]
        mask = ev["mask"] & baseline.valid & sol.ok
        prof_orth = field_angle_error_profile(baseline.best, truth_n, scene.camera, mask)
        prof_fused = field_angle_error_profile(sol.normals, truth_n, scene.camera, mask)
        # the scene must span >= 15 deg half field of view
        rays = scene.camera.ray_grid()
        axis = scene.camera.camera_to_world(np.array([0.0, 0.0, 1.0]))
        field = np.degrees(np.arccos(np.clip(np.sum(rays * axis, axis=-1), -1, 1)))
        half_fov = float(np.max(field[mask]))
        orth_err = prof_orth[-1][1]
        fused_err = prof_fused[-1][1]
        ok = half_fov >= 15.0 and orth_err >= 5.0 and fused_err <= 0.1
        _verdict(
            "criterion 4 (orthographic baseline contrast)", ok,
            f"half-FOV {half_fov:.1f} deg (>= 15), outermost-bin error: "
            f"orthographic best-case {orth_err:.2f} deg (>= 5) vs fused "
            f"{fused_err:.4f} deg (<= 0.1)",
        )


class TestCriterion5PropertySuites:
    def test_property_suites(self, noiseless_case, tmp_path_factory):
        results = []

        # (a) DoP inversion round trip, both branches, both models
        worst = 0.0
        for mat, model in ((MaterialOpticalProperties(m=1.5), "eq5"), (STEEL, "eq6")):
            t_peak, _ = dop_peak(mat.m, mat.kappa, model)
            hi = np.pi / 2 - GRAZING_EPS
            for lo_b, hi_b in ((0.01, t_peak - 0.01), (t_peak + 0.01, hi - 0.01)):
                theta = np.linspace(lo_b, hi_b, 4000)
                rho = np.clip(dop_model(theta, mat, model), 0.0, 1.0)
                cand = invert_dop(rho, mat, tol=1e-9, model=model)
                branch = cand.theta_low if lo_b < t_peak else cand.theta_high
                worst = max(worst, float(np.max(np.abs(branch - theta))))
        results.append(("DoP inversion round trip", worst < 1e-6, f"max {worst:.2e} rad"))

        # (b) g(s) monotone with a unique root, 1000 random geometries
        rng = np.random.default_rng(7)
        d = rng.normal(size=(1200, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        D = rng.uniform(-200, 200, size=(1200, 3))
        perp = np.linalg.norm(D - np.sum(D * d, axis=-1, keepdims=True) * d, axis=-1)
        d, D = d[perp > 1.0][:1000], D[perp > 1.0][:1000]
        s_grid = np.geomspace(1.0, 1e5, 64)
        g = np.stack([half_angle_along_ray(np.zeros(3), d, D, np.full(len(d), s))
                      for s in s_grid])
        mono = bool(np.all(np.diff(g, axis=0) < 0)) and len(d) == 1000
        results.append(("half-angle monotonicity (1000 geometries)", mono,
                        f"{len(d)} geometries, strictly decreasing: {mono}"))

        # (c) codec round trip <= 0.1 display px RMS, multi and single shot
        out, rec, _, _ = noiseless_case
        scene = rec["scene"]
        truth = trace(scene)
        corr = rec["corr"]
        sel = corr.valid & truth.mask
        rms_multi = float(np.sqrt(np.mean(
            (corr.i[sel] - truth.display_ij[..., 0][sel]) ** 2
            + (corr.j[sel] - truth.display_ij[..., 1][sel]) ** 2)))
        s_out = tmp_path_factory.mktemp("single_rt")
        pipeline.simulate(bearing_ball_manifest(size=256, mode="single"), s_out)
        rec_s = pipeline.reconstruct(s_out, "single")
        scene_s = validate_manifest(load_manifest(s_out / "manifest.json"))
        truth_s = trace(scene_s)
        corr_s = rec_s["corr"]
        sel_s = corr_s.valid & truth_s.mask
        rms_single = float(np.sqrt(np.mean(
            (corr_s.i[sel_s] - truth_s.display_ij[..., 0][sel_s]) ** 2
            + (corr_s.j[sel_s] - truth_s.display_ij[..., 1][sel_s]) ** 2)))
        results.append(("codec round trip", rms_multi <= 0.1 and rms_single <= 0.1,
                        f"multi {rms_multi:.4f} px, single {rms_single:.4f} px"))

        # (d) dielectric closed form vs exact Fresnel DoP, kappa = 0
        theta = np.linspace(0.0, np.pi / 2 - GRAZING_EPS, 20000)
        dmax = max(
            float(np.max(np.abs(dop_dielectric(theta, m) - dop_exact(theta, m, 0.0))))
            for m in (1.33, 1.5, 2.4)
        )
        results.append(("dielectric DoP vs exact Fresnel", dmax < 1e-9, f"max {dmax:.1e}"))

        # (e) simulator reflection-law and AoLP consistency
        rays = scene.camera.ray_grid()
        refl = geo.reflect(rays, truth.normals)
        to_d = truth.display_points - truth.points
        to_d /= np.linalg.norm(to_d, axis=-1, keepdims=True)
        refl_res = float(np.nanmax(
            np.linalg.norm(refl - to_d, axis=-1)[truth.mask]))
        plan = render_plan(scene, truth)
        chans = render_frame(plan, np.ones((scene.display.height, scene.display.width)))
        est = stokes_from_quad(*(plan.raster(ch) for ch in chans))
        pred = aolp_of(scene, truth)
        aolp_sel = truth.mask & est.valid & (est.dop > 1e-3)
        aolp_res = float(np.max(np.abs(
            np.angle(np.exp(2j * (est.aolp[aolp_sel] - pred[aolp_sel]))) / 2.0)))
        results.append(("reflection law + AoLP consistency",
                        refl_res < 1e-6 and aolp_res < 1e-6,
                        f"reflection {refl_res:.1e}, AoLP {aolp_res:.1e} rad"))

        # (f) determinism: bit-identical noisy reruns
        small = validate_manifest(bearing_ball_manifest(size=96, sigma=0.005, seed=5))
        tr = trace(small)
        a, _ = render_stack(small, tr)
        b, _ = render_stack(small, tr)
        identical = all(
            np.array_equal(xa, xb)
            for (_, ca), (_, cb) in zip(a, b, strict=True)
            for xa, xb in zip(ca, cb)
        )
        results.append(("determinism", identical, "bit-identical rerun"))

        ok = all(r[1] for r in results)
        detail = "; ".join(f"{n} [{'ok' if s else 'FAIL'}: {d}]" for n, s, d in results)
        _verdict("criterion 5 (property suites)", ok, detail)


class TestCriterion6DegeneracyHandling:
    def test_retro_and_saturated_flagged_never_filled(self, ball_truth):
        scene, truth = ball_truth
        notes = []

        # retro-reflection: display point on the camera ray, theta = 0
        r = fuse_pixel(0.0, np.array([0.0, 0.0, 50.0]), np.array([0.0, 0.0, 1.0]),
                       np.zeros(3), WorkingDistanceInterval(1.0, 100.0), STEEL)
        retro_ok = r["status"] == Status.NO_ROOT and "depth" not in r
        notes.append(f"retro pixel -> {Status(r['status']).name}, no depth emitted")

        # a raster with a saturated patch: flagged under both policies
        model = scene.dop_model
        theta = np.where(truth.mask, truth.theta, 0.0)
        rho = np.clip(np.where(truth.mask, dop_model(theta, scene.material, model), 0.0),
                      0.0, 1.0)
        stokes = StokesEstimate(
            s0=np.where(truth.mask, 1.0, 0.0), dop=rho, aolp=aolp_of(scene, truth),
            valid=truth.mask.copy(),
        )
        ij = np.where(np.isfinite(truth.display_ij), truth.display_ij, 0.0)
        corr = CorrespondenceMap(i=ij[..., 0], j=ij[..., 1], valid=truth.mask.copy())
        _, rho_max = dop_peak(scene.material.m, scene.material.kappa, model)
        sat = truth.mask & (stokes.dop > 0.5 * rho_max)
        stokes.dop[sat] = min(1.0, rho_max * 1.02)

        sol_c, _ = fuse_map(stokes, corr, scene.camera, scene.display, scene.interval,
                            scene.material, dop_model=model)
        # clamping pins theta at the near-grazing DoP peak; whether or not
        # that angle is geometrically reachable, the pixel must carry a
        # degeneracy flag and never pass as OK
        flagged = np.isin(sol_c.status[sat], (Status.SATURATED_DOP, Status.NO_ROOT))
        clamp_ok = not np.any(sol_c.status[sat] == Status.OK) and np.all(flagged)
        notes.append(
            f"{int(sat.sum())} saturated pixels -> clamp policy flags all "
            f"(saturated-dop or no-root), 0 ok")

        # on a geometry where the clamped peak angle is feasible the pixel
        # resolves but keeps the saturated-dop flag
        r_sat = fuse_pixel(1.0, np.array([1.0, 0.0, 100.0]), np.array([0.0, 0.0, 1.0]),
                           np.zeros(3), WorkingDistanceInterval(0.01, 1000.0), STEEL)
        sat_pixel_ok = r_sat["status"] == Status.SATURATED_DOP
        notes.append(f"feasible saturated pixel -> {Status(r_sat['status']).name}")

        sol_s, _ = fuse_map(stokes, corr, scene.camera, scene.display, scene.interval,
                            scene.material, dop_model=model, strict_dop=True)
        strict_ok = (np.all(sol_s.status[sat] == Status.INVALID_DECODE)
                     and np.all(np.isnan(sol_s.depth[sat])))
        notes.append("strict policy invalidates all of them with nan depth")

        ok = retro_ok and clamp_ok and sat_pixel_ok and strict_ok
        _verdict("criterion 6 (degeneracy handling)", ok, "; ".join(notes))
