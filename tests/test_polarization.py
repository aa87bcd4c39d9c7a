"""Stokes analysis, DoP models, Fresnel reflectances, DoP inversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from poldefl.polarization import (
    GRAZING_EPS,
    MATERIAL_PRESETS,
    MaterialOpticalProperties,
    dop_dielectric,
    dop_exact,
    dop_metal,
    dop_model,
    dop_peak,
    fresnel_reflectance,
    invert_dop,
    stokes_from_quad,
)

STEEL = MATERIAL_PRESETS["bearing-ball-steel"]
CHROME = MATERIAL_PRESETS["chrome"]
GLASS = MaterialOpticalProperties(m=1.5)


class TestMaterial:
    def test_presets(self):
        assert (STEEL.m, STEEL.kappa) == (2.76, 3.79)
        assert (CHROME.m, CHROME.kappa) == (3.13, 3.31)
        assert not STEEL.is_dielectric and GLASS.is_dielectric
        assert GLASS.default_model == "eq5" and STEEL.default_model == "eq6"

    def test_invariants(self):
        with pytest.raises(ValueError):
            MaterialOpticalProperties(m=1.0)
        with pytest.raises(ValueError):
            MaterialOpticalProperties(m=1.5, kappa=-0.1)


class TestStokesFromQuad:
    def test_fully_polarized_along_0(self):
        est = stokes_from_quad(1.0, 0.5, 0.0, 0.5)
        assert np.isclose(est.s0, 1.0) and np.isclose(est.dop, 1.0)
        assert np.isclose(est.aolp, 0.0)
        assert est.valid

    def test_unpolarized(self):
        est = stokes_from_quad(0.5, 0.5, 0.5, 0.5)
        assert np.isclose(est.dop, 0.0) and est.valid
        assert np.isclose(np.mod(est.aolp, np.pi), 0.0)

    def test_45_deg_polarization(self):
        est = stokes_from_quad(0.5, 1.0, 0.5, 0.0)
        assert np.isclose(est.dop, 1.0) and np.isclose(est.aolp, np.pi / 4)

    def test_dark_pixels_invalid(self):
        est = stokes_from_quad(*(np.full((2, 2), 1e-9),) * 4, dark_threshold=1e-6)
        assert not est.valid.any()
        assert np.all(est.dop == 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stokes_from_quad(np.zeros((2, 2)), np.zeros(3), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_i_max_i_min(self):
        est = stokes_from_quad(1.0, 0.5, 0.0, 0.5)
        assert np.isclose(est.i_max, 1.0) and np.isclose(est.i_min, 0.0)

    def test_resynthesis_round_trip(self, rng):
        # quads synthesized from (s0, rho, phi) solve back to exactly those
        s0 = rng.uniform(0.5, 2.0, (8, 8))
        rho = rng.uniform(0.0, 1.0, (8, 8))
        phi = rng.uniform(0.0, np.pi, (8, 8))
        angles = np.deg2rad([0.0, 45.0, 90.0, 135.0])
        quad = [s0 / 2 + s0 * rho / 2 * np.cos(2 * (a - phi)) for a in angles]
        est = stokes_from_quad(*quad)
        np.testing.assert_allclose(est.s0, s0, atol=1e-12)
        np.testing.assert_allclose(est.dop, rho, atol=1e-12)
        d = np.abs(est.aolp - phi)
        assert np.max(np.minimum(d, np.pi - d)) < 1e-9


class TestDopModels:
    def test_dielectric_endpoints(self):
        assert dop_dielectric(0.0, 1.5) == 0.0
        assert dop_dielectric(np.pi / 2 - 1e-9, 1.5) < 1e-6

    def test_dielectric_against_independent_fresnel_oracle(self):
        # independent oracle: DoP from Fresnel power reflectances
        theta = np.linspace(0.0, np.pi / 2 - 1e-6, 2001)
        m = 1.5
        rs, rp = fresnel_reflectance(theta, m, 0.0)
        oracle = np.where(rs + rp > 0, (rs - rp) / np.maximum(rs + rp, 1e-300), 0.0)
        np.testing.assert_allclose(dop_dielectric(theta, m), oracle, atol=1e-9)

    def test_metal_zero_at_normal_incidence(self):
        assert dop_metal(0.0, 2.76, 3.79) == 0.0

    def test_metal_steel_at_45deg(self):
        # independent evaluation: ts = tan45*sin45, m^2(1+k^2) = 117.04
        ts = np.tan(np.pi / 4) * np.sin(np.pi / 4)
        expected = 2 * 2.76 * ts / (ts * ts + 2.76**2 * (1 + 3.79**2))
        got = dop_metal(np.pi / 4, 2.76, 3.79)
        assert abs(got - expected) < 1e-15
        assert abs(got - 0.0332) < 1e-4

    def test_models_bounded_on_dense_grid(self):
        theta = np.linspace(0.0, np.pi / 2 - GRAZING_EPS, 10000)
        for mat in (STEEL, CHROME):
            for model in ("eq6", "exact"):
                rho = dop_model(theta, mat, model)
                assert np.all(rho >= 0.0) and np.all(rho <= 1.0)
        rho5 = dop_dielectric(theta, 1.5)
        assert np.all(rho5 >= 0.0) and np.all(rho5 <= 1.0)

    def test_peak_matches_dense_sampling_oracle(self):
        theta = np.arange(0.0, np.pi / 2 - GRAZING_EPS, 1e-5)
        for mat, model in ((STEEL, "eq6"), (STEEL, "exact"), (GLASS, "eq5")):
            rho = dop_model(theta, mat, model)
            k = int(np.argmax(rho))
            t_peak, rho_max = dop_peak(mat.m, mat.kappa, model)
            assert abs(t_peak - theta[k]) < 1e-4
            assert abs(rho_max - rho[k]) < 1e-8

    @pytest.mark.parametrize("mat", [GLASS, MaterialOpticalProperties(m=1.33), STEEL, CHROME])
    def test_peak_matches_closed_forms(self, mat):
        """Brewster's angle arctan(m) for eq5; for eq6 the peak solves
        cos(t) = (sqrt(x^2 + 4) - x) / 2 with x = m sqrt(1 + kappa^2)."""
        if mat.is_dielectric:
            t_peak, rho_max = dop_peak(mat.m, mat.kappa, "eq5")
            assert abs(t_peak - np.arctan(mat.m)) < 1e-10
            assert abs(rho_max - 1.0) < 1e-12
        x = mat.m * np.sqrt(1.0 + mat.kappa**2)
        t_peak, _ = dop_peak(mat.m, mat.kappa, "eq6")
        assert abs(t_peak - np.arccos((np.sqrt(x * x + 4.0) - x) / 2.0)) < 1e-10

    @pytest.mark.parametrize("mat", [GLASS, STEEL, CHROME])
    def test_exact_peak_matches_scipy_bounded_search(self, mat):
        optimize = pytest.importorskip("scipy.optimize")
        res = optimize.minimize_scalar(
            lambda t: -float(dop_model(t, mat, "exact")), bounds=(0.0, np.pi / 2 - GRAZING_EPS),
            method="bounded", options={"xatol": 1e-12})
        t_peak, rho_max = dop_peak(mat.m, mat.kappa, "exact")
        assert abs(t_peak - res.x) < 1e-8
        assert abs(rho_max + res.fun) < 1e-12

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            dop_model(0.5, STEEL, "nope")


class TestFresnel:
    def test_normal_incidence_degeneracy(self):
        for mat in (STEEL, GLASS):
            n = complex(mat.m, mat.kappa)
            expected = abs((n - 1) / (n + 1)) ** 2
            rs, rp = fresnel_reflectance(0.0, mat.m, mat.kappa)
            assert abs(rs - expected) < 1e-12 and abs(rp - expected) < 1e-12

    def test_brewster_angle_dielectric(self):
        rs, rp = fresnel_reflectance(np.arctan(1.5), 1.5, 0.0)
        assert rp < 1e-15 and rs > 0.0

    def test_rs_dominates_rp(self):
        theta = np.linspace(1e-3, np.pi / 2 - 1e-3, 500)
        for mat in (STEEL, GLASS):
            rs, rp = fresnel_reflectance(theta, mat.m, mat.kappa)
            assert np.all(rs >= rp)
            assert np.all((rs >= 0) & (rs <= 1) & (rp >= 0) & (rp <= 1))

    def test_eq5_equals_exact_fresnel_for_dielectric(self):
        theta = np.linspace(0.0, np.pi / 2 - 1e-6, 4001)
        for m in (1.33, 1.5, 2.4):
            np.testing.assert_allclose(
                dop_dielectric(theta, m), dop_exact(theta, m, 0.0), atol=1e-9
            )


class TestInvertDop:
    def test_rho_zero_gives_both_curve_ends(self):
        cand = invert_dop(np.array([0.0]), STEEL)
        assert cand.theta_low[0] == 0.0
        assert abs(cand.theta_high[0] - (np.pi / 2 - GRAZING_EPS)) < 1e-9
        assert not cand.saturated[0]

    def test_round_trip_at_22_5_deg(self):
        rho = dop_metal(np.radians(22.5), 2.76, 3.79)
        cand = invert_dop(np.array([float(rho)]), STEEL, tol=1e-9)
        assert min(abs(cand.theta_low[0] - np.radians(22.5)),
                   abs(cand.theta_high[0] - np.radians(22.5))) < 1e-7

    def test_peak_degeneracy(self):
        t_peak, rho_max = dop_peak(STEEL.m, STEEL.kappa, "eq6")
        cand = invert_dop(np.array([rho_max]), STEEL, tol=1e-9)
        assert abs(cand.theta_low[0] - t_peak) < 1e-3
        assert abs(cand.theta_high[0] - t_peak) < 1e-3

    def test_saturation_clamp_and_strict(self):
        # The strict policy is a fusion status rule (test_reconstruct's
        # test_strict_dop_marks_saturated_invalid); the inverse always clamps.
        t_peak, rho_max = dop_peak(STEEL.m, STEEL.kappa, "eq6")
        rho = np.array([min(1.0, rho_max * 1.5)])
        clamped = invert_dop(rho, STEEL)
        assert clamped.saturated[0]
        assert clamped.theta_low[0] == t_peak and clamped.theta_high[0] == t_peak

    def test_out_of_range_rho_rejected(self):
        with pytest.raises(ValueError):
            invert_dop(np.array([-0.1]), STEEL)
        with pytest.raises(ValueError):
            invert_dop(np.array([1.1]), STEEL)

    @settings(max_examples=300, deadline=None)
    @given(frac=st.floats(0.0, 1.0), which=st.sampled_from(
        [("eq6", STEEL), ("eq6", CHROME), ("exact", STEEL), ("eq5", GLASS)]))
    def test_round_trip_both_branches(self, frac, which):
        model, mat = which
        t_peak, _ = dop_peak(mat.m, mat.kappa, model)
        lo = 0.01 + frac * (t_peak - 0.02)  # low branch sample
        rho = float(dop_model(lo, mat, model))
        cand = invert_dop(np.array([rho]), mat, tol=1e-9, model=model)
        assert abs(cand.theta_low[0] - lo) < 1e-6
        hi_end = np.pi / 2 - GRAZING_EPS
        hi = t_peak + 0.01 + frac * (hi_end - t_peak - 0.02)
        rho_hi = float(dop_model(hi, mat, model))
        cand = invert_dop(np.array([rho_hi]), mat, tol=1e-9, model=model)
        assert abs(cand.theta_high[0] - hi) < 1e-6

    @settings(max_examples=150, deadline=None)
    @given(which=st.sampled_from([("eq5", GLASS), ("eq6", STEEL), ("exact", STEEL)]),
           data=st.data())
    def test_masked_pixels_invert_bit_for_bit(self, which, data):
        """Inverting only the masked pixels (as fusion does) gives, bit for
        bit, what inverting the whole raster gives on them: zero DoP,
        saturated DoP and DoP below the grazing-end value included, and
        an empty mask."""
        model, mat = which
        _, rho_max = dop_peak(mat.m, mat.kappa, model)
        rho_grazing = float(dop_model(np.pi / 2 - GRAZING_EPS, mat, model))
        special = st.sampled_from([0.0, rho_grazing / 2, rho_grazing, rho_max,
                                   (rho_max + 1.0) / 2, 1.0])
        shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=8))
        rho = data.draw(hnp.arrays(np.float64, shape, elements=special | st.floats(0.0, 1.0)))
        full = invert_dop(rho, mat, model=model)
        for mask in (data.draw(hnp.arrays(np.bool_, shape)), np.zeros(shape, dtype=bool)):
            packed = invert_dop(rho[mask], mat, model=model)
            for name in ("theta_low", "theta_high", "saturated"):
                assert getattr(full, name)[mask].tobytes() == getattr(packed, name).tobytes()

    def test_vectorized_matches_scalar(self, rng):
        rho = rng.uniform(0.0, 0.3, (16,))
        vec = invert_dop(rho, STEEL, tol=1e-9)
        for k in range(len(rho)):
            one = invert_dop(np.array([rho[k]]), STEEL, tol=1e-9)
            assert abs(vec.theta_low[k] - one.theta_low[0]) < 1e-12
            assert abs(vec.theta_high[k] - one.theta_high[0]) < 1e-12
