"""Pattern generation, phase decoding, unwrapping and correspondence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from poldefl import pipeline
from poldefl.codec import (
    GUARD,
    CodecError,
    PatternSpec,
    _erode,
    decode_fourier_single_shot,
    decode_phase_shift,
    generate_patterns,
    phase_to_display_coords,
    unwrap_two_frequency,
)
from poldefl.geometry import DisplayPlane
from poldefl.manifest import bearing_ball_manifest


def _disp(w=256, h=192):
    return DisplayPlane(
        origin=np.zeros(3), u=np.array([1.0, 0, 0]), v=np.array([0, 1.0, 0]),
        pitch=0.5, width=w, height=h,
    )


def _circ_diff(a, b):
    return np.angle(np.exp(1j * (a - b)))


class TestPatternSpec:
    def test_defaults_valid(self):
        PatternSpec()

    def test_invalid_specs_rejected(self):
        with pytest.raises(CodecError):
            PatternSpec(kind="stripes")
        with pytest.raises(CodecError):
            PatternSpec(steps=2)
        with pytest.raises(CodecError):
            PatternSpec(freq=0.0)
        with pytest.raises(CodecError):
            PatternSpec(mean=0.9, depth=0.2)
        with pytest.raises(CodecError):
            PatternSpec(axes=("u", "w"))


class TestGeneratePatterns:
    def test_four_step_axis_u_unit_frequency(self):
        spec = PatternSpec(axes=("u",), steps=4, freq=1.0)
        frames = generate_patterns(spec, _disp())
        low = [f for f in frames if f.step in range(4)][:4]
        assert len(frames) == 8  # reference + coding set, both at freq 1
        for k, fr in enumerate(low):
            assert fr.axis == "u" and fr.freq == 1.0 and fr.step == k
            # constant along j
            assert np.allclose(fr.raster, fr.raster[0][None, :])
        # one full cosine cycle across i: step-0 frame max near i=0 edge,
        # min mid-display, and the four shifts are quarter-period rotations
        r0 = low[0].raster[0]
        assert abs(r0[0] - (spec.mean + spec.depth)) < 1e-3
        assert abs(r0[len(r0) // 2] - (spec.mean - spec.depth)) < 1e-3
        # frame k equals frame 0 advanced by pi/2 in phase
        ph = np.linspace(0, 2 * np.pi, 256, endpoint=False) + np.pi / 256
        for k, fr in enumerate(low):
            np.testing.assert_allclose(
                fr.raster[0], spec.mean + spec.depth * np.cos(ph - np.pi * k / 2),
                atol=1e-12,
            )

    def test_cross_sinusoid_extremes(self):
        spec = PatternSpec(kind="cross-sinusoid", f_u=8.0, f_v=8.0, mean=0.6, depth=0.3)
        frames = generate_patterns(spec, _disp())
        cross = [f for f in frames if f.kind == "cross-sinusoid"]
        assert len(cross) == 1 and cross[0].axis == "both"
        r = cross[0].raster
        assert r.min() >= spec.mean - spec.depth - 1e-12
        assert r.max() <= spec.mean + spec.depth + 1e-12
        # separable sum: raster = mean + (row profile + column profile)
        ru = r.mean(axis=0) - spec.mean
        rv = r.mean(axis=1) - spec.mean
        np.testing.assert_allclose(r, spec.mean + ru[None, :] + rv[:, None], atol=1e-9)

    def test_all_values_in_unit_interval(self):
        for spec in (PatternSpec(), PatternSpec(kind="cross-sinusoid"),
                     PatternSpec(mean=0.5, depth=0.5)):
            for fr in generate_patterns(spec, _disp(64, 48)):
                assert fr.raster.min() >= 0.0 and fr.raster.max() <= 1.0


class TestDecodePhaseShift:
    def test_closed_form_phi_zero(self):
        phase, mod, valid = decode_phase_shift(
            [np.full((2, 2), v) for v in (1.5, 1.0, 0.5, 1.0)], 4)
        np.testing.assert_allclose(np.angle(np.exp(1j * phase)), 0.0, atol=1e-12)
        np.testing.assert_allclose(mod, 0.5, atol=1e-12)
        assert valid.all()

    def test_closed_form_phi_quarter(self):
        phase, _, _ = decode_phase_shift(
            [np.full((2, 2), v) for v in (1.0, 1.5, 1.0, 0.5)], 4)
        np.testing.assert_allclose(phase, np.pi / 2, atol=1e-12)

    @pytest.mark.parametrize("steps", [3, 4, 5, 8])
    def test_synthetic_ramp_round_trip(self, steps):
        phi = np.linspace(0, 4 * np.pi, 300).reshape(10, 30) % (2 * np.pi)
        captured = [0.7 + 0.25 * np.cos(phi - 2 * np.pi * k / steps)
                    for k in range(steps)]
        dec, mod, valid = decode_phase_shift(captured, steps)
        np.testing.assert_allclose(_circ_diff(dec, phi), 0.0, atol=1e-9)
        np.testing.assert_allclose(mod, 0.25, atol=1e-9)
        assert valid.all()

    def test_global_scale_invariance(self):
        phi = np.linspace(0.1, 6.0, 50)
        captured = [1.0 + 0.4 * np.cos(phi - np.pi * k / 2) for k in range(4)]
        ref, _, _ = decode_phase_shift(captured, 4)
        # a power-of-two scale keeps the float arithmetic exact, so the
        # atan2 of the scaled sums is bit-identical
        scaled, _, _ = decode_phase_shift([32.0 * c for c in captured], 4)
        np.testing.assert_array_equal(ref, scaled)

    def test_constant_frames_invalid(self):
        _, mod, valid = decode_phase_shift([np.ones((4, 4))] * 4, 4,
                                           modulation_threshold=1e-6)
        assert not valid.any() and np.all(mod < 1e-12)

    def test_frame_count_mismatch_rejected(self):
        with pytest.raises(CodecError):
            decode_phase_shift([np.ones((2, 2))] * 3, 4)
        with pytest.raises(CodecError):
            decode_phase_shift([np.ones((2, 2))] * 2, 2)


class TestUnwrapTwoFrequency:
    def test_exact_round_trip(self):
        freq = 16.0
        low = np.linspace(0, 2 * np.pi, 500, endpoint=False)
        high_abs = freq * low
        absolute, valid, residual = unwrap_two_frequency(low, high_abs % (2 * np.pi), freq)
        np.testing.assert_allclose(absolute, high_abs, atol=1e-9)
        assert valid.all() and np.all(residual < 1e-9)

    def test_fringe_order_at_wrap_boundaries(self):
        freq = 8.0
        low = np.array([0.0, 2 * np.pi / freq - 1e-12, 2 * np.pi / freq,
                        4 * np.pi / freq + 0.01])
        high_abs = freq * low
        absolute, _, _ = unwrap_two_frequency(low, high_abs % (2 * np.pi), freq)
        order = (absolute - high_abs % (2 * np.pi)) / (2 * np.pi)
        np.testing.assert_allclose(order, np.floor(freq * low / (2 * np.pi)))

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(CodecError):
            unwrap_two_frequency(np.zeros(4), np.zeros(4), freq_high=7.5)

    def test_large_disagreement_invalidated(self):
        absolute, valid, residual = unwrap_two_frequency(
            np.array([1.0]), np.array([16.0 * 1.0 % (2 * np.pi) + 2.0]), 16.0)
        assert not valid[0] and residual[0] > np.pi / 2


class TestFourierSingleShot:
    def _cross(self, n=256, f_u=32.0, f_v=24.0, depth=0.25):
        x = (np.arange(n) + 0.5) / n
        xx, yy = np.meshgrid(x, x)
        img = 0.7 + depth * 0.5 * (np.cos(2 * np.pi * f_u * xx)
                                   + np.cos(2 * np.pi * f_v * yy))
        return img, 2 * np.pi * f_u * xx, 2 * np.pi * f_v * yy

    def test_flat_identity_recovers_ramp(self):
        img, phi_u, phi_v = self._cross()
        n = img.shape[0]
        x = (np.arange(n) + 0.5) / n
        xx, yy = np.meshgrid(x, x)
        # a prior that is off by a smooth, slowly varying phase
        offset = 0.3 + 0.02 * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
        out = decode_fourier_single_shot(img, {"u": phi_u + offset, "v": phi_v - offset})
        for axis, phi in (("u", phi_u), ("v", phi_v)):
            sel = out[axis]["valid"]
            assert sel.sum() > 1000
            err = _circ_diff(out[axis]["phase"][sel], phi[sel] % (2 * np.pi))
            # the lowpass passes the ripple's (1, 1)-cycle terms at 0.82, so
            # 18% of its 0.02 rad amplitude stays in the phase
            assert np.max(np.abs(err)) < 4e-3

    def test_missing_v_carrier_flagged_invalid(self):
        img, phi_u, phi_v = self._cross()
        img_u = 0.7 + 0.25 * np.cos(phi_u)
        out = decode_fourier_single_shot(
            img_u, {"u": phi_u, "v": phi_v}, amplitude_threshold=1e-3)
        assert out["u"]["valid"].sum() > 1000
        assert out["v"]["valid"].sum() == 0

    def test_reference_shape_mismatch_rejected(self):
        img, phi_u, _ = self._cross(n=64)
        with pytest.raises(CodecError):
            decode_fourier_single_shot(img, {"u": phi_u[:, :-1]})

    def test_erosion_matches_scipy(self):
        ndimage = pytest.importorskip("scipy.ndimage")

        # sides from 1 to 3*GUARD: smaller than the 2*GUARD margin, and
        # masks that touch the border
        masks = hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2,
                                                  min_side=1, max_side=3 * GUARD))

        @settings(max_examples=200, deadline=None)
        @given(mask=masks, iterations=st.integers(1, 9))
        @example(mask=np.ones((2 * GUARD, 2 * GUARD), bool), iterations=GUARD)
        def check(mask, iterations):
            np.testing.assert_array_equal(
                _erode(mask, iterations), ndimage.binary_erosion(mask, iterations=iterations))

        check()

    def test_codec_needs_no_scipy(self):
        import poldefl

        code = ("import sys, numpy as np, poldefl.codec as c\n"
                "z = np.zeros((32, 32))\n"
                "c.decode_fourier_single_shot(z, reference_phase={'u': z, 'v': z})\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(Path(poldefl.__file__).parents[1])}
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.strip() == "[]"


class TestPhaseToDisplayCoords:
    def test_zero_phase_maps_to_origin(self):
        cm = phase_to_display_coords(np.zeros((2, 2)), np.zeros((2, 2)), 8.0, 8.0, _disp())
        np.testing.assert_array_equal(cm.i, 0.0)
        np.testing.assert_array_equal(cm.j, 0.0)
        assert cm.valid.all() and np.all(cm.residual == 0.0)

    def test_full_cycle_phase_maps_to_far_edge(self):
        d = _disp()
        cm = phase_to_display_coords(
            np.full((1, 1), 2 * np.pi * 8.0), np.zeros((1, 1)), 8.0, 8.0, d)
        # boundary coordinate is kept valid; anything beyond is masked
        assert cm.i[0, 0] == d.width and cm.valid[0, 0]
        cm2 = phase_to_display_coords(
            np.full((1, 1), 2 * np.pi * 8.0 * 1.01), np.zeros((1, 1)), 8.0, 8.0, d)
        assert not cm2.valid[0, 0]

    def test_linear_in_phase(self, rng):
        d = _disp()
        phi = rng.uniform(0, 2 * np.pi * 4, (8, 8))
        cm = phase_to_display_coords(phi, phi / 2, 16.0, 4.0, d)
        np.testing.assert_allclose(cm.i, phi * d.width / (2 * np.pi * 16.0))
        np.testing.assert_allclose(cm.j, (phi / 2) * d.height / (2 * np.pi * 4.0))


class TestEndToEndCorrespondence:
    def test_multishot_round_trip_within_tenth_display_pixel(self, ball_run, ball_truth):
        """generate -> render -> decode -> phase_to_display_coords reproduces
        the traced ground-truth display coordinates."""
        _, truth = ball_truth
        corr = ball_run["corr"]
        sel = corr.valid & truth.mask
        assert sel.sum() > 2000
        di = corr.i[sel] - truth.display_ij[..., 0][sel]
        dj = corr.j[sel] - truth.display_ij[..., 1][sel]
        rms = np.sqrt(np.mean(di**2 + dj**2))
        assert rms <= 0.1

    def test_single_shot_round_trip_within_tenth_display_pixel(self, single_sim_dir):
        from poldefl.manifest import load_manifest, validate_manifest
        from poldefl.simulator import trace

        rec = pipeline.reconstruct(single_sim_dir, "single")
        scene = validate_manifest(load_manifest(single_sim_dir / "manifest.json"))
        truth = trace(scene)
        corr = rec["corr"]
        sel = corr.valid & truth.mask
        assert sel.sum() > 1000
        di = corr.i[sel] - truth.display_ij[..., 0][sel]
        dj = corr.j[sel] - truth.display_ij[..., 1][sel]
        assert np.sqrt(np.mean(di**2 + dj**2)) <= 0.1

    def test_single_shot_phase_matches_multishot(self, single_sim_dir, tmp_path):
        """Cross-method oracle: Fourier demodulation agrees with the K-step
        decode of the same scene rendered with phase-shift patterns."""
        doc_multi = bearing_ball_manifest(size=192)
        out = tmp_path / "multi192"
        pipeline.simulate(doc_multi, out)
        from poldefl.manifest import load_manifest, validate_manifest

        scene_m = validate_manifest(load_manifest(out / "manifest.json"))
        spec_m = scene_m.pattern
        shape = (scene_m.camera.height, scene_m.camera.width)
        frames_m = pipeline._load_frames(out, shape)
        spec_s = validate_manifest(
            load_manifest(single_sim_dir / "manifest.json")).pattern
        frames_s = pipeline._load_frames(single_sim_dir, shape)
        decoded_s, _ = pipeline._decode_single_shot(frames_s, spec_s)
        for axis, f_single in (("u", spec_s.f_u), ("v", spec_s.f_v)):
            abs_m, val_m, _ = pipeline._decode_axis_multishot(frames_m, axis, spec_m)
            abs_s, val_s, _ = decoded_s[axis]
            sel = val_m & val_s
            assert sel.sum() > 1000
            # compare in common units: absolute display fraction * 2*pi
            diff = abs_m[sel] / spec_m.freq - abs_s[sel] / f_single
            assert np.sqrt(np.mean((diff * spec_m.freq) ** 2)) < 0.05

    def test_fringe_order_robust_to_one_percent_noise(self, tmp_path):
        doc = bearing_ball_manifest(size=128, sigma=0.01, seed=3)
        out = tmp_path / "noisy"
        pipeline.simulate(doc, out)
        from poldefl.manifest import load_manifest, validate_manifest
        from poldefl.simulator import trace

        scene = validate_manifest(load_manifest(out / "manifest.json"))
        truth = trace(scene)
        frames = pipeline._load_frames(out, truth.mask.shape)
        spec = scene.pattern
        phi_true = 2 * np.pi * spec.freq * truth.display_ij[..., 0] / scene.display.width
        absolute, valid, _ = pipeline._decode_axis_multishot(frames, "u", spec)
        sel = valid & truth.mask
        assert sel.sum() > 2000
        correct = np.abs(absolute[sel] - phi_true[sel]) < np.pi
        assert np.mean(correct) >= 0.999
