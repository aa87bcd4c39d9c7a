"""Camera/display models and the specular bisector construction."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from poldefl import geometry as geo
from poldefl.geometry import (
    DegenerateGeometryError,
    DisplayPlane,
    GeometryError,
    PinholeCamera,
    WorkingDistanceInterval,
    bisector_normal,
    half_angle,
    half_angle_along_ray,
)


def _cam(**kw):
    base = dict(fx=1000.0, fy=1000.0, cx=320.0, cy=240.0, width=640, height=480)
    base.update(kw)
    return PinholeCamera(**base)


finite3 = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
).map(np.array)


class TestPinholeCamera:
    def test_principal_ray(self):
        cam = _cam()
        np.testing.assert_allclose(cam.pixel_to_ray([320.0, 240.0]), [0, 0, 1], atol=1e-12)

    def test_one_focal_length_offset_gives_45_deg(self):
        cam = _cam(width=3000, height=3000, cx=1500.0, cy=1500.0)
        expected = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(cam.pixel_to_ray([1500.0 + 1000.0, 1500.0]), expected,
                                   atol=1e-12)

    def test_rotated_pose_principal_ray(self):
        # 90 deg about y: camera z axis maps to world x
        R = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        cam = _cam(rotation=R, width=2000, height=2000, cx=1000, cy=1000)
        np.testing.assert_allclose(cam.pixel_to_ray([1000.0, 1000.0]), [1, 0, 0], atol=1e-12)

    def test_out_of_bounds_pixel_rejected(self):
        with pytest.raises(GeometryError):
            _cam().pixel_to_ray([-1.0, 10.0])
        with pytest.raises(GeometryError):
            _cam().pixel_to_ray([10.0, 1e9])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(GeometryError):
            _cam(fx=-1.0)
        with pytest.raises(GeometryError):
            _cam(cx=9999.0)
        with pytest.raises(GeometryError):
            _cam(rotation=np.eye(3) * 2.0)
        with pytest.raises(GeometryError):
            # orthonormal but improper (det = -1)
            _cam(rotation=np.diag([1.0, 1.0, -1.0]))

    def test_project_pixel_to_ray_round_trip(self, rng):
        cam = _cam(rotation=_rot_y(0.3), translation=np.array([5.0, -2.0, 1.0]))
        px = np.stack([rng.uniform(0, 640, 500), rng.uniform(0, 480, 500)], axis=-1)
        rays = cam.pixel_to_ray(px)
        pts = cam.center + rays * rng.uniform(10.0, 500.0, 500)[:, None]
        np.testing.assert_allclose(cam.project(pts), px, atol=1e-6)

    def test_project_behind_camera_rejected(self):
        with pytest.raises(GeometryError):
            _cam().project(np.array([0.0, 0.0, -1.0]))

    def test_ray_grid_unit_norm(self):
        rays = _cam(width=16, height=12, cx=8, cy=6).ray_grid()
        assert rays.shape == (12, 16, 3)
        np.testing.assert_allclose(np.linalg.norm(rays, axis=-1), 1.0, atol=1e-9)


def _rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


class TestDisplayPlane:
    def _disp(self, **kw):
        base = dict(origin=np.array([1.0, 2.0, 3.0]), u=np.array([1.0, 0, 0]),
                    v=np.array([0, 1.0, 0]), pitch=0.1, width=200, height=100)
        base.update(kw)
        return DisplayPlane(**base)

    def test_index_to_point_examples(self):
        d = self._disp()
        np.testing.assert_allclose(d.index_to_point([0.0, 0.0]), d.origin)
        np.testing.assert_allclose(d.index_to_point([10.0, 0.0]), d.origin + [1.0, 0, 0])
        np.testing.assert_allclose(d.index_to_point([0.0, 5.0]), d.origin + [0, 0.5, 0])

    def test_out_of_bounds_index_rejected(self):
        with pytest.raises(GeometryError):
            self._disp().index_to_point([-1.0, 0.0])
        with pytest.raises(GeometryError):
            self._disp().index_to_point([0.0, 101.0])

    def test_point_index_round_trip(self, rng):
        d = self._disp(u=np.array([0.0, 0.6, 0.8]), v=np.array([1.0, 0.0, 0.0]))
        ij = np.stack([rng.uniform(0, 200, 64), rng.uniform(0, 100, 64)], axis=-1)
        np.testing.assert_allclose(d.point_to_index(d.index_to_point(ij)), ij, atol=1e-9)

    def test_non_orthogonal_basis_rejected(self):
        with pytest.raises(GeometryError):
            self._disp(v=np.array([1.0, 1.0, 0.0]))

    def test_intersect_ray(self):
        d = self._disp(origin=np.array([0.0, 0.0, 10.0]))
        t, hit = d.intersect_ray(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        assert hit and np.isclose(t, 10.0)
        t, hit = d.intersect_ray(np.zeros(3), np.array([0.0, 0.0, -1.0]))
        assert not hit and np.isnan(t)
        t, hit = d.intersect_ray(np.zeros(3), np.array([1.0, 0.0, 0.0]))  # parallel
        assert not hit


class TestWorkingDistanceInterval:
    def test_validation(self):
        with pytest.raises(GeometryError):
            WorkingDistanceInterval(0.0, 10.0)
        with pytest.raises(GeometryError):
            WorkingDistanceInterval(10.0, 10.0)
        with pytest.raises(GeometryError):
            WorkingDistanceInterval(1.0, np.inf)

    def test_contains(self):
        ival = WorkingDistanceInterval(1.0, 2.0)
        np.testing.assert_array_equal(ival.contains(np.array([0.5, 1.0, 1.5, 2.0, 3.0])),
                                      [False, True, True, True, False])


class TestBisectorNormal:
    def test_analytic_case(self):
        n = bisector_normal(np.array([0.0, 0, 10]), np.zeros(3), np.array([10.0, 0, 0]))
        np.testing.assert_allclose(n, [0.38268343, 0.0, -0.92388], atol=1e-5)

    def test_retro_reflection_on_axis(self):
        n = bisector_normal(np.array([0.0, 0, 10]), np.zeros(3), np.array([0.0, 0, -5]))
        np.testing.assert_allclose(n, [0, 0, -1], atol=1e-12)

    def test_antipodal_degenerate(self):
        # D beyond S on the same line: the two unit vectors cancel
        with pytest.raises(DegenerateGeometryError):
            bisector_normal(np.array([0.0, 0, 10]), np.zeros(3), np.array([0.0, 0, 20]))

    def test_zero_vector_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            bisector_normal(np.zeros(3), np.zeros(3), np.array([1.0, 0, 0]))

    @settings(max_examples=200, deadline=None)
    @given(S=finite3, D=finite3)
    def test_normal_lies_in_incidence_plane(self, S, D):
        O = np.zeros(3)
        if np.linalg.norm(S) < 1e-3 or np.linalg.norm(D - S) < 1e-3:
            return
        try:
            n = bisector_normal(S, O, D)
        except DegenerateGeometryError:
            return
        a = geo.normalize(O - S)
        b = geo.normalize(D - S)
        triple = np.dot(n, np.cross(a, b))
        assert abs(triple) < 1e-9
        assert np.dot(n, O - S) > 0  # points into the camera half-space

    @settings(max_examples=200, deadline=None)
    @given(S=finite3, D=finite3)
    # |to_c + to_d| = 8e-8: too close to antipodal for a 1e-9 residual
    @example(S=np.array([1.0, 2.0**-24, 0.0]), D=np.array([4.0, 0.0, 0.0]))
    def test_reflection_law(self, S, D):
        O = np.zeros(3)
        if np.linalg.norm(S) < 1e-3 or np.linalg.norm(D - S) < 1e-3:
            return
        try:
            n = bisector_normal(S, O, D)
        except DegenerateGeometryError:
            return
        incoming = geo.normalize(S - O)
        reflected = geo.reflect(incoming, n)
        assert np.linalg.norm(reflected - geo.normalize(D - S)) < 1e-9


class TestHalfAngle:
    def test_analytic_case(self):
        th = half_angle(np.array([0.0, 0, 10]), np.zeros(3), np.array([10.0, 0, 0]))
        assert np.isclose(np.degrees(th), 22.5, atol=1e-12)

    def test_retro_is_zero(self):
        th = half_angle(np.array([0.0, 0, 10]), np.zeros(3), np.array([0.0, 0, -5]))
        assert th == 0.0

    def test_degenerate_antipodal(self):
        with pytest.raises(DegenerateGeometryError):
            half_angle(np.array([0.0, 0, 10]), np.zeros(3), np.array([0.0, 0, 20]))

    def test_matches_angle_to_bisector_normal(self, rng):
        # cross-check oracle: theta equals the angle between n and S->O
        for _ in range(100):
            S = rng.normal(0, 10, 3)
            D = rng.normal(0, 10, 3)
            if np.linalg.norm(S) < 1e-2 or np.linalg.norm(D - S) < 1e-2:
                continue
            try:
                n = bisector_normal(S, np.zeros(3), D)
                th = half_angle(S, np.zeros(3), D)
            except DegenerateGeometryError:
                continue
            to_o = geo.normalize(-S)
            assert abs(np.arccos(np.clip(np.dot(n, to_o), -1, 1)) - th) < 1e-9


class TestHalfAngleMonotonicity:
    def test_strictly_decreasing_on_1000_random_geometries(self, rng):
        """g(s) = half_angle(O + s d, O, D) decreases strictly in s and
        tends to 0, for D off the ray line."""
        n_cfg = 1000
        d = rng.normal(size=(n_cfg, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        D = rng.uniform(-200, 200, size=(n_cfg, 3))
        # keep D off the ray line (distance > 1 mm)
        along = np.sum(D * d, axis=-1, keepdims=True) * d
        off = np.linalg.norm(D - along, axis=-1)
        keep = off > 1.0
        d, D = d[keep], D[keep]
        assert keep.sum() > 900
        s_grid = np.geomspace(1.0, 1e5, 64)
        g = np.stack([half_angle_along_ray(np.zeros(3), d, D, np.full(len(d), s))
                      for s in s_grid])
        assert np.all(np.diff(g, axis=0) < 0)
        assert np.all(g[-1] < np.radians(1.0))  # -> 0 as s -> inf
