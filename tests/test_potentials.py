import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_dynamics import potentials
from coupled_dynamics.potentials import (
    BracketingError,
    DomainError,
    DoubleWell,
    LdpcBec,
    ReflectedPotential,
    equal_height_parameter,
    find_stationary_points,
)


def simpson_potential(eps, dv, dc, y, n=4001):
    """Independent composite-Simpson quadrature of the defining integrand."""
    z = np.linspace(0.0, y, n)
    f = z - eps * (1.0 - (1.0 - z) ** (dc - 1)) ** (dv - 1)
    h = y / (n - 1)
    return h / 3.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-1:2]))


class TestEvalPotential:
    """Potential.potential: closed forms, quadrature oracle, domain check."""

    def test_double_well_zero(self):
        assert DoubleWell(0.3).potential(0.0) == 0.0

    def test_double_well_unit(self):
        assert DoubleWell(0.0).potential(1.0) == pytest.approx(-0.25, abs=1e-15)

    def test_double_well_matches_polynomial(self):
        # against exact rational arithmetic, relative to the terms' magnitudes
        from fractions import Fraction

        ys = np.linspace(-2.0, 2.0, 401)
        for h in (-0.3, -0.01, 0.0, 0.07):
            values = DoubleWell(h).potential(ys)
            for y, v in zip(ys.tolist(), values.tolist()):
                fy, fh = Fraction(y), Fraction(h)
                exact = fy**4 / 4 - fy**2 / 2 - fh * fy
                scale = fy**4 / 4 + fy**2 / 2 + abs(fh * fy)
                assert abs(Fraction(v) - exact) <= Fraction(1e-15) * scale

    def test_ldpc_matches_simpson(self):
        spec = LdpcBec(0.45, 3, 6)
        assert spec.potential(0.5) == pytest.approx(
            simpson_potential(0.45, 3, 6, 0.5), abs=1e-8
        )

    def test_ldpc_matches_simpson_tight(self):
        # closed form and quadrature must agree to 1e-10
        spec = LdpcBec(0.4, 4, 8)
        for y in [0.1, 0.37, 0.92]:
            assert spec.potential(y) == pytest.approx(
                simpson_potential(0.4, 4, 8, y, n=40001), abs=1e-10
            )

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            LdpcBec(0.45, 3, 6).potential(1.5)
        with pytest.raises(DomainError):
            DoubleWell(0.0).potential(3.0)

    def test_domain_violation_names_first_bad_array_value(self):
        with pytest.raises(DomainError, match=r"\[0\.0, 1\.0\]: 1\.5 at index 2$"):
            LdpcBec(0.45, 3, 6).gradient(np.array([0.2, 0.4, 1.5, -0.5]))
        with pytest.raises(DomainError, match=r": -3\.0 at index \(1, 0\)$"):
            DoubleWell(0.0).potential(np.array([[0.0, 1.0], [-3.0, 2.5]]))
        with pytest.raises(DomainError, match=r"\[-2\.0, 2\.0\]: 3\.0$"):
            DoubleWell(0.0).gradient(3.0)

    def test_nan_passes_domain_check(self):
        assert np.isnan(DoubleWell(0.0).gradient(np.array([np.nan, 0.5]))[0])


class TestEvalGradient:
    """Potential.gradient: roots, finite differences of .potential."""

    def test_double_well_root(self):
        assert DoubleWell(0.0).gradient(1.0) == 0.0

    def test_ldpc_at_one(self):
        assert LdpcBec(0.5, 3, 6).gradient(1.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize(
        "spec",
        [
            DoubleWell(0.013),
            LdpcBec(0.45, 3, 6),
            LdpcBec(0.3, 2, 5),
            ReflectedPotential(DoubleWell(-0.2)),
            ReflectedPotential(LdpcBec(0.45, 3, 6)),
        ],
        ids=repr,
    )
    def test_checked_equals_unchecked(self, spec):
        lo, hi = spec.domain
        ys = np.linspace(lo, hi, 1001)
        ys[1:-1] += np.random.default_rng(0).uniform(-0.4, 0.4, 999) * (ys[1] - ys[0])
        assert np.asarray(spec.gradient(ys)).tobytes() == spec.gradient_unchecked(ys).tobytes()
        assert spec.gradient(float(ys[17])) == float(spec.gradient_unchecked(ys[17:18])[0])

    def test_finite_difference(self):
        spec = DoubleWell(0.01)
        delta = 1e-6
        fd = (spec.potential(0.7 + delta) - spec.potential(0.7 - delta)) / (
            2 * delta
        )
        assert spec.gradient(0.7) == pytest.approx(fd, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-1.9, 1.9), st.floats(-0.3, 0.3))
    def test_gradient_consistency_double_well(self, y, h):
        spec = DoubleWell(h)
        delta = 1e-5
        fd = (spec.potential(y + delta) - spec.potential(y - delta)) / (2 * delta)
        assert abs(spec.gradient(y) - fd) <= 1e-5

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-4, 1 - 1e-4), st.floats(0.0, 1.0))
    def test_gradient_consistency_ldpc(self, y, eps):
        spec = LdpcBec(eps, 3, 6)
        delta = 1e-5
        fd = (spec.potential(min(y + delta, 1.0)) - spec.potential(max(y - delta, 0.0))) / (
            min(y + delta, 1.0) - max(y - delta, 0.0)
        )
        assert abs(spec.gradient(y) - fd) <= 1e-5


def _ldpc_curvature(y, eps, dv, dc):
    """U''(y) of LdpcBec(eps, dv, dc): the derivative of
    y - eps * (1 - (1 - y)^(dc-1))^(dv-1)."""
    inner = 1.0 - (1.0 - y) ** (dc - 1)
    return 1.0 - eps * (dv - 1) * (dc - 1) * inner ** (dv - 2) * (1.0 - y) ** (dc - 2)


class TestCurvature:
    @pytest.mark.parametrize(
        "spec, exact",
        [
            (DoubleWell(0.05), lambda y: 3.0 * y**2 - 1.0),
            (LdpcBec(0.45, 3, 6), lambda y: _ldpc_curvature(y, 0.45, 3, 6)),
            (
                ReflectedPotential(LdpcBec(0.45, 3, 6)),
                lambda y: _ldpc_curvature(-y, 0.45, 3, 6),
            ),
        ],
        ids=["double_well", "ldpc", "reflected_ldpc"],
    )
    def test_matches_exact_formula_at_both_ends_and_inside(self, spec, exact):
        lo, hi = spec.domain
        y = np.array([lo, 0.3 * lo + 0.7 * hi, hi])
        assert spec.curvature_unchecked(y) == pytest.approx(exact(y), rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            DoubleWell(-0.3),
            DoubleWell(0.0),
            DoubleWell(0.05),
            LdpcBec(0.45, 3, 6),
            LdpcBec(0.7, 2, 5),
            LdpcBec(0.7, 4, 2),
            LdpcBec(0.7, 2, 2),
            ReflectedPotential(LdpcBec(0.45, 3, 6)),
            ReflectedPotential(DoubleWell(0.05)),
        ],
        ids=[
            "double_well_h-0.3",
            "double_well_h0",
            "double_well_h0.05",
            "ldpc_3_6",
            "ldpc_2_5",
            "ldpc_4_2",
            "ldpc_2_2",
            "reflected_ldpc",
            "reflected_double_well",
        ],
    )
    def test_matches_central_difference_of_gradient(self, spec):
        # dv = 2 or dc = 2 puts a zero exponent into U''
        delta = 1e-5
        y = np.linspace(*spec.domain, 41)
        fd = (
            spec.gradient_unchecked(y + delta) - spec.gradient_unchecked(y - delta)
        ) / (2.0 * delta)
        np.testing.assert_allclose(spec.curvature_unchecked(y), fd, rtol=1e-6, atol=1e-6)


class TestFindStationaryPoints:
    def test_symmetric_double_well(self):
        pts = find_stationary_points(DoubleWell(0.0))
        ys = [p.y for p in pts.points]
        assert np.allclose(ys, [-1.0, 0.0, 1.0], atol=1e-10)
        assert [p.stable for p in pts.points] == [True, False, True]
        assert pts.y_minus == pytest.approx(-1.0)
        assert pts.y_plus == pytest.approx(1.0)

    def test_ldpc_below_threshold_monostable(self):
        spec = LdpcBec(0.3, 3, 6)
        # oracle: gradient strictly positive on (0, 1]
        ys = np.linspace(1e-6, 1.0, 20000)
        assert np.all(np.asarray(spec.gradient(ys)) > 0)
        pts = find_stationary_points(spec)
        assert len(pts.points) == 1
        assert pts.points[0].y == pytest.approx(0.0, abs=1e-12)
        assert pts.points[0].stable

    def test_tilted_matches_cubic_roots(self):
        pts = find_stationary_points(DoubleWell(0.01))
        oracle = np.sort(np.roots([1.0, 0.0, -1.0, -0.01]).real)
        assert np.allclose([p.y for p in pts.points], oracle, atol=1e-10)

    def test_gradient_small_at_roots(self):
        spec = LdpcBec(0.45, 3, 6)
        pts = find_stationary_points(spec)
        for p in pts.points:
            assert abs(spec.gradient(p.y)) < 1e-12

    def test_de_fixed_point_property(self):
        spec = LdpcBec(0.45, 3, 6)
        for p in find_stationary_points(spec).points:
            step = spec.epsilon * (1 - (1 - p.y) ** 5) ** 2
            assert abs(step - p.y) < 1e-10

    def test_mirror_property(self):
        for h in [0.01, 0.1, 0.25]:
            plus = [p.y for p in find_stationary_points(DoubleWell(h)).points]
            minus = [p.y for p in find_stationary_points(DoubleWell(-h)).points]
            assert np.allclose(minus, [-y for y in reversed(plus)], atol=1e-10)

    def test_alternation(self):
        for spec in [DoubleWell(0.05), LdpcBec(0.47, 3, 6)]:
            pts = find_stationary_points(spec)
            kinds = [p.stable for p in pts.points]
            for a, b in zip(kinds, kinds[1:]):
                assert a != b

    def test_near_fold(self):
        # DoubleWell is bistable for |h| < 2/(3 sqrt 3); 1e-6 either side of
        # the fold the sign scan finds three alternating roots, then one.
        fold = 2.0 / (3.0 * np.sqrt(3.0))
        inside = find_stationary_points(DoubleWell(fold - 1e-6)).points
        assert [p.stable for p in inside] == [True, False, True]
        oracle = np.sort(np.roots([1.0, 0.0, -1.0, -(fold - 1e-6)]).real)
        assert np.allclose([p.y for p in inside], oracle, atol=1e-10)
        outside = find_stationary_points(DoubleWell(fold + 1e-6)).points
        assert len(outside) == 1 and outside[0].stable
        assert outside[0].y > 1.0

    @pytest.mark.parametrize(
        "h",
        [float(h) for h in np.linspace(-0.38, 0.38, 39)]
        + [s * (2.0 / (3.0 * np.sqrt(3.0)) + t) for s in (1, -1) for t in (-1e-6, 1e-6)],
    )
    def test_double_well_stability_is_curvature_sign(self, h):
        for p in find_stationary_points(DoubleWell(h)).points:
            curvature = 3.0 * p.y**2 - 1.0
            assert curvature != 0.0
            assert p.stable == (curvature > 0.0)

    @pytest.mark.parametrize("dv,dc", [(2, 3), (2, 7), (3, 4), (3, 6), (4, 8), (5, 9), (6, 12)])
    def test_ldpc_stability_is_curvature_sign(self, dv, dc):
        n, m = dv - 1, dc - 1
        # eps = 0.07 + 0.1 k avoids the dv = 2 fold at y = 0, eps = 1/(dc - 1)
        for eps in 0.07 + 0.1 * np.arange(10):
            pts = find_stationary_points(LdpcBec(eps, dv, dc)).points
            for p in pts:
                t = 1.0 - p.y
                curvature = 1.0 - eps * n * m * (1.0 - t**m) ** (n - 1) * t ** (m - 1)
                assert curvature != 0.0
                assert p.stable == (curvature > 0.0), (eps, p)

    @pytest.mark.parametrize("dc", [3, 4, 6])
    @pytest.mark.parametrize("offset", [-0.01, 0.01])
    def test_node_root_at_left_end(self, dc, offset):
        # dv = 2: U''(0) = 1 - eps (dc - 1), so y = 0 is stable below 1/(dc - 1)
        spec = LdpcBec(1.0 / (dc - 1) + offset, 2, dc)
        assert spec.gradient(0.0) == 0.0
        first = find_stationary_points(spec).points[0]
        assert first.y == 0.0
        assert first.stable == (offset < 0)

    @pytest.mark.parametrize(
        "base,stable",
        [(LdpcBec(0.45, 3, 6), True), (LdpcBec(0.3, 2, 4), True), (LdpcBec(0.35, 2, 4), False)],
    )
    def test_node_root_at_right_end(self, base, stable):
        refl = ReflectedPotential(base)
        assert refl.gradient(0.0) == 0.0
        last = find_stationary_points(refl).points[-1]
        assert last.y == 0.0
        assert last.stable == stable

    def test_reflected(self):
        base = LdpcBec(0.45, 3, 6)
        refl = ReflectedPotential(base)
        pts = find_stationary_points(refl)
        assert pts.y_plus == pytest.approx(0.0, abs=1e-12)
        assert refl.potential(-0.3) == pytest.approx(base.potential(0.3))


class TestEqualHeightParameter:
    def test_double_well_symmetry(self):
        value = equal_height_parameter(DoubleWell, (-0.1, 0.1))
        assert abs(value) <= 1e-10

    def test_ldpc_matches_grid_oracle(self):
        def oracle_height_diff(eps):
            spec = LdpcBec(eps, 3, 6)
            ys = np.linspace(0.0, 1.0, 100_000)
            g = np.asarray(spec.gradient(ys))
            sign = np.sign(g)
            idx = np.flatnonzero(sign[:-1] * sign[1:] < 0)
            # largest sign-change root is the nonzero stable point
            i = idx[-1]
            lo, hi = ys[i], ys[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.sign(spec.gradient(mid)) == sign[i]:
                    lo = mid
                else:
                    hi = mid
            yr = 0.5 * (lo + hi)
            return spec.potential(0.0) - spec.potential(yr)

        lo, hi = 0.43, 0.6
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if oracle_height_diff(mid) > 0:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        value = equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.43, 0.6))
        assert value == pytest.approx(oracle, abs=1e-4)
        # equal-height value of this potential family, frozen from the oracle
        assert value == pytest.approx(0.4626865, abs=1e-4)
        # the bracket ends may come in either order
        reversed_value = equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.6, 0.43))
        assert reversed_value == pytest.approx(value, abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(BracketingError):
            equal_height_parameter(DoubleWell, (0.01, 0.1))

    def test_bracket_ends_evaluated_once(self, monkeypatch):
        # the same-sign check's two end values are the ones brentq starts from
        calls = []

        def counted(spec):
            calls.append(spec)
            return find_stationary_points(spec)

        monkeypatch.setattr(potentials, "find_stationary_points", counted)
        equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.43, 0.6))
        assert len(calls) == 9

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.44, 0.5), tol=tol)


class TestValidation:
    def test_ldpc_epsilon_range(self):
        with pytest.raises(ValueError):
            LdpcBec(1.5, 3, 6)

    def test_ldpc_degree_range(self):
        with pytest.raises(ValueError):
            LdpcBec(0.4, 1, 6)
