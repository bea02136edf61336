import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_dynamics import potentials
from coupled_dynamics.de import bp_threshold
from coupled_dynamics.potentials import (
    BracketingError,
    DomainError,
    DoubleWell,
    LdpcBec,
    NoStationaryPointError,
    Potential,
    ReflectedPotential,
    TopologyChangeError,
    brent_root,
    equal_height_parameter,
    find_stationary_points,
)

# Nodes of the test-side sign scan over a potential's domain.
SCAN_POINTS = 10_000
FOLD = 2.0 / (3.0 * np.sqrt(3.0))  # DoubleWell(h) is bistable for |h| < FOLD
# The 78 regular ensembles of the thresholds benchmark's pool, and ensembles
# with dv = 2 or dc = 2, whose roots the family finds by their own cases.
LDPC_POOL = [(dv, dc) for dv in range(3, 9) for dc in range(dv + 1, dv + 14)]
LDPC_EDGE = [(2, dc) for dc in range(2, 10)] + [(dv, 2) for dv in range(3, 9)]


def reference_newton_x_plus(spec):
    """Test-side statement of LdpcBec's x+ solve for dv, dc >= 3: Newton from
    epsilon through the two public methods, stopping at the first step that
    would not fall inside (x_BP, x).  Returns x+ and the steps computed."""
    x_bp = potentials._ldpc_x_bp(spec.dv - 1, spec.dc - 1)
    x, steps = spec.epsilon, 0
    while True:
        steps += 1
        nxt = x - spec.gradient_unchecked(x) / spec.curvature_unchecked(x)
        if not x_bp < nxt < x:
            return x, steps
        x = nxt


def scan_stationary_points(spec):
    """Test-side oracle: the roots of dU/dy as (y, stable) pairs from a sign
    scan over SCAN_POINTS nodes, each sign change refined by `brent_root`.

    A node with |dU/dy| < 1e-12 is a root as it stands, stable when dU/dy is
    positive at its right neighbour (negative at its left one at the right
    end of the domain); a bracketed root is stable when dU/dy rises through
    it.  Roots closer than 1e-9 are merged, and a double root that touches
    zero between nodes is missed.
    """
    lo, hi = spec.domain
    ys = np.linspace(lo, hi, SCAN_POINTS)
    g = spec.gradient_unchecked(ys)
    sign = np.sign(g)
    last = SCAN_POINTS - 1
    roots = [
        (float(ys[i]), bool(sign[i + 1] > 0 if i < last else sign[i - 1] < 0))
        for i in np.flatnonzero(np.abs(g) < 1e-12)
    ]

    def grad(z):
        return float(spec.gradient_unchecked(z))

    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        root = brent_root(grad, ys[i], ys[i + 1], 1e-14, fa=g[i], fb=g[i + 1])
        roots.append((root, bool(sign[i] < 0)))
    merged = []
    for y, stable in sorted(roots):
        if not merged or abs(y - merged[-1][0]) >= 1e-9:
            merged.append((y, stable))
    return merged


def simpson_potential(eps, dv, dc, y, n=4001):
    """Independent composite-Simpson quadrature of the defining integrand."""
    z = np.linspace(0.0, y, n)
    f = z - eps * (1.0 - (1.0 - z) ** (dc - 1)) ** (dv - 1)
    h = y / (n - 1)
    return h / 3.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-1:2]))


def loop_potential(eps, dv, dc, y):
    """Test-side oracle: the closed form summed one binomial term at a time,
    int_0^y (1 - (1-z)^m)^n dz = sum_k C(n,k)(-1)^k (1 - (1-y)^(mk+1))/(mk+1)."""
    n, m = dv - 1, dc - 1
    acc = 0.0
    for k in range(n + 1):
        p = m * k + 1
        acc += math.comb(n, k) * (-1.0) ** k * (1.0 - (1.0 - y) ** p) / p
    return y * y / 2.0 - eps * acc


# Ensembles with the fewest terms (n = 1, m = 1) up to the pool's highest
# degree, (8, 21): 8 terms, exponents up to 141.
POTENTIAL_ENSEMBLES = [(2, 2), (2, 5), (4, 2), (3, 6), (8, 21)]


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
        for dv, dc in POTENTIAL_ENSEMBLES:
            spec = LdpcBec(0.45, dv, dc)
            for y in [1e-3, 0.3, 0.92, 1.0]:
                assert spec.potential(y) == pytest.approx(
                    simpson_potential(0.45, dv, dc, y, n=40001), abs=1e-10
                ), (dv, dc, y)

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

    def test_nan_does_not_hide_a_value_outside_the_domain(self):
        # a min/max test would pass this array: both are NaN
        with pytest.raises(DomainError, match=r": 1\.5 at index 1$"):
            LdpcBec(0.45, 3, 6).potential(np.array([np.nan, 1.5]))

    @pytest.mark.parametrize("dv, dc", POTENTIAL_ENSEMBLES)
    def test_ldpc_matches_per_term_loop(self, dv, dc):
        ys = [0.0, 1e-3, 0.3, 1.0]
        for eps in (0.0, 0.45, 1.0):
            values = LdpcBec(eps, dv, dc).potential(np.array(ys))
            oracle = [loop_potential(eps, dv, dc, y) for y in ys]
            np.testing.assert_allclose(values, oracle, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "spec", [LdpcBec(0.45, 3, 6), ReflectedPotential(LdpcBec(0.45, 3, 6))], ids=repr
    )
    def test_ldpc_shapes(self, spec):
        lo, hi = spec.domain
        grid = np.linspace(lo, hi, 6).reshape(2, 3)
        y = float(grid[0, 1])
        assert type(spec.potential(y)) is float
        assert type(spec.potential(np.array(y))) is float
        assert spec.potential(grid[0]).shape == (3,)
        values = spec.potential(grid)
        assert values.shape == (2, 3)
        assert values.tolist() == [[spec.potential(v) for v in row] for row in grid.tolist()]

    def test_ldpc_cached_terms_read_only(self):
        # the cache shares one tuple of floats c_1..c_n per (n, m), which
        # cannot be written
        c = potentials._ldpc_potential_coefficients(2, 5)
        assert c is potentials._ldpc_potential_coefficients(2, 5)
        assert type(c) is tuple and all(type(v) is float for v in c)
        assert c == (-2.0 / 6.0, 1.0 / 11.0)
        with pytest.raises(TypeError):
            c[0] = 0.0

    def test_ldpc_matches_exact_rationals(self):
        # a float y is a dyadic rational, so the binomial sum is exact in
        # Fractions: U is within 2e-15 of it (worst, 1.6e-15, at (8, 2),
        # epsilon = 1, y = 0.8)
        from fractions import Fraction

        ys = [0.0, 1e-9, 1e-6, 1e-3, 0.01] + [k / 10 for k in range(1, 10)] + [0.99, 1.0]
        for dv, dc in LDPC_POOL + [(2, 2), (2, 3), (2, 21), (8, 2)]:
            n, m = dv - 1, dc - 1
            coeffs = [Fraction(math.comb(n, k) * (-1) ** k, m * k + 1) for k in range(n + 1)]
            for eps in (0.0, 0.45, 1.0):
                values = LdpcBec(eps, dv, dc).potential_unchecked(np.array(ys))
                for y, v in zip(ys, values.tolist()):
                    fy = Fraction(y)
                    acc = sum(c * (1 - (1 - fy) ** (m * k + 1)) for k, c in enumerate(coeffs))
                    exact = fy * fy / 2 - Fraction(eps) * acc
                    assert abs(Fraction(v) - exact) <= Fraction(2e-15), (dv, dc, eps, y)

    @pytest.mark.parametrize(
        "spec",
        [
            DoubleWell(0.013),
            LdpcBec(0.45, 3, 6),
            LdpcBec(0.45, 8, 21),
            LdpcBec(0.7, 5, 2),  # m = 1
            LdpcBec(0.6, 2, 5),  # n = 1
            LdpcBec(0.6, 2, 2),  # n = m = 1
            ReflectedPotential(LdpcBec(0.45, 3, 6)),
        ],
        ids=repr,
    )
    def test_float_has_the_bits_of_the_array_entry(self, spec):
        # U is built from +, -, * and / alone, so a float input goes through
        # the operations of each array entry
        lo, hi = spec.domain
        ys = np.random.default_rng(1).uniform(lo, hi, 1000)
        values = [spec.potential_unchecked(float(y)) for y in ys]
        assert all(type(v) is float for v in values)
        assert values == spec.potential_unchecked(ys).tolist()


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
        # U likewise: the checked potential is potential_unchecked behind the check
        assert np.asarray(spec.potential(ys)).tobytes() == spec.potential_unchecked(ys).tobytes()
        value = spec.potential(float(ys[17]))
        assert type(value) is float and value == float(spec.potential_unchecked(ys)[17])

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
        # 1e-6 either side of the fold there are three alternating roots,
        # then one.
        inside = find_stationary_points(DoubleWell(FOLD - 1e-6)).points
        assert [p.stable for p in inside] == [True, False, True]
        oracle = np.sort(np.roots([1.0, 0.0, -1.0, -(FOLD - 1e-6)]).real)
        assert np.allclose([p.y for p in inside], oracle, atol=1e-10)
        outside = find_stationary_points(DoubleWell(FOLD + 1e-6)).points
        assert len(outside) == 1 and outside[0].stable
        assert outside[0].y > 1.0

    @pytest.mark.parametrize(
        "h",
        [float(h) for h in np.linspace(-0.38, 0.38, 39)]
        + [s * (FOLD + t) for s in (1, -1) for t in (-1e-6, 1e-6)],
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

    def test_narrowed_domain_drops_roots_outside_it(self):
        pts = find_stationary_points(DoubleWell(0.0, domain=(-0.5, 2.0))).points
        assert [p.stable for p in pts] == [False, True]
        assert [p.y for p in pts] == [pytest.approx(0.0, abs=1e-15), 1.0]

    def test_no_root_in_domain_raises(self):
        # the one root of y^3 - y - 0.5 is near 1.19
        with pytest.raises(NoStationaryPointError):
            find_stationary_points(DoubleWell(0.5, domain=(-0.5, 0.5)))

    def test_base_class_has_no_roots(self):
        with pytest.raises(NotImplementedError):
            Potential().stationary_roots()

    def test_ldpc_2_2_at_full_erasure_rejected(self):
        # dU/dy = (1 - eps) y vanishes identically at eps = 1
        with pytest.raises(ValueError, match="vanishes identically"):
            find_stationary_points(LdpcBec(1.0, 2, 2))


def assert_matches_scan(spec):
    exact = [(p.y, p.stable) for p in find_stationary_points(spec).points]
    oracle = scan_stationary_points(spec)
    assert [s for _, s in exact] == [s for _, s in oracle], spec
    np.testing.assert_allclose(
        [y for y, _ in exact], [y for y, _ in oracle], rtol=0.0, atol=1e-13, err_msg=repr(spec)
    )


class TestExactRootsMatchScan:
    """Each family's exact roots against the test-side sign scan: the same
    count, the same stability flags and |dy| <= 1e-13."""

    def test_double_well(self):
        hs = [float(h) for h in np.linspace(-0.38, 0.38, 627)]
        for h in hs + [s * FOLD + t for s in (1, -1) for t in (-1e-6, 1e-6)]:
            assert_matches_scan(DoubleWell(h))

    @pytest.mark.parametrize("dv", [2, 3, 4, 5, 6, 7, 8])
    def test_ldpc_and_reflection(self, dv):
        for dc in sorted(c for v, c in LDPC_POOL + LDPC_EDGE if v == dv):
            for eps in np.linspace(0.0, 1.0, 41):
                if (dv, dc, eps) == (2, 2, 1.0):
                    continue  # no isolated roots (test_ldpc_2_2_at_full_erasure_rejected)
                assert_matches_scan(LdpcBec(float(eps), dv, dc))
                assert_matches_scan(ReflectedPotential(LdpcBec(float(eps), dv, dc)))
            if dc > 2:  # the bracket's end epsilon = 1 is the stable root itself
                assert find_stationary_points(LdpcBec(1.0, dv, dc)).y_plus == 1.0

    @pytest.mark.parametrize("dv", [2, 3, 4, 5, 6, 7, 8])
    def test_ldpc_just_above_bp_threshold(self, dv):
        # At epsilon_BP (1 + 1e-9) the stable root sits next to the unstable
        # one (next to 0 for dv = 2), closer than the scan's node spacing and
        # rounding-limited to about 1e-12, so each root is checked as a sign
        # change of dU/dy across y (1 -+ 1e-8) instead.
        for dc in sorted(c for v, c in LDPC_POOL + LDPC_EDGE if v == dv and c > 2):
            eps = bp_threshold(dv, dc) * (1.0 + 1e-9)
            spec = LdpcBec(eps, dv, dc)
            points = find_stationary_points(spec).points
            expected = [False, True] if dv == 2 else [True, False, True]
            assert [p.stable for p in points] == expected, (dv, dc)
            assert points[-1].y <= eps
            for p in points[1:]:
                below, above = spec.gradient_unchecked(np.array([1.0 - 1e-8, 1.0 + 1e-8]) * p.y)
                assert (below < 0.0 < above) if p.stable else (below > 0.0 > above), (dv, dc, p)


class TestBrentRoot:
    """brent_root against scipy's brentq (test-side oracle), to the bit."""

    def test_matches_brentq_on_scan_brackets(self):
        # the sign-change brackets that scan_stationary_points refines
        from scipy.optimize import brentq

        specs = [DoubleWell(h) for h in np.linspace(-0.3, 0.3, 61)]
        for eps in (0.3, 0.43, 0.45, 0.5, 0.7):
            specs += [LdpcBec(eps, 3, 6), ReflectedPotential(LdpcBec(eps, 4, 8))]
        brackets = 0
        for spec in specs:

            def grad(z):
                return float(spec.gradient_unchecked(z))

            ys = np.linspace(*spec.domain, SCAN_POINTS)
            sign = np.sign(spec.gradient_unchecked(ys))
            for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
                a, b = ys[i], ys[i + 1]
                assert brent_root(grad, a, b, 1e-14) == brentq(grad, a, b, xtol=1e-14)
                brackets += 1
        assert brackets > 150

    @pytest.mark.parametrize("dv,dc", [(3, 4), (3, 6), (4, 8), (3, 9), (5, 7), (6, 12), (8, 21)])
    def test_matches_brentq_on_equal_height_brackets(self, dv, dc):
        from scipy.optimize import brentq

        def height_diff(eps):
            spec = LdpcBec(eps, dv, dc)
            pts = find_stationary_points(spec)
            return float(spec.potential(pts.y_minus) - spec.potential(pts.y_plus))

        # the bracket of the benchmark's thresholds workload
        a, b = bp_threshold(dv, dc, tol=1e-6) + 1e-3, dv / dc
        assert brent_root(height_diff, a, b, 1e-10) == brentq(height_diff, a, b, xtol=1e-10)
        # end values handed in are used as they stand
        fa, fb = height_diff(a), height_diff(b)
        assert brent_root(height_diff, b, a, 1e-10, fa=fb, fb=fa) == brentq(
            height_diff, b, a, xtol=1e-10
        )
        # equal_height_parameter's probes read the stable roots alone, and
        # land on the same float as this probe through find_stationary_points
        value = brentq(height_diff, a, b, xtol=1e-10)
        assert equal_height_parameter(lambda e: LdpcBec(e, dv, dc), (a, b)) == value

    def test_exact_zero_at_an_end_returns_it(self):
        def f(x):
            return x * x - 1.0

        assert brent_root(f, 1.0, 3.0, 1e-12) == 1.0
        assert brent_root(f, -3.0, -1.0, 1e-12) == -1.0
        assert brent_root(f, 0.5, 2.0, 1e-12, fb=0.0) == 2.0

    def test_same_sign_ends_raise_bracketing_error(self):
        with pytest.raises(BracketingError):
            brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
        # a ValueError, as scipy's brentq raises
        assert issubclass(BracketingError, ValueError)

    def test_nan_raises_value_error(self):
        with pytest.raises(ValueError, match="NaN"):
            brent_root(lambda x: np.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 1e-12)

    def test_iteration_cap_raises_runtime_error(self):
        # the step at 0 keeps the relative tolerance at zero, so bisection
        # toward xtol = 1e-300 needs about 1000 halvings, past the cap of 100
        def step(x):
            return 1.0 if x >= 0.0 else -1.0

        with pytest.raises(RuntimeError, match="100 iterations"):
            brent_root(step, -1.0, 1.0, 1e-300)


def stable_from_stationary(spec):
    return sorted(y for y, stable in spec.stationary_roots() if stable)


class TestStableRoots:
    """`stable_roots` is exactly the stable part of `stationary_roots`, for
    each family, its mirror image and every branch of the LDPC cases."""

    @staticmethod
    def assert_stable(spec):
        assert spec.stable_roots() == stable_from_stationary(spec), spec
        refl = ReflectedPotential(spec)
        assert refl.stable_roots() == stable_from_stationary(refl), refl

    def test_double_well_both_sides_of_the_fold(self):
        for h in [float(h) for h in np.linspace(-0.5, 0.5, 101)] + [
            s * FOLD + t for s in (1, -1) for t in (-1e-6, 1e-6)
        ]:
            self.assert_stable(DoubleWell(h))
        assert len(DoubleWell(0.1).stable_roots()) == 2
        assert len(DoubleWell(0.5).stable_roots()) == 1

    @pytest.mark.parametrize("dv", [3, 4, 5, 6, 7, 8])
    def test_ldpc_pool(self, dv):
        # below epsilon_BP, between epsilon_BP and dv/dc, and at 1
        for dc in sorted(c for v, c in LDPC_POOL if v == dv):
            bp = bp_threshold(dv, dc)
            for eps, count in ((0.9 * bp, 1), (0.5 * (bp + dv / dc), 2), (1.0, 2)):
                spec = LdpcBec(eps, dv, dc)
                self.assert_stable(spec)
                assert len(spec.stable_roots()) == count, spec

    @pytest.mark.parametrize("dc", [3, 4, 6, 9])
    def test_ldpc_dv_2(self, dc):
        # 0 is stable while epsilon (dc - 1) <= 1, else the one stable root
        # is x+ > 0
        for eps in (0.5 / (dc - 1), 1.0 / (dc - 1), 1.5 / (dc - 1), 1.0):
            spec = LdpcBec(eps, 2, dc)
            self.assert_stable(spec)
            assert (spec.stable_roots() == [0.0]) == (eps * (dc - 1) <= 1.0)

    @pytest.mark.parametrize("dv", [3, 5, 8])
    def test_ldpc_dc_2(self, dv):
        # 0 is the one stable root; at epsilon = 1 the root 1 is unstable
        for eps in (0.5, 1.0):
            spec = LdpcBec(eps, dv, 2)
            self.assert_stable(spec)
            assert spec.stable_roots() == [0.0]
        assert LdpcBec(1.0, dv, 2).stationary_roots() == [(0.0, True), (1.0, False)]

    @pytest.mark.parametrize("dv", [3, 4, 5, 6, 7, 8])
    def test_ldpc_newton_x_plus_against_brent(self, dv):
        # x+ of n, m >= 2 comes from Newton from epsilon; brent_root on
        # [x_BP, epsilon] is the oracle, from just above epsilon_BP to 1.
        # Newton's premise, dU/dy convex on [x_BP, 1], is checked as U''
        # not decreasing there.
        rs = (1e-9, 1e-6, 1e-3, 1e-2, 0.1)
        for dc in range(dv + 1, 22):
            bp = bp_threshold(dv, dc)
            x_bp = potentials._ldpc_x_bp(dv - 1, dc - 1)
            epsilons = {bp * (1.0 + r) for r in rs} | {bp + (1.0 - bp) * r for r in rs} | {1.0}
            for eps in sorted(e for e in epsilons if e <= 1.0):
                spec = LdpcBec(eps, dv, dc)
                x = spec.stable_roots()[-1]
                oracle = brent_root(spec.gradient_unchecked, x_bp, eps, 1e-14)
                near_bp = eps < bp * (1.0 + 1e-6)
                assert abs(x - oracle) <= (5e-12 if near_bp else 1e-13), (dv, dc, eps)
                if x < 1.0:
                    below, above = spec.gradient_unchecked(np.array([1.0 - 1e-8, 1.0 + 1e-8]) * x)
                    assert below < 0.0 < above, (dv, dc, eps)
                curv = spec.curvature_unchecked(np.linspace(x_bp, 1.0, 2001))
                assert (np.diff(curv) >= 0.0).all(), (dv, dc, eps)

    @pytest.mark.parametrize("dv", [3, 4, 5, 6, 7, 8])
    def test_ldpc_x_plus_is_the_reference_newton_loop(self, dv):
        # the inline Newton step does the operations of the two methods, so
        # x+ is == the reference loop's: just above epsilon_BP, mid-range, at 1
        for dc in sorted(c for v, c in LDPC_POOL if v == dv):
            bp = bp_threshold(dv, dc)
            for eps in (bp * (1.0 + 1e-9), 0.5 * (bp + 1.0), 1.0):
                spec = LdpcBec(eps, dv, dc)
                roots = spec.stable_roots()
                assert len(roots) == 2, (dv, dc, eps)
                assert roots[1] == reference_newton_x_plus(spec)[0], (dv, dc, eps)

    def test_ldpc_2_2_at_full_erasure_rejected(self):
        for spec in (LdpcBec(1.0, 2, 2), ReflectedPotential(LdpcBec(1.0, 2, 2))):
            for roots in (spec.stable_roots, spec.stationary_roots):
                with pytest.raises(ValueError, match="vanishes identically"):
                    roots()


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

    def test_monostable_probe_raises_topology_change(self):
        # DoubleWell(-0.5) is past the fold, and the first end is probed first
        with pytest.raises(TopologyChangeError) as info:
            equal_height_parameter(DoubleWell, (-0.5, 0.1))
        assert info.value.parameter == -0.5

    def test_monostable_ldpc_probe_raises_topology_change(self):
        # LdpcBec(0.40, 3, 6) is below epsilon_BP = 0.4294: 0 is its only root
        with pytest.raises(TopologyChangeError) as info:
            equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.40, 0.5))
        assert info.value.parameter == 0.40

    def test_bracket_ends_evaluated_once(self, monkeypatch):
        # both end values are computed once and handed to brent_root, which
        # does not evaluate them again
        calls = []
        stable_roots = LdpcBec.stable_roots

        def counted(spec):
            calls.append(spec)
            return stable_roots(spec)

        monkeypatch.setattr(LdpcBec, "stable_roots", counted)
        equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.43, 0.6))
        assert len(calls) == 9

    def test_gradient_evaluations_counted(self, monkeypatch):
        # the stable-root solves at all 9 probes: x_BP's sign check is their
        # one method call, the Newton steps down to x+ run inline, and no
        # probe calls brent_root, as none solves for the unstable root
        LdpcBec(0.5, 3, 6).stable_roots()  # caches x_BP, itself a brent_root
        calls = {"gradient_unchecked": 0, "curvature_unchecked": 0}
        probes, solved = [], []

        def counting(name):
            method = getattr(LdpcBec, name)

            def counted(self, arr):
                calls[name] += 1
                return method(self, arr)

            return counted

        stable_roots, root = LdpcBec.stable_roots, potentials.brent_root

        def recorded(spec):
            probes.append(spec)
            return stable_roots(spec)

        def counted_root(f, *args, **kwargs):
            solved.append(f.__name__)
            return root(f, *args, **kwargs)

        for name in calls:
            monkeypatch.setattr(LdpcBec, name, counting(name))
        monkeypatch.setattr(LdpcBec, "stable_roots", recorded)
        monkeypatch.setattr(potentials, "brent_root", counted_root)
        equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.43, 0.6))
        assert calls == {"gradient_unchecked": 9, "curvature_unchecked": 0}
        assert solved == ["height_diff"]  # equal_height_parameter's own solve
        assert len(probes) == 9
        # each probe's x+ is the Newton loop through the two methods, which
        # takes 62 steps over the 9 probes
        monkeypatch.undo()
        results = [reference_newton_x_plus(spec) for spec in probes]
        assert [x for x, _ in results] == [spec.stable_roots()[1] for spec in probes]
        assert sum(steps for _, steps in results) == 62

    @pytest.mark.parametrize(
        "make_spec, bracket",
        [
            (lambda e: LdpcBec(e, 3, 6), (0.43, 0.6)),
            (DoubleWell, (-0.1, 0.1)),
            (lambda e: ReflectedPotential(LdpcBec(e, 3, 6)), (0.43, 0.5)),
        ],
        ids=["ldpc", "double_well", "reflected_ldpc"],
    )
    def test_probes_make_no_domain_check(self, monkeypatch, make_spec, bracket):
        # a probe's wells lie in the domain, so it reads U at them unchecked
        calls = []
        check = Potential._check_domain

        def counted(spec, y):
            calls.append(y)
            return check(spec, y)

        monkeypatch.setattr(Potential, "_check_domain", counted)
        equal_height_parameter(make_spec, bracket)
        assert calls == []

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.44, 0.5), tol=tol)

    def test_infinite_tol_rejected(self):
        # a tol of inf would accept the first bracket end as the threshold
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.43, 0.6), tol=float("inf"))


class TestValidation:
    def test_ldpc_epsilon_range(self):
        with pytest.raises(ValueError):
            LdpcBec(1.5, 3, 6)

    def test_ldpc_degree_range(self):
        with pytest.raises(ValueError):
            LdpcBec(0.4, 1, 6)

    @pytest.mark.parametrize(
        "dv, dc", [(3.5, 6), (3, 6.0), (3.0, 6), (True, 6), (3, "3"), (None, 6)]
    )
    def test_ldpc_degrees_must_be_integers(self, dv, dc):
        # math.comb in U would raise TypeError later; construction refuses
        with pytest.raises(ValueError, match="degrees must be integers"):
            LdpcBec(0.45, dv, dc)

    def test_ldpc_numpy_integer_degrees_accepted(self):
        spec = LdpcBec(0.45, np.int64(3), np.int32(6))
        assert spec.potential(0.3) == LdpcBec(0.45, 3, 6).potential(0.3)
