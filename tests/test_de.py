import numpy as np
import pytest

from coupled_dynamics.de import bp_threshold, de_step, run_de
from coupled_dynamics.potentials import (
    LdpcBec,
    equal_height_parameter,
    find_stationary_points,
)


class TestDeStep:
    def test_full_erasure(self):
        assert de_step(LdpcBec(0.3, 3, 6), 1.0) == pytest.approx(0.3, abs=1e-15)

    def test_zero_fixed(self):
        assert de_step(LdpcBec(0.7, 3, 6), 0.0) == 0.0

    def test_direct_arithmetic(self):
        expected = 0.45 * (1.0 - 0.6**5) ** 2
        assert de_step(LdpcBec(0.45, 3, 6), 0.4) == pytest.approx(expected, abs=1e-15)

    def test_range_check(self):
        with pytest.raises(ValueError):
            de_step(LdpcBec(0.45, 3, 6), 1.2)


class TestRunDe:
    def test_zero_erasure(self):
        traj = run_de(LdpcBec(0.0, 3, 6), y0=1.0)
        assert traj.fixed_point == 0.0
        assert traj.converged
        # the state is already 0 after a single step
        assert traj.iterates[1] == 0.0

    def test_iteration_cap_reports_not_converged(self):
        traj = run_de(LdpcBec(0.45, 3, 6), max_iter=1)
        assert not traj.converged
        assert len(traj.iterates) == 2

    def test_below_threshold_decay(self):
        traj = run_de(LdpcBec(0.40, 3, 6), y0=1.0, tol=1e-12)
        assert traj.converged
        assert traj.fixed_point < 1e-6

    def test_above_threshold_fixed_point_is_stationary(self):
        spec = LdpcBec(0.45, 3, 6)
        traj = run_de(spec, y0=1.0, tol=1e-12)
        assert traj.fixed_point > 0.1
        roots = [p.y for p in find_stationary_points(spec).points]
        assert min(abs(traj.fixed_point - r) for r in roots) < 1e-8

    def test_monotone_from_one(self):
        traj = run_de(LdpcBec(0.45, 3, 6), y0=1.0, tol=1e-12)
        assert np.all(np.diff(traj.iterates) <= 0)

    def test_bounds(self):
        traj = run_de(LdpcBec(0.6, 3, 6), y0=1.0, tol=1e-12)
        assert np.all(traj.iterates >= 0) and np.all(traj.iterates <= 1)

    def test_fixed_point_gradient_small(self):
        spec = LdpcBec(0.47, 3, 6)
        traj = run_de(spec, y0=1.0, tol=1e-14)
        assert abs(spec.gradient(traj.fixed_point)) < 1e-8

    @pytest.mark.parametrize(
        "kwargs, match", [({"y0": 1.5}, "y0 must be in"), ({"max_iter": 0}, "max_iter")]
    )
    def test_bad_arguments_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            run_de(LdpcBec(0.45, 3, 6), **kwargs)


class TestBpThreshold:
    def test_regular_3_6(self):
        assert bp_threshold(3, 6, tol=1e-4) == pytest.approx(0.4294, abs=2e-4)

    def test_dv2_analytic_stability_bound(self):
        # for dv=2 the threshold is where eps*(dc-1) = 1
        assert bp_threshold(2, 4, tol=1e-4) == pytest.approx(1.0 / 3.0, abs=2e-4)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            bp_threshold(3, 6, tol=tol)

    def test_degree_two_limits(self):
        # dc = 2: the ratio x^(2-dv) is smallest at x = 1; dv = 2: its x -> 0 limit
        assert bp_threshold(3, 2) == 1.0
        assert bp_threshold(2, 4) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize(
        "dv,dc", [(3, 6), (4, 8), (3, 4), (8, 21), (3, 16), (5, 6), (2, 4)]
    )
    def test_density_evolution_oracle(self, dv, dc):
        # the recursion itself decays just below the threshold and stalls at a
        # nonzero fixed point just above it
        thr = bp_threshold(dv, dc, tol=1e-6)
        below = run_de(LdpcBec(thr - 1e-4, dv, dc), y0=1.0, tol=1e-13)
        above = run_de(LdpcBec(thr + 1e-4, dv, dc), y0=1.0, tol=1e-13)
        assert below.converged and below.fixed_point < 1e-9
        assert above.converged and above.fixed_point > 1e-9

    @pytest.mark.parametrize("dv", range(3, 9))
    def test_matches_bounded_minimization(self, dv):
        # test-side oracle: scipy's bounded Brent minimization of the ratio,
        # xatol 1e-13, over the two cells around the argmin of 1e5 cells
        from scipy.optimize import minimize_scalar

        cells = 100_000
        xs = np.linspace(0.0, 1.0, cells + 1)
        for dc in range(2, dv + 16):
            def ratio(x):
                return x / (1.0 - (1.0 - x) ** (dc - 1)) ** (dv - 1)

            i = 1 + int(np.argmin(ratio(xs[1:])))
            res = minimize_scalar(
                ratio, bounds=(xs[i - 1], xs[min(i + 1, cells)]),
                method="bounded", options={"xatol": 1e-13},
            )
            oracle = min(res.fun, ratio(xs[i]))
            assert abs(bp_threshold(dv, dc, tol=1e-6) - oracle) < 1e-12

    @pytest.mark.parametrize("dv", range(2, 9))
    def test_agrees_with_stationary_roots(self, dv):
        # de and potentials place eps_BP at the same point: just below it 0 is
        # the only stationary point, just above it the others appear
        for dc in range(3, dv + 16):
            thr = bp_threshold(dv, dc, tol=1e-6)
            below = LdpcBec(thr * (1 - 1e-9), dv, dc).stationary_roots()
            above = LdpcBec(thr * (1 + 1e-9), dv, dc).stationary_roots()
            assert len(below) == 1, (dv, dc)
            assert len(above) == (2 if dv == 2 else 3), (dv, dc)

    def test_regular_3_6_value(self):
        assert abs(bp_threshold(3, 6, tol=1e-6) - 0.42943981441949) < 1e-12

    def test_refinement_consistency(self):
        coarse = bp_threshold(3, 6, tol=1e-2)
        fine = bp_threshold(3, 6, tol=1e-5)
        assert abs(coarse - fine) <= 1e-2

    def test_monotone_damping_below_threshold(self):
        thr = bp_threshold(3, 6, tol=1e-4)
        for eps in [thr - 0.05, thr - 0.01, thr - 2e-3]:
            traj = run_de(LdpcBec(eps, 3, 6), y0=1.0, tol=1e-14, max_iter=100_000)
            assert np.all(np.diff(traj.iterates) < 0)
            assert traj.fixed_point < 1e-9

    def test_below_equal_height_parameter(self):
        thr = bp_threshold(3, 6, tol=1e-4)
        maxwell = equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.43, 0.6))
        assert thr < maxwell

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            bp_threshold(1, 6)

    @pytest.mark.parametrize("dv, dc", [(3.5, 6), (3, 6.5), (3.0, 6)])
    def test_degrees_must_be_integers(self, dv, dc):
        # no regular ensemble has these degrees, so there is no threshold
        with pytest.raises(ValueError, match="degrees must be integers"):
            bp_threshold(dv, dc)
