import warnings

import numpy as np
import pytest

from coupled_dynamics import pde, stationary
from coupled_dynamics.pde import DEFAULT_STEADY_TOL, Grid, Profile
from coupled_dynamics.potentials import (
    DoubleWell,
    LdpcBec,
    ReflectedPotential,
    equal_height_parameter,
    find_stationary_points,
)
from coupled_dynamics.stationary import (
    OTHER,
    POT_SHAPED,
    UNIFORM,
    HypothesisError,
    NotSteadyError,
    ReconstructionInfeasibleError,
    StationarySolution,
    classify_profile,
    first_integral,
    quadrature_reconstruct,
    refine_profile,
    solve_stationary,
    verify_no_pot_shape,
)


@pytest.fixture(scope="module")
def fig2_pot():
    spec = DoubleWell(-0.01)
    return spec, solve_stationary(spec, 0.01, grid=Grid(1.0, 201))


class TestSolveStationary:
    def test_fig2_uniform(self):
        sol = solve_stationary(DoubleWell(0.01), 0.01)
        assert sol.classification == UNIFORM
        assert sol.steady

    def test_fig2_pot(self, fig2_pot):
        _, sol = fig2_pot
        assert sol.classification == POT_SHAPED
        assert sol.steady
        assert sol.residual < 1e-6

    def test_already_stationary(self):
        spec = DoubleWell(0.05)
        y_plus = find_stationary_points(spec).y_plus
        sol = solve_stationary(spec, 0.02, y0=y_plus)
        assert sol.classification == UNIFORM
        assert sol.residual < 1e-9
        assert sol.t_exit == 0.0

    def test_c_lower_bound(self, fig2_pot):
        spec, sol = fig2_pot
        y_plus = find_stationary_points(spec).y_plus
        assert sol.first_integral_constant >= -spec.potential(y_plus) - 1e-6

    def test_rejects_bad_coupling(self):
        with pytest.raises(ValueError):
            solve_stationary(DoubleWell(0.01), -1.0)

    def test_coarse_grid_relaxes(self):
        # dx = 0.5: an explicit step at 0.4 dx^2/D = 10 is far past 2/max|U''|
        sol = solve_stationary(DoubleWell(-0.01), 0.01, grid=Grid(1.0, 5))
        assert sol.steady
        assert sol.classification == POT_SHAPED

    def test_single_interior_node_hits_slope_floor(self):
        with pytest.raises(ValueError, match="5 grid nodes"):
            solve_stationary(DoubleWell(-0.01), 0.01, grid=Grid(1.0, 3))

    def test_t_exit_is_model_time(self, fig2_pot):
        # explicit Euler (dt = 0.4 dx^2/D) reaches steady at t = 318.4
        _, sol = fig2_pot
        assert sol.t_exit == pytest.approx(318.4, rel=0.15)


class TestRelaxation:
    def test_capped_run_stops_at_t_cap(self):
        sol = solve_stationary(DoubleWell(-0.01), 0.01, grid=Grid(1.0, 201), t_cap=50)
        assert sol.t_exit == 50.0
        assert not sol.steady

    def test_slow_tail_takes_few_steps(self, monkeypatch):
        # at h = 0 the fronts creep exponentially slowly; a fixed step of
        # 1/(1 + L/2) needs about 65,000 stencil evaluations to reach t_cap
        calls = []
        interior_rhs = pde._interior_rhs

        def counted(*args):
            calls.append(None)
            return interior_rhs(*args)

        monkeypatch.setattr(pde, "_interior_rhs", counted)
        sol = solve_stationary(DoubleWell(0.0), 0.001, grid=Grid(1.0, 101), t_cap=1e4)
        assert sol.t_exit >= 1e4
        assert len(calls) < 2000

    def test_newton_tail_halves_the_pot_solve(self, monkeypatch):
        # the linear tail below RELAX_HANDOVER_TOL is one Newton finish, not
        # about 75 more error-controlled steps (148 evaluations without it)
        calls = []
        interior_rhs = pde._interior_rhs

        def counted(*args):
            calls.append(None)
            return interior_rhs(*args)

        monkeypatch.setattr(pde, "_interior_rhs", counted)
        sol = solve_stationary(DoubleWell(-0.01), 0.01, grid=Grid(1.0, 201))
        assert sol.classification == POT_SHAPED
        assert len(calls) < 100

    def test_tail_past_t_end_keeps_stepping(self, monkeypatch):
        # the fig-2 pot tail converges under Newton well before t = 300, but
        # its extrapolated steady time (about 326) is past t_end
        tails = []
        newton_tail = pde._newton_tail

        def recorded(*args):
            tails.append(newton_tail(*args))
            return tails[-1]

        monkeypatch.setattr(pde, "_newton_tail", recorded)
        spec = DoubleWell(-0.01)
        pts = find_stationary_points(spec)
        start = Profile.uniform(Grid(1.0, 201), pts.y_minus, boundary_value=pts.y_plus)
        _, residual, t = pde._relax(start, spec, 0.01, 300.0, DEFAULT_STEADY_TOL)
        assert any(tail is not None for tail in tails)
        assert t == 300.0
        assert residual >= DEFAULT_STEADY_TOL

    def test_steady_relaxations_are_stable(self):
        # the 35 cells of the benchmark's sweep box: every steady 3-point
        # profile is a stable fixed point, -J positive definite (dense check)
        grid = Grid(1.0, 101)
        k = 1.0 / grid.dx**2
        steady = 0
        for d in 10.0 ** (-3.0 + np.array([0, 1, 9, 11, 12]) / 6.0):
            for h in -0.005 * np.array([0, 1, 2, 4, 7, 10, 20]):
                spec = DoubleWell(h)
                pts = find_stationary_points(spec)
                start = Profile.uniform(grid, pts.y_minus, boundary_value=pts.y_plus)
                final, residual, _ = pde._relax(start, spec, d, 1e4, DEFAULT_STEADY_TOL)
                if residual >= DEFAULT_STEADY_TOL:
                    continue
                steady += 1
                y = final.values[1:-1]
                minus_jac = (
                    np.diag(2.0 * d * k + 3.0 * y**2 - 1.0)
                    - np.diag(np.full(len(y) - 1, d * k), 1)
                    - np.diag(np.full(len(y) - 1, d * k), -1)
                )
                assert np.linalg.eigvalsh(minus_jac)[0] > 0.0, (d, h)
        assert steady == 33

    def test_unstable_fixed_point_is_not_accepted(self):
        # a small bump on the unstable state y_u = 0 (pinned there) is within
        # Newton's reach of it; the flow instead leaves it for the stable
        # plateau near 1
        grid = Grid(1.0, 101)
        start = Profile(grid, 1e-6 * np.cos(0.5 * np.pi * grid.x), boundary_value=0.0)
        final, residual, t = pde._relax(start, DoubleWell(0.0), 0.01, 1e4, DEFAULT_STEADY_TOL)
        assert residual < DEFAULT_STEADY_TOL
        assert np.max(final.values) > 0.99
        assert t > 10.0

    def test_newton_finish_needs_one_signed_correction(self):
        # about the stable uniform state y = 1 (h = 0), a one-signed offset is
        # finished by Newton and a sign-changing one is refused
        grid = Grid(1.0, 101)
        spec = DoubleWell(0.0)
        dx, d = grid.dx, 0.01
        offsets = [(-np.cos(0.5 * np.pi * grid.x), True), (np.sin(np.pi * grid.x), False)]
        for offset, accepted in offsets:
            y = Profile(grid, 1.0 + 1e-6 * offset, boundary_value=1.0).values
            r = pde._interior_rhs(y, dx, spec.gradient_unchecked, pde.ConstantCoupling(d))
            u2 = spec.curvature_unchecked(y[1:-1])
            tail = pde._newton_tail(y, r, u2, dx, spec, d, DEFAULT_STEADY_TOL)
            assert (tail is not None) == accepted

    @pytest.mark.parametrize("d, h", [(0.001, -0.005), (0.0316, -0.01), (0.1, -0.1)])
    def test_monotone_in_time_from_lower_state(self, d, h):
        # y_minus is a subsolution, so the flow from it never decreases
        spec = DoubleWell(h)
        pts = find_stationary_points(spec)
        start = Profile.uniform(Grid(1.0, 101), pts.y_minus, boundary_value=pts.y_plus)
        prev = start.values
        for t_end in np.geomspace(0.5, 1e3, 40):
            final, _, _ = pde._relax(start, spec, d, t_end, DEFAULT_STEADY_TOL)
            assert np.min(final.values - prev) >= -1e-12
            prev = final.values


class TestFirstIntegral:
    def test_uniform_constant(self):
        spec = DoubleWell(0.05)
        y_plus = find_stationary_points(spec).y_plus
        sol = solve_stationary(spec, 0.02, y0=y_plus)
        fi = first_integral(sol, spec, 0.02)
        assert np.allclose(fi, -spec.potential(y_plus), atol=1e-12)

    def test_pot_shaped_near_constant(self):
        # discretization-limited constancy, O(dx^4): ~8e-6 at n=201, ~5e-7 at 401
        spec = DoubleWell(-0.01)
        sol = solve_stationary(spec, 0.01, grid=Grid(1.0, 401))
        fi = first_integral(sol, spec, 0.01)
        assert fi.max() - fi.min() < 1.5e-4

    def test_constancy_shrinks_second_order(self, fig2_pot):
        spec, sol201 = fig2_pot
        fi201 = first_integral(sol201, spec, 0.01)
        sol401 = solve_stationary(spec, 0.01, grid=Grid(1.0, 401))
        fi401 = first_integral(sol401, spec, 0.01)
        spread201 = fi201.max() - fi201.min()
        spread401 = fi401.max() - fi401.min()
        assert spread201 / spread401 > 2.5

    def test_constancy_shrinks_fourth_order(self, fig2_pot):
        # Numerov profile and 5-point slopes: the spread falls ~16x per halving
        spec, sol201 = fig2_pot
        fi201 = first_integral(sol201, spec, 0.01)
        sol401 = refine_profile(sol201, spec, 0.01, Grid(1.0, 401))
        fi401 = first_integral(sol401, spec, 0.01)
        spread201 = fi201.max() - fi201.min()
        spread401 = fi401.max() - fi401.min()
        assert spread201 < 1e-5
        assert spread201 / spread401 > 10.0

    def test_constant_matches_mean(self, fig2_pot):
        spec, sol = fig2_pot
        fi = first_integral(sol, spec, 0.01)
        assert abs(sol.first_integral_constant - fi.mean()) < 1e-4

    def test_rejects_grid_below_five_nodes(self):
        # fourth-order slopes need five nodes; the uniform state is stationary
        spec = DoubleWell(0.05)
        y_plus = find_stationary_points(spec).y_plus
        fake = StationarySolution(
            profile=Profile.uniform(Grid(1.0, 3), y_plus),
            classification=UNIFORM,
            first_integral_constant=0.0,
            residual=0.0,
            steady=True,
            t_exit=0.0,
        )
        with pytest.raises(ValueError, match="5 grid nodes"):
            first_integral(fake, spec, 0.01)

    def test_rejects_non_stationary_profile(self):
        spec = DoubleWell(0.0)
        g = Grid(1.0, 101)
        fake = StationarySolution(
            profile=Profile(g, 0.5 * g.x**2, boundary_value=0.5),
            classification=UNIFORM,
            first_integral_constant=0.0,
            residual=0.0,
            steady=True,
            t_exit=0.0,
        )
        with pytest.raises(NotSteadyError):
            first_integral(fake, spec, 0.01)


class TestQuadratureReconstruct:
    def test_matches_relaxation(self, fig2_pot):
        spec, sol = fig2_pot
        prof = quadrature_reconstruct(
            spec,
            0.01,
            sol.first_integral_constant,
            float(sol.profile.values[100]),
            grid=Grid(1.0, 201),
        )
        assert np.max(np.abs(prof.values - sol.profile.values)) < 5e-3

    def test_global_minimum_boundary_never_pot_shaped(self):
        # boundary is the unique global min: either infeasible or a kink at 0
        spec = DoubleWell(0.01)
        pts = find_stationary_points(spec)
        c = -spec.potential(pts.y_plus) + 1e-4
        try:
            prof = quadrature_reconstruct(spec, 0.01, c, pts.y_minus, grid=Grid(1.0, 201))
        except ReconstructionInfeasibleError:
            return
        # slope jumps from -s to +s at the origin: not differentiable
        dx = prof.grid.dx
        left = (prof.values[100] - prof.values[99]) / dx
        right = (prof.values[101] - prof.values[100]) / dx
        assert right - left > 0.1

    def test_degenerate_uniform(self):
        spec = DoubleWell(0.01)
        y_plus = find_stationary_points(spec).y_plus
        prof = quadrature_reconstruct(spec, 0.01, 0.3, y_plus, grid=Grid(1.0, 101))
        assert np.allclose(prof.values, y_plus)

    def test_infeasible_interior_zero(self, fig2_pot):
        # C too small: U + C dips below zero before reaching the boundary value
        spec, sol = fig2_pot
        c_bad = sol.first_integral_constant - 0.2
        with pytest.raises(ReconstructionInfeasibleError):
            quadrature_reconstruct(
                spec, 0.01, c_bad, float(sol.profile.values[100]), grid=Grid(1.0, 201)
            )

    @pytest.mark.parametrize("d", [0.01, 0.05])
    @pytest.mark.parametrize("n", [201, 801])
    def test_heteroclinic_kink_is_tanh(self, d, n):
        # h = 0, C = 1/4: U + C = (1 - y^2)^2 / 4 has a double zero at the
        # boundary value 1, and the profile from y(0) = 0 is tanh(|x|/sqrt(2d))
        grid = Grid(1.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = quadrature_reconstruct(DoubleWell(0.0), d, 0.25, 0.0, grid=grid)
        exact = np.tanh(np.abs(grid.x) / np.sqrt(2.0 * d))
        assert np.max(np.abs(prof.values - exact)) < 1e-7


    def test_heteroclinic_end_no_warning(self):
        # C = -U(y_plus) gives U + C a double zero at the boundary value;
        # next to it U + C rounds to <= 0, which must read as x = inf
        grid = Grid(1.0, 201)
        for h in np.linspace(-0.3, 0.3, 13):
            spec = DoubleWell(float(h))
            pts = find_stationary_points(spec)
            y_u, y_plus = pts.unstable_points[0], pts.y_plus
            c = -spec.potential(y_plus)
            for f in np.linspace(0.05, 0.75, 8):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    prof = quadrature_reconstruct(
                        spec, 0.01, c, y_u + f * (y_plus - y_u), grid=grid
                    )
                half = prof.values[100:]
                assert np.all(np.isfinite(half))
                assert np.all(np.diff(half) >= 0.0)
                assert half[-1] <= y_plus


class TestClassifyProfile:
    def test_both_halves_must_be_monotone(self, fig2_pot):
        _, sol = fig2_pot
        prof = sol.profile
        y_plus = prof.boundary_value
        assert classify_profile(prof, y_plus) == POT_SHAPED
        wiggled = prof.values.copy()
        wiggled[20:40] += 0.5 * np.sin(np.linspace(0.0, 2.0 * np.pi, 20))
        for vals in (wiggled, wiggled[::-1]):
            bumpy = Profile(prof.grid, vals.copy(), boundary_value=y_plus)
            assert classify_profile(bumpy, y_plus) == OTHER


class TestNewtonPolish:
    def test_start_is_clipped_into_the_domain(self):
        # a relaxation may end a few ulps past a fixed point on the domain
        # edge (reflected LDPC, y_plus = 0); the polish must not raise there
        spec = ReflectedPotential(LdpcBec(0.45, 3, 6))
        grid = Grid(1.0, 101)
        profile = Profile(grid, np.full(grid.n_points, 1e-14), boundary_value=0.0)
        assert stationary._newton_polish(profile, spec, 0.005, DEFAULT_STEADY_TOL)
        assert np.all(profile.values == 0.0)


class TestRefineProfile:
    def test_preserves_classification_and_reconverges(self, fig2_pot):
        spec, sol = fig2_pot
        fine = refine_profile(sol, spec, 0.01, Grid(1.0, 401))
        assert fine.classification == POT_SHAPED
        assert fine.steady
        assert fine.residual < 1e-9
        # the transferred profile only shifts by the discretization error
        assert np.max(np.abs(fine.profile.values[::2] - sol.profile.values)) < 5e-4

    def test_rejects_bad_coupling(self, fig2_pot):
        spec, sol = fig2_pot
        with pytest.raises(ValueError):
            refine_profile(sol, spec, 0.0, Grid(1.0, 401))

    def test_rejects_grid_below_five_nodes_before_polishing(self, fig2_pot, monkeypatch):
        def no_polish(*args, **kwargs):
            raise AssertionError("polished a grid that is then rejected")

        monkeypatch.setattr(stationary, "_newton_polish", no_polish)
        spec, sol = fig2_pot
        with pytest.raises(ValueError, match="5 grid nodes"):
            refine_profile(sol, spec, 0.01, Grid(1.0, 3))


class TestVerifyNoPotShape:
    def test_double_well_sweep_passes(self):
        report = verify_no_pot_shape(
            DoubleWell(0.05), d_list=[0.001, 0.01, 0.1], grid=Grid(1.0, 101)
        )
        assert report.passed
        assert report.orientation == "standard"
        assert len(report.cells) == 9
        assert all(c.classification == UNIFORM for c in report.cells)

    def test_metastable_boundary_rejected(self):
        with pytest.raises(HypothesisError):
            verify_no_pot_shape(DoubleWell(-0.05), d_list=[0.01])

    def test_ldpc_reflected_sweep(self):
        maxwell = equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.43, 0.6))
        spec = LdpcBec(maxwell - 0.01, 3, 6)
        report = verify_no_pot_shape(spec, d_list=[0.005], grid=Grid(1.0, 101))
        assert report.orientation == "reflected"
        assert report.passed
