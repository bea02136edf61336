import inspect
import re

import numpy as np
import pytest

from coupled_dynamics import bifurcation, pde, stationary
from coupled_dynamics.pde import (
    AffineCoupling,
    ConstantCoupling,
    Coupling,
    DivergenceError,
    Grid,
    Profile,
    _reaction_lipschitz,
    _relax,
    energy,
    integrate,
    rhs,
    simulate_discrete_chain,
    stable_dt,
)
from coupled_dynamics.potentials import (
    DomainError,
    DoubleWell,
    LdpcBec,
    ReflectedPotential,
    find_stationary_points,
)


@pytest.fixture(scope="module")
def fig2_pot_record():
    spec = DoubleWell(-0.01)
    grid = Grid(1.0, 201)
    y_plus = find_stationary_points(spec).y_plus
    y_minus = find_stationary_points(spec).y_minus
    prof = Profile.uniform(grid, y_minus, boundary_value=y_plus)
    return integrate(prof, spec, ConstantCoupling(0.01), t_end=2e4, snapshot_every=500)


def _counting_double_well(h):
    """A DoubleWell(h) and the list that each of its gradient calls extends."""
    calls = []

    class CountingDoubleWell(DoubleWell):
        def gradient(self, y):
            calls.append(y)
            return super().gradient(y)

        def gradient_unchecked(self, arr):
            calls.append(arr)
            return super().gradient_unchecked(arr)

    return CountingDoubleWell(h), calls


class TestGridProfile:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 200)
        with pytest.raises(ValueError):
            Grid(-1.0, 201)
        # the floor of the stationary module's fourth-order slopes
        with pytest.raises(ValueError, match="odd integer >= 5"):
            Grid(1.0, 3)

    @pytest.mark.parametrize("n_points", [101.0, 101.5, "101", np.float64(101.0), None])
    def test_non_integer_n_points_rejected(self, n_points):
        # refused at construction, not by a TypeError inside np.linspace later
        with pytest.raises(ValueError, match=re.escape(f"odd integer >= 5, got {n_points!r}")):
            Grid(1.0, n_points)

    def test_numpy_integer_n_points_accepted(self):
        grid = Grid(1.0, np.int64(101))
        assert grid == Grid(1.0, 101) and len(grid.x) == 101

    @pytest.mark.parametrize("x_max", [float("nan"), float("inf")])
    def test_non_finite_x_max_rejected(self, x_max):
        with pytest.raises(ValueError, match="x_max must be positive and finite"):
            Grid(x_max, 101)

    def test_default_grid(self):
        assert Grid() == Grid(1.0, 201)

    @pytest.mark.parametrize(
        "func",
        [
            stationary.solve_stationary,
            stationary.quadrature_reconstruct,
            stationary.verify_no_pot_shape,
            bifurcation.sweep,
            bifurcation.critical_curve,
        ],
    )
    def test_grid_parameters_default_to_the_default_grid(self, func):
        assert inspect.signature(func).parameters["grid"].default == Grid()

    def test_grid_geometry(self):
        g = Grid(1.0, 201)
        assert g.dx == pytest.approx(0.01)
        assert g.x[100] == 0.0

    def test_profile_enforces_dirichlet(self):
        g = Grid(1.0, 5)
        p = Profile(g, np.array([0.0, 1.0, 2.0, 1.0, 0.0]), boundary_value=5.0)
        assert p.values[0] == 5.0 and p.values[-1] == 5.0


class TestRhs:
    def test_uniform_stationary_is_zero(self):
        spec = DoubleWell(0.05)
        y_plus = find_stationary_points(spec).y_plus
        prof = Profile.uniform(Grid(1.0, 41), y_plus)
        r = rhs(prof, spec, ConstantCoupling(0.02))
        assert np.max(np.abs(r)) < 1e-13

    def test_linear_profile_exact(self):
        # diffusion of a linear profile vanishes; rhs is -(a^3 x^3 - a x)
        spec = DoubleWell(0.0)
        g = Grid(1.0, 41)
        a = 0.5
        vals = a * g.x
        prof = Profile(g, vals.copy(), boundary_value=a * g.x[-1])
        prof.values[:] = vals  # bypass the symmetric Dirichlet stamp at x=-x_max
        r = rhs(prof, spec, ConstantCoupling(0.03))
        x = g.x[2:-2]
        assert np.allclose(r[2:-2], -((a * x) ** 3 - a * x), atol=1e-12)

    def test_grid_refinement_oracle(self):
        # smooth profile, coarse rhs vs fine-grid reference sampled back: O(dx^2)
        spec = DoubleWell(0.0)
        d = 0.01

        def rhs_on(n):
            g = Grid(1.0, n)
            vals = 0.3 * np.cos(np.pi * g.x / 2.0) ** 2 + 0.1 * np.sin(np.pi * g.x)
            prof = Profile(g, vals, boundary_value=vals[0])
            return rhs(prof, spec, ConstantCoupling(d))

        coarse = rhs_on(101)
        mid = rhs_on(201)
        fine = rhs_on(401)
        err_c = np.max(np.abs(coarse[1:-1] - fine[::4][1:-1]))
        err_m = np.max(np.abs(mid[1:-1] - fine[::2][1:-1]))
        assert err_c < 5e-4
        # halving dx should shrink the defect about 4x (within slack)
        assert err_c / err_m > 2.5

    def test_state_dependent_reduces_to_constant(self):
        spec = DoubleWell(0.0)
        g = Grid(1.0, 81)
        vals = 0.2 * np.sin(np.pi * g.x)
        prof = Profile(g, vals, boundary_value=0.0)
        r_const = rhs(prof, spec, ConstantCoupling(0.02))
        r_affine = rhs(prof, spec, AffineCoupling(0.02, 0.0))
        assert np.allclose(r_const, r_affine, atol=1e-14)

    @pytest.mark.parametrize(
        "coupling", [ConstantCoupling(0.02), AffineCoupling(0.02, 0.005)]
    )
    def test_out_of_domain_interior_raises(self, coupling):
        # DoubleWell's domain is [-2, 2]; rhs checks it, integrate's loop does not
        vals = np.zeros(21)
        vals[10] = 2.5
        prof = Profile(Grid(1.0, 21), vals, boundary_value=0.0)
        with pytest.raises(DomainError):
            rhs(prof, DoubleWell(0.0), coupling)


class TestIntegrate:
    def test_starts_stationary(self):
        spec = DoubleWell(0.01)
        y_plus = find_stationary_points(spec).y_plus
        prof = Profile.uniform(Grid(1.0, 201), y_plus)
        rec = integrate(prof, spec, ConstantCoupling(0.01), t_end=10.0)
        assert rec.steady
        assert rec.t_final == 0.0
        assert np.allclose(rec.final.values, y_plus)

    def test_one_gradient_call_without_steps(self):
        # a run that takes no step evaluates the right-hand side once
        pts = find_stationary_points(DoubleWell(0.01))
        coupling = ConstantCoupling(0.01)
        spec, calls = _counting_double_well(0.01)
        integrate(Profile.uniform(Grid(1.0, 201), pts.y_plus), spec, coupling, t_end=10.0)
        assert len(calls) == 1
        calls.clear()
        prof = Profile.uniform(Grid(1.0, 21), pts.y_minus, boundary_value=pts.y_plus)
        integrate(prof, spec, coupling, t_end=0.0)
        assert len(calls) == 1

    def test_fig2_uniform_branch(self):
        spec = DoubleWell(0.01)
        pts = find_stationary_points(spec)
        prof = Profile.uniform(Grid(1.0, 201), pts.y_minus, boundary_value=pts.y_plus)
        rec = integrate(prof, spec, ConstantCoupling(0.01), t_end=2e4)
        assert rec.steady
        assert np.max(np.abs(rec.final.values - pts.y_plus)) < 1e-3

    def test_fig2_pot_branch(self, fig2_pot_record):
        rec = fig2_pot_record
        spec = DoubleWell(-0.01)
        pts = find_stationary_points(spec)
        assert rec.steady
        mid = rec.final.values[100]
        assert mid < pts.y_plus - 0.1
        half = rec.final.values[100:]
        assert np.all(np.diff(half) >= -1e-8)

    def test_energy_monotone_along_trajectory(self, fig2_pot_record):
        H = np.array([h for _, h in fig2_pot_record.energies])
        assert np.all(np.diff(H) <= 1e-8)

    def test_energy_monotone_state_dependent(self):
        spec = DoubleWell(-0.02)
        pts = find_stationary_points(spec)
        prof = Profile.uniform(Grid(1.0, 101), pts.y_minus, boundary_value=pts.y_plus)
        rec = integrate(
            prof, spec, AffineCoupling(0.02, 0.005), t_end=50.0, snapshot_every=50
        )
        H = np.array([h for _, h in rec.energies])
        assert np.all(np.diff(H) <= 1e-8)

    def test_even_symmetry(self, fig2_pot_record):
        v = fig2_pot_record.final.values
        assert np.max(np.abs(v - v[::-1])) < 1e-8

    def test_boundary_pinned(self, fig2_pot_record):
        spec = DoubleWell(-0.01)
        y_plus = find_stationary_points(spec).y_plus
        for _, prof in fig2_pot_record.snapshots:
            assert prof.values[0] == y_plus
            assert prof.values[-1] == y_plus

    def test_steady_residual_consistent(self, fig2_pot_record):
        rec = fig2_pot_record
        r = rhs(rec.final, DoubleWell(-0.01), ConstantCoupling(0.01))
        assert np.max(np.abs(r)) < 1e-9

    def test_zero_t_end_takes_no_step(self):
        spec = DoubleWell(0.01)
        pts = find_stationary_points(spec)
        prof = Profile.uniform(Grid(1.0, 21), pts.y_minus, boundary_value=pts.y_plus)
        coupling = ConstantCoupling(0.01)
        rec = integrate(prof, spec, coupling, t_end=0.0)
        assert rec.t_final == 0.0
        assert np.array_equal(rec.final.values, prof.values)
        assert not rec.steady
        assert rec.residual == pytest.approx(
            np.max(np.abs(rhs(prof, spec, coupling))), rel=1e-12
        )

    def test_last_step_clipped_to_t_end(self):
        # dt = 0.064 on Grid(1, 51): 781.25 steps, the last one a quarter step
        pts = find_stationary_points(DoubleWell(-0.01))
        prof = Profile.uniform(Grid(1.0, 51), pts.y_minus, boundary_value=pts.y_plus)
        rec = integrate(prof, DoubleWell(-0.01), ConstantCoupling(0.01), t_end=50.0)
        assert not rec.steady
        assert rec.t_final == 50.0

    def test_whole_number_of_steps_takes_no_sliver(self):
        # on Grid(1, 21) t_end = 11 dt divides to just above 11 steps: eleven
        # steps, one gradient call each, and the final residual's
        spec, calls = _counting_double_well(-0.01)
        pts = find_stationary_points(spec)
        prof = Profile.uniform(Grid(1.0, 21), pts.y_minus, boundary_value=pts.y_plus)
        coupling = ConstantCoupling(0.01)
        t_end = 11 * stable_dt(prof.grid, spec, coupling)
        assert t_end / stable_dt(prof.grid, spec, coupling) > 11
        rec = integrate(prof, spec, coupling, t_end=t_end)
        assert rec.t_final == t_end
        assert len(calls) == 12

    def test_negative_t_end_rejected(self):
        # and a t_end that is not finite: inf and NaN cannot count steps
        prof = Profile.uniform(Grid(1.0, 21), -1.0, boundary_value=1.0)
        for t_end in (-5.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=rf"t_end must be finite and >= 0, got {t_end}"):
                integrate(prof, DoubleWell(0.01), ConstantCoupling(0.01), t_end=t_end)

    @pytest.mark.parametrize("snapshot_every", [0, -1, 2.5, 100.0])
    def test_snapshot_cadence_not_positive_integer_rejected(self, monkeypatch, snapshot_every):
        # 0 would divide by zero in the step loop, and -1 record every step
        def no_step(*args):
            raise AssertionError("stepped with a bad snapshot cadence")

        monkeypatch.setattr(pde, "_interior_rhs", no_step)
        prof = Profile.uniform(Grid(1.0, 21), -1.0, boundary_value=1.0)
        with pytest.raises(ValueError, match="snapshot_every must be an integer >= 1"):
            integrate(prof, DoubleWell(0.01), ConstantCoupling(0.01), snapshot_every=snapshot_every)

    def test_numpy_integer_snapshot_cadence_accepted(self):
        # dt = 0.4 on Grid(1, 21): three steps, the last clipped to t = 1
        prof = Profile.uniform(Grid(1.0, 21), -1.0, boundary_value=1.0)
        rec = integrate(prof, DoubleWell(0.01), ConstantCoupling(0.01), t_end=1.0,
                        snapshot_every=np.int64(1))
        assert [t for t, _ in rec.energies] == pytest.approx([0.0, 0.4, 0.8, 1.0])

    @pytest.mark.parametrize("t_end, times", [(0.0, [0.0]), (6.4, [0.0, 6.4])])
    def test_end_recorded_once(self, t_end, times):
        # dt = 0.064 on Grid(1, 51): t_end = 6.4 is exactly 100 steps, so the
        # end falls on the 100-step cadence; t_end = 0 ends where it starts
        pts = find_stationary_points(DoubleWell(-0.01))
        prof = Profile.uniform(Grid(1.0, 51), pts.y_minus, boundary_value=pts.y_plus)
        rec = integrate(prof, DoubleWell(-0.01), ConstantCoupling(0.01), t_end=t_end,
                        snapshot_every=100)
        assert [t for t, _ in rec.energies] == times
        assert [t for t, _ in rec.snapshots] == times

    def test_divergence_detected(self):
        spec = DoubleWell(0.0, domain=(-1e8, 1e8))
        g = Grid(1.0, 11)
        prof = Profile.uniform(g, 1e5, boundary_value=1e5)
        # the state grows without bound: y**3 overflows before it turns inf
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(DivergenceError):
                integrate(prof, spec, ConstantCoupling(0.01), t_end=10.0)

    def test_divergence_on_the_last_step_detected(self):
        # one step of stable_dt = 1.6 takes 1e100 to about -1.6e300, whose
        # cube overflows: the check after the last step raises
        spec = DoubleWell(0.0, domain=(-1e308, 1e308))
        prof = Profile.uniform(Grid(1.0, 11), 1e100)
        coupling = ConstantCoupling(0.01)
        with np.errstate(over="ignore", invalid="ignore"):
            dt = stable_dt(prof.grid, spec, coupling)
            with pytest.raises(DivergenceError) as err:
                integrate(prof, spec, coupling, t_end=dt)
        assert err.value.t == dt

    def test_divergence_names_first_non_finite_node(self):
        # NaNs at nodes 7 and 43, a mirror pair, make the stencil of node 6
        # the first non-finite one; _relax, which solves the half from the
        # centre node 25 out, names it on the full grid too
        prof = Profile.uniform(Grid(1.0, 51), -1.0, boundary_value=1.0)
        prof.values[[7, 43]] = np.nan
        spec = DoubleWell(0.0)
        for run in (
            lambda: _relax([prof], [spec], [0.01], 10.0)[0],
            lambda: integrate(prof, spec, ConstantCoupling(0.01), t_end=10.0),
        ):
            with pytest.raises(DivergenceError) as err:
                run()
            assert err.value.node == 6
            assert err.value.t == 0.0

    def test_user_coupling_not_positive_rejected_before_any_step(self, monkeypatch):
        class Identity(Coupling):  # D(y) = y is negative on half the domain
            def diffusivity(self, y):
                return np.asarray(y, dtype=float)

            def derivative(self, y):
                return np.ones_like(np.asarray(y, dtype=float))

        def no_step(*args):
            raise AssertionError("stepped with a coupling that is not positive")

        monkeypatch.setattr(pde, "_interior_rhs", no_step)
        prof = Profile.uniform(Grid(1.0, 51), -1.0, boundary_value=1.0)
        spec = DoubleWell(0.0)
        for run in (
            lambda: stable_dt(prof.grid, spec, Identity()),
            lambda: integrate(prof, spec, Identity(), t_end=1.0),
        ):
            with pytest.raises(ValueError, match="must be positive over the domain"):
                run()

    def test_nan_diffusivity_sample_rejected(self):
        # linspace over (-1e308, 1e308) starts [nan, inf, ...]: D(nan) is NaN
        spec = DoubleWell(0.0, domain=(-1e308, 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="must be positive over the domain"):
                stable_dt(Grid(1.0, 11), spec, AffineCoupling(1.0, 0.0))
            assert stable_dt(Grid(1.0, 11), spec, ConstantCoupling(0.01)) == pytest.approx(1.6)

    def test_auto_dt(self):
        g = Grid(1.0, 201)
        assert stable_dt(g, DoubleWell(0.0), ConstantCoupling(0.01)) == pytest.approx(
            0.4 * g.dx**2 / 0.01
        )


class TestEnergy:
    def test_uniform_double_well(self):
        spec = DoubleWell(0.0)
        prof = Profile.uniform(Grid(1.0, 201), 1.0)
        assert energy(prof, spec, ConstantCoupling(0.01)) == pytest.approx(-0.5)

    def test_uniform_zero(self):
        spec = DoubleWell(0.0)
        prof = Profile.uniform(Grid(1.0, 201), 0.0)
        assert energy(prof, spec, ConstantCoupling(0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_parabola_closed_form(self):
        # y = x^2: int (x^8/4 - x^4/2) dx + (D/2) int (2x)^2 dx = -13/90 + 4D/3
        spec = DoubleWell(0.0)
        d = 0.37
        g = Grid(1.0, 401)
        prof = Profile(g, g.x**2, boundary_value=1.0)
        expected = -13.0 / 90.0 + 4.0 * d / 3.0
        assert energy(prof, spec, ConstantCoupling(d)) == pytest.approx(
            expected, abs=1e-3
        )


class TestReactionLipschitz:
    @pytest.mark.parametrize("h", [-0.1, 0.0, 0.2])
    def test_double_well(self, h):
        # U'' = 3 y^2 - 1 peaks at the domain ends y = +-2
        assert _reaction_lipschitz(DoubleWell(h)) == 11.0

    def test_ldpc(self):
        # U''(0) = 1 for (3, 6) at eps = 0.45, and the mirror keeps max|U''|
        spec = LdpcBec(0.45, 3, 6)
        assert _reaction_lipschitz(spec) == 1.0
        assert _reaction_lipschitz(ReflectedPotential(spec)) == 1.0


class TestDiscreteChain:
    def test_boundary_domination(self):
        spec = DoubleWell(0.01)
        pts = find_stationary_points(spec)
        final = simulate_discrete_chain(3, spec, 50.0, pts.y_minus, t_end=100.0)
        assert abs(final[1] - pts.y_plus) < 1e-2

    def test_matches_continuum_on_fig2(self, fig2_pot_chain, fig2_pot_record):
        assert np.max(np.abs(fig2_pot_chain - fig2_pot_record.final.values)) < 1e-2

    def test_uncoupled_nodes_descend_independently(self):
        spec = DoubleWell(0.01)
        pts = find_stationary_points(spec)
        final = simulate_discrete_chain(11, spec, 0.0, pts.y_minus, t_end=500.0)
        assert np.allclose(final[1:-1], pts.y_minus, atol=1e-6)
        assert final[0] == pts.y_plus and final[-1] == pts.y_plus

    @pytest.mark.parametrize("d", [np.nan, np.inf, -1.0])
    def test_rejects_bad_coupling(self, d):
        with pytest.raises(ValueError, match="coupling constant must be non-negative"):
            simulate_discrete_chain(11, DoubleWell(0.01), d, -1.0, t_end=10.0)

    @pytest.mark.parametrize("t_end", [np.inf, np.nan, -1.0])
    def test_rejects_bad_t_end(self, t_end):
        with pytest.raises(ValueError, match="t_end must be finite and >= 0"):
            simulate_discrete_chain(11, DoubleWell(0.01), 0.01, -1.0, t_end=t_end)

    def test_divergence_names_first_interior_node(self):
        with pytest.raises(DivergenceError) as err:
            simulate_discrete_chain(5, DoubleWell(0.0), 0.01, float("nan"), 1.0)
        assert err.value.node == 1
