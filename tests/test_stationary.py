import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coupled_dynamics import _lapack, pde, stationary
from coupled_dynamics.pde import DEFAULT_STEADY_TOL, Grid, Profile
from coupled_dynamics.potentials import (
    DomainError,
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


def mirror_even(v):
    """v made equal to its mirror image bit for bit, as `pde._relax` needs:
    `Grid.x` is mirror-exact only where n_points - 1 is a power of two."""
    return 0.5 * (v + v[::-1])


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

    def test_rejects_bad_coupling(self, monkeypatch):
        with pytest.raises(ValueError):
            solve_stationary(DoubleWell(0.01), -1.0)

        def no_relax(*args):
            raise AssertionError("relaxed under a bad t_cap")

        # a t_cap that is not finite and >= 0 is a bad input too, rejected
        # before any work: NaN would otherwise act as no cap at all
        monkeypatch.setattr(stationary, "_relax", no_relax)
        for t_cap in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match=rf"t_cap must be finite and >= 0, got {t_cap}"):
                solve_stationary(DoubleWell(0.01), 0.01, grid=Grid(1.0, 51), t_cap=t_cap)

    @pytest.mark.parametrize("d", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coupling(self, d):
        with pytest.raises(ValueError, match="coupling constant must be positive"):
            solve_stationary(DoubleWell(-0.01), d, grid=Grid(1.0, 101))

    def test_coarse_grid_relaxes(self):
        # dx = 0.5: an explicit step at 0.4 dx^2/D = 10 is far past 2/max|U''|
        sol = solve_stationary(DoubleWell(-0.01), 0.01, grid=Grid(1.0, 5))
        assert sol.steady
        assert sol.classification == POT_SHAPED

    @pytest.mark.parametrize(
        "spec, y0",
        [
            (DoubleWell(-0.01), 5.0),
            (DoubleWell(-0.01), -3.0),
            (LdpcBec(0.45, 3, 6), 1.5),
            (ReflectedPotential(LdpcBec(0.45, 3, 6)), 0.5),
            (ReflectedPotential(LdpcBec(0.45, 3, 6)), -3.0),
        ],
    )
    def test_y0_outside_domain_rejected_before_relaxing(self, spec, y0, monkeypatch):
        def no_relax(*args):
            raise AssertionError("relaxed from a y0 outside the domain")

        monkeypatch.setattr(stationary, "_relax", no_relax)
        with pytest.raises(DomainError, match=rf"\]: {y0}$"):
            solve_stationary(spec, 0.01, grid=Grid(1.0, 51), y0=y0)

    def test_y0_on_the_domain_edge_accepted(self):
        # the reflected LDPC domain is [-1, 0]; y0 = -1 is a valid start
        spec = ReflectedPotential(LdpcBec(0.45, 3, 6))
        sol = solve_stationary(spec, 0.01, grid=Grid(1.0, 51), y0=-1.0)
        assert sol.steady

    def test_single_interior_node_hits_slope_floor(self):
        # fourth-order slopes need five nodes: Grid refuses three
        with pytest.raises(ValueError, match="odd integer >= 5"):
            solve_stationary(DoubleWell(-0.01), 0.01, grid=Grid(1.0, 3))

    def test_t_exit_is_model_time(self, fig2_pot):
        # explicit Euler (dt = 0.4 dx^2/D) reaches steady at t = 318.4
        _, sol = fig2_pot
        assert sol.t_exit == pytest.approx(318.4, rel=0.15)

    def test_t_exit_close_to_explicit_euler(self, fig2_pot):
        # trying the Newton tail from max|r| < NEWTON_TAIL_TOL extrapolates
        # the linear decay from further out, which lands nearer the explicit
        # Euler time 318.4 than stepping the tail down to 1e-4 did (326.03)
        _, sol = fig2_pot
        assert sol.t_exit == pytest.approx(318.4, rel=0.02)


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

    def test_capped_run_spends_few_evaluations(self, monkeypatch):
        # the capped h = 0 run: no step growth right after a rejected step
        # (409 stencil evaluations without that rule), and no Numerov polish
        # of its unsteady end: one Numerov evaluation, the report's residual
        calls = {"_interior_rhs": 0, "_numerov_system": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        counting(pde, "_interior_rhs")
        counting(stationary, "_numerov_system")
        sol = solve_stationary(DoubleWell(0.0), 0.001, grid=Grid(1.0, 101), t_cap=1e4)
        assert not sol.steady
        assert sol.t_exit == 1e4
        assert calls["_interior_rhs"] < 380
        assert calls["_numerov_system"] == 1

    @pytest.mark.parametrize(
        "t_cap, classification, steady",
        [(300.0, OTHER, False), (3e3, UNIFORM, True)],
    )
    def test_capped_run_near_the_fold_is_not_polished(self, t_cap, classification, steady):
        # between the 3-point grid's fold and the continuum one at d = 0.05
        # the flow ends uniform at t of about 1,574; polished from its state
        # at t = 300, the run would land on a pot that the flow never reaches
        sol = solve_stationary(DoubleWell(-0.0242407), 0.05, grid=Grid(1.0, 101), t_cap=t_cap)
        assert sol.classification == classification
        assert sol.steady is steady

    def test_newton_tail_halves_the_pot_solve(self, monkeypatch):
        # the linear tail below NEWTON_TAIL_TOL is one Newton finish, not
        # about 85 more stencil evaluations (63 with it, 148 without it)
        calls = []
        interior_rhs = pde._interior_rhs

        def counted(*args):
            calls.append(None)
            return interior_rhs(*args)

        monkeypatch.setattr(pde, "_interior_rhs", counted)
        sol = solve_stationary(DoubleWell(-0.01), 0.01, grid=Grid(1.0, 201))
        assert sol.classification == POT_SHAPED
        assert len(calls) < 100

    def test_tail_past_t_end_ends_at_t_end(self):
        # the fig-2 pot tail converges under Newton well before t = 300, but
        # its extrapolated steady time (about 324) is past t_end: the fixed
        # point found still ends the run, at t_end
        spec = DoubleWell(-0.01)
        pts = find_stationary_points(spec)
        start = Profile.uniform(Grid(1.0, 201), pts.y_minus, boundary_value=pts.y_plus)
        capped, residual, t = pde._relax([start], [spec], [0.01], 300.0)[0]
        assert t == 300.0
        assert residual < DEFAULT_STEADY_TOL
        free, _, t_free = pde._relax([start], [spec], [0.01], 2e4)[0]
        assert t_free == pytest.approx(323.78, abs=0.01)
        assert np.array_equal(capped.values, free.values)

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
                final, residual, _ = pde._relax([start], [spec], [d], 1e4)[0]
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

    def test_start_that_is_not_its_mirror_image_refused(self, monkeypatch):
        # _relax solves the mirror half of each row: a start off its mirror
        # image by one bit, alone or in a stack, is refused before any step
        grid = Grid(1.0, 11)
        spec = DoubleWell(0.0)
        even = Profile(grid, 1.0 + 1e-3 * mirror_even(np.cos(0.5 * np.pi * grid.x)), 1.0)
        odd = even.copy()
        odd.values[3] = np.nextafter(odd.values[3], 2.0)

        def no_step(*args):
            raise AssertionError("stepped from a start that is not its mirror image")

        monkeypatch.setattr(pde, "_interior_rhs", no_step)
        for stack in ([odd], [even, odd]):
            with pytest.raises(ValueError, match="mirror image"):
                pde._relax(stack, [spec] * len(stack), [0.01] * len(stack), 1e4)

    def test_unstable_fixed_point_is_not_accepted(self):
        # a small bump on the unstable state y_u = 0 (pinned there) is within
        # Newton's reach of it; the flow instead leaves it for the stable
        # plateau near 1
        grid = Grid(1.0, 101)
        start = Profile(grid, 1e-6 * mirror_even(np.cos(0.5 * np.pi * grid.x)), boundary_value=0.0)
        final, residual, t = pde._relax([start], [DoubleWell(0.0)], [0.01], 1e4)[0]
        assert residual < DEFAULT_STEADY_TOL
        assert np.max(final.values) > 0.99
        assert t > 10.0

    def test_newton_finish_needs_one_signed_correction(self, monkeypatch):
        # about the stable uniform state y = 1 (h = 0), a one-signed even
        # offset is finished by Newton and a sign-changing even one is
        # refused: the run's first solve is its tail's (off-diagonal -k, tau
        # = infinity), and a finished tail ends the run before any
        # relaxation step (-tau k)
        grid = Grid(1.0, 101)
        spec = DoubleWell(0.0)
        d = 0.01
        k = d / grid.dx**2
        dgtsv, offs = _lapack.dgtsv, []

        def recorded(*args):
            offs.append(args[0][0])
            return dgtsv(*args)

        monkeypatch.setattr(_lapack, "dgtsv", recorded)
        offsets = [(-np.cos(0.5 * np.pi * grid.x), True), (np.cos(1.5 * np.pi * grid.x), False)]
        for offset, accepted in offsets:
            offs.clear()
            start = Profile(grid, 1.0 + 1e-6 * mirror_even(offset), boundary_value=1.0)
            _, residual, _ = pde._relax([start], [spec], [d], 1e4)[0]
            assert residual < DEFAULT_STEADY_TOL and offs[0] == -k
            assert (set(offs) == {-k}) == accepted

    def test_failed_tail_solve_steps_on(self, monkeypatch):
        # the pot at h = -0.05, d = 0.05 is Newton-finished at its first try
        # (max|r| about 9.2e-3); a stand-in dgtsv reports a zero pivot in the
        # row's block on that try's first solve: the row takes relaxation
        # steps again, tries the tail once more only once max|r| has fallen
        # tenfold, and ends steady with the label of the unstubbed run
        spec, d, grid = DoubleWell(-0.05), 0.05, Grid(1.0, 51)
        want = solve_stationary(spec, d, grid=grid)
        k = d / grid.dx**2
        dgtsv, events = _lapack.dgtsv, []

        def stand_in(*args):
            if len(args) == 4:  # the row solved alone after the zero pivot
                return dgtsv(*args)
            # max|r| from the right side tau r and the off-diagonal -tau k;
            # a tail's solve has tau = 1 (-J delta = r), and its first solve
            # follows a relaxation step
            tau = -args[0][0] / k
            res = np.max(np.abs(args[3])) / tau
            if args[0][0] != -k:
                events.append(("step", res))
            elif not events or events[-1][0] == "step":
                events.append(("tail", res))
            else:
                events.append(("newton", None))
            if ("zero pivot", None) not in events and events[-1][0] == "tail":
                events.append(("zero pivot", None))
                return (*dgtsv(*args)[:4], 1)
            return dgtsv(*args)

        monkeypatch.setattr(_lapack, "dgtsv", stand_in)
        sol = solve_stationary(spec, d, grid=grid)
        tails = [i for i, (kind, _) in enumerate(events) if kind == "tail"]
        assert len(tails) == 2 and events[tails[0] + 1] == ("zero pivot", None)
        failed_at, retried_at = events[tails[0]][1], events[tails[1]][1]
        between = [res for kind, res in events[tails[0] + 2 : tails[1]] if kind == "step"]
        assert len(between) == tails[1] - tails[0] - 2 > 0
        assert min(between) >= 0.1 * failed_at > retried_at
        assert sol.steady and sol.classification == want.classification == POT_SHAPED
        assert sol.t_exit != want.t_exit

    def test_failed_tail_near_the_tolerance_ends_at_it(self):
        # a sign-changing even 1e-9 offset about y = 1 (h = 0): the tail tried
        # at max|r| = 2.2e-9 is refused, and the steps that follow end the run
        # at the first max|r| below DEFAULT_STEADY_TOL (9.2e-10), though it
        # is above a tenth of the refused tail's start
        grid = Grid(1.0, 51)
        offset = 1e-9 * mirror_even(np.cos(1.5 * np.pi * grid.x))
        start = Profile(grid, 1.0 + offset, boundary_value=1.0)
        _, residual, t = pde._relax([start], [DoubleWell(0.0)], [0.01], 1e4)[0]
        assert 0.5 * DEFAULT_STEADY_TOL < residual < DEFAULT_STEADY_TOL
        assert 0.0 < t < 1.0

    @pytest.mark.parametrize("d, h", [(0.001, -0.005), (0.0316, -0.01), (0.1, -0.1)])
    def test_monotone_in_time_from_lower_state(self, d, h):
        # y_minus is a subsolution, so the flow from it never decreases
        spec = DoubleWell(h)
        pts = find_stationary_points(spec)
        start = Profile.uniform(Grid(1.0, 101), pts.y_minus, boundary_value=pts.y_plus)
        prev = start.values
        for t_end in np.geomspace(0.5, 1e3, 40):
            final, _, _ = pde._relax([start], [spec], [d], t_end)[0]
            assert np.min(final.values - prev) >= -1e-12
            prev = final.values


@st.composite
def stacks(draw):
    """A stack of 1-6 cells on one grid under one t_cap, so capped rows mix
    with steady ones and rows leave at every stack size: DoubleWell tilts,
    0.0 next to -0.0, each tilt as one object on several rows and as equal
    distinct objects, or reflected LdpcBec(eps, 3, 6) rows on one base; d
    log-uniform on [10^-3.5, 1], y0 the default, drawn from the domain, or
    within 1e-3 of the boundary value y_plus: from there max|r| is often
    below NEWTON_TAIL_TOL, so the run starts with a Newton tail."""
    grid = Grid(draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.sampled_from([5, 7, 11, 21, 51])))
    t_cap = draw(st.sampled_from([1.0, 30.0, 300.0, 3000.0]))
    if draw(st.booleans()):
        h = draw(st.floats(-0.1, 0.1))
        pool = [DoubleWell(0.0), DoubleWell(-0.0), DoubleWell(h), DoubleWell(h)]
    else:
        base = LdpcBec(draw(st.floats(0.3, 0.55)), 3, 6)
        pool = [ReflectedPotential(base), ReflectedPotential(base)]
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        spec = draw(st.sampled_from(pool))
        (lo, hi), y_plus = spec.domain, find_stationary_points(spec).y_plus
        near = st.floats(-1e-3, 1e-3).map(lambda e: min(max(y_plus + e, lo), hi))
        y0 = draw(st.none() | st.floats(lo, hi) | near)
        cells.append((spec, 10.0 ** draw(st.floats(-3.5, 0.0)), y0))
    return cells, grid, t_cap


class TestStackedRelaxation:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(stacks(), st.floats(-1e-3, 1e-3))
    # rows leave while those that stay differ in their `rejected` flag, which
    # a re-layout must carry with each row
    @example(([(spec, d, None) for spec in (DoubleWell(0.05), DoubleWell(-0.02))
               for d in (0.01, 0.01, 0.002)], Grid(1.0, 51), 1e4), 0.0)
    def test_every_stacked_row_equals_its_solo_run(self, stack, amplitude):
        # each _solve_cells cell equals its solve_stationary, and the polish
        # of the perturbed ends as a stack equals its stacks of one, by ==
        cells, grid, t_cap = stack
        # each relaxed row is its own mirror image, and a steady one is
        # steady on the full grid (U' unchecked, as in _relax: a steady end
        # may lie a rounding error outside the domain)
        specs, ds = [spec for spec, _, _ in cells], [d for _, d, _ in cells]
        relax_starts = []
        for spec, _, y0 in cells:
            pts = find_stationary_points(spec)
            y0 = pts.y_minus if y0 is None else y0
            relax_starts.append(Profile.uniform(grid, y0, boundary_value=pts.y_plus))
        relaxed = pde._relax(relax_starts, specs, ds, t_cap)
        for (final, residual, _), spec, d in zip(relaxed, specs, ds):
            assert np.array_equal(final.values, final.values[::-1])
            if residual < DEFAULT_STEADY_TOL:
                coupling = pde.ConstantCoupling(d)
                r = pde._interior_rhs(final.values, grid.dx, spec.gradient_unchecked, coupling)
                assert np.max(np.abs(r)) < DEFAULT_STEADY_TOL
        solved = stationary._solve_cells(cells, grid, t_cap)
        for (spec, d, y0), sol in zip(cells, solved):
            want = solve_stationary(spec, d, grid=grid, y0=y0, t_cap=t_cap)
            assert sol.profile.values.tobytes() == want.profile.values.tobytes()
            assert (sol.residual, sol.t_exit, sol.classification, sol.first_integral_constant) == (
                want.residual, want.t_exit, want.classification, want.first_integral_constant
            )
        bump = amplitude * np.cos(0.5 * np.pi * grid.x / grid.x_max)
        starts = [Profile(grid, s.profile.values + bump, s.profile.boundary_value) for s in solved]
        polished = [p.copy() for p in starts]
        residuals = stationary._newton_polish(polished, specs, ds, DEFAULT_STEADY_TOL)
        for p, residual, start, spec, d in zip(polished, residuals, starts, specs, ds):
            alone = start.copy()
            assert [residual] == stationary._newton_polish([alone], [spec], [d], DEFAULT_STEADY_TOL)
            assert p.values.tobytes() == alone.values.tobytes()

    def test_zero_pivot_rejects_only_its_row(self, monkeypatch):
        # a stand-in dgtsv reports a zero pivot in row 1 at the 30th
        # stack step, of 56 or more (the first steps are at most tau0,
        # and those are always accepted): the other rows are re-solved and
        # end exactly as alone, and row 1 as alone with the same zero pivot
        grid = Grid(1.0, 51)
        spec = DoubleWell(-0.01)
        pts = find_stationary_points(spec)
        start = Profile.uniform(grid, pts.y_minus, boundary_value=pts.y_plus)
        ds = [0.003, 0.01, 0.05]
        dgtsv = _lapack.dgtsv

        def zero_pivot_once(node):
            calls = []

            def stand_in(*args):
                out = dgtsv(*args)
                if len(args) == 8:  # a stack step, not a row solved alone
                    calls.append(None)
                    if len(calls) == 30:
                        return (*out[:4], node)
                return out

            return stand_in, calls

        alone = [pde._relax([start], [spec], [d], 1e4)[0] for d in ds]
        stand_in, calls = zero_pivot_once(grid.n_points + 3)  # row 1, node 3
        monkeypatch.setattr(_lapack, "dgtsv", stand_in)
        stacked = pde._relax([start] * 3, [spec] * 3, ds, 1e4)
        assert len(calls) > 30
        stand_in, _ = zero_pivot_once(3)
        monkeypatch.setattr(_lapack, "dgtsv", stand_in)
        expected = [alone[0], pde._relax([start], [spec], [ds[1]], 1e4)[0], alone[2]]
        for (final, residual, t), (want, want_residual, want_t) in zip(stacked, expected):
            assert np.array_equal(final.values, want.values)
            assert (residual, t) == (want_residual, want_t)
        # the rejected step shows: row 1 does not end as it does unstubbed
        assert stacked[1][2] != alone[1][2]

    def test_tails_inside_a_stack_equal_solo_runs(self, monkeypatch):
        # three rows near y = 1 (h = 0) start their tails at once: row 2's
        # 1e-7 offset is finished by one solve, so it leaves and the stack is
        # laid out again while rows 0 and 1 are mid-tail; at their second
        # solve row 0 (one-signed offset) finishes and row 1 (sign-changing)
        # fails, steps on, tries again and ends steady.  Each row equals its
        # solo run, and dstebz runs once per finished tail: rows 2 and 0
        grid, spec, d = Grid(1.0, 51), DoubleWell(0.0), 0.01
        half, k = (grid.n_points + 3) // 2, d / grid.dx**2  # a half row's length, with its ghost
        shapes = [np.cos(a * np.pi * grid.x) for a in (0.5, 1.5, 0.5)]
        starts = [
            Profile(grid, 1.0 + a * mirror_even(shape), boundary_value=1.0)
            for a, shape in zip([1e-3, 1e-3, 1e-7], shapes)
        ]
        alone = [pde._relax([p], [spec], [d], 1e4)[0] for p in starts]
        dgtsv, dstebz, solves, rates = _lapack.dgtsv, _lapack.dstebz, [], []

        def recorded(*args):  # each row's block: T in a tail (off-diagonal -k), s stepping
            rows = (len(args[0]) + 3) // half
            solves.append("".join("T" if args[0][i * half] == -k else "s" for i in range(rows)))
            return dgtsv(*args)

        def counted(*args):
            rates.append(None)
            return dstebz(*args)

        monkeypatch.setattr(_lapack, "dgtsv", recorded)
        monkeypatch.setattr(_lapack, "dstebz", counted)
        stacked = pde._relax(starts, [spec] * 3, [d] * 3, 1e4)
        assert solves[:3] == ["TTT", "TT", "s"] and "T" in solves[3:]
        assert len(rates) == 2
        for (final, residual, t), (want, want_residual, want_t) in zip(stacked, alone):
            assert final.values.tobytes() == want.values.tobytes()
            assert (residual, t) == (want_residual, want_t)
            assert residual < DEFAULT_STEADY_TOL

    def test_mixed_potentials_equal_solo_runs(self, monkeypatch):
        # rows under DoubleWell at several tilts, 0.0 next to -0.0, -0.05 as
        # one object on two rows and as a third object, h = 0 at d = 0.001
        # capped at t_end: the stack evaluates one DoubleWell with a per-node
        # h, and every row equals its solo _relax, as every cell of the
        # stacked _solve_cells equals its solve_stationary
        grid, t_end = Grid(1.0, 101), 1e3
        shared = DoubleWell(-0.05)
        specs = [DoubleWell(0.0), DoubleWell(-0.0), shared, shared, DoubleWell(-0.05),
                 DoubleWell(0.01)]
        ds = [0.001, 0.05, 0.01, 0.05, 0.1, 0.01]
        starts = []
        for spec in specs:
            pts = find_stationary_points(spec)
            starts.append(Profile.uniform(grid, pts.y_minus, boundary_value=pts.y_plus))
        alone = [pde._relax([p], [spec], [d], t_end)[0] for p, spec, d in zip(starts, specs, ds)]
        layouts = []
        stack_potential = pde._stack_potential

        def recording(row_specs, spread):
            out = stack_potential(row_specs, spread)
            layouts.append(out.h)
            return out

        monkeypatch.setattr(pde, "_stack_potential", recording)
        stacked = pde._relax(starts, specs, ds, t_end)
        assert isinstance(layouts[0], np.ndarray)
        # the first interior nodes of rows 0 and 1: h = 0.0 and -0.0
        assert np.signbit(layouts[0][[0, grid.n_points]]).tolist() == [False, True]
        for (final, residual, t), (want, want_residual, want_t) in zip(stacked, alone):
            assert np.array_equal(final.values, want.values)
            assert (residual, t) == (want_residual, want_t)
        assert stacked[0][1] >= DEFAULT_STEADY_TOL and stacked[0][2] == t_end
        assert all(t < t_end for _, _, t in stacked[1:])
        cells = stationary._solve_cells(list(zip(specs, ds, [None] * 6)), grid, t_end)
        for spec, d, sol in zip(specs, ds, cells):
            want = solve_stationary(spec, d, grid=grid, t_cap=t_end)
            assert np.array_equal(sol.profile.values, want.profile.values)
            assert (sol.classification, sol.residual, sol.t_exit, sol.first_integral_constant) == (
                want.classification, want.residual, want.t_exit, want.first_integral_constant
            )

    def test_rows_differing_in_a_field_not_laid_out_per_node_raise(self):
        # ReflectedPotential's one field is its base, which cannot be laid
        # out per node: a stack must not run the second row under the first
        # row's base (eps = 0.5 is PotShaped alone, eps = 0.45 Uniform)
        specs = [ReflectedPotential(LdpcBec(0.45, 3, 6)), ReflectedPotential(LdpcBec(0.5, 3, 6))]
        cells = [(spec, 0.01, None) for spec in specs]
        with pytest.raises(ValueError, match="differ in base"):
            stationary._solve_cells(cells, Grid(1.0, 51), 1e4)
        # the same base object on both rows stacks
        base = LdpcBec(0.5, 3, 6)
        shared = [(ReflectedPotential(base), 0.01, None) for _ in range(2)]
        want = solve_stationary(shared[0][0], 0.01, grid=Grid(1.0, 51))
        for sol in stationary._solve_cells(shared, Grid(1.0, 51), 1e4):
            assert np.array_equal(sol.profile.values, want.profile.values)
            assert sol.classification == want.classification == POT_SHAPED
        # rows that differ in an integer field raise as well
        with pytest.raises(ValueError, match="differ in dc"):
            pde._stack_potential([LdpcBec(0.5, 3, 6), LdpcBec(0.5, 3, 7)], np.array)

    def test_one_stencil_call_per_step_and_per_layout(self, monkeypatch):
        # rows leave at steps 0 (steady at the start), 22 and 24 (capped):
        # each of the three stacks (3, 2 and 1 rows) evaluates its r when it
        # is laid out, and the stencil runs once more per step
        grid, t_end = Grid(1.0, 101), 5.0
        specs, ds = [DoubleWell(0.05), DoubleWell(-0.01), DoubleWell(-0.05)], [0.01, 0.1, 0.01]
        pts = [find_stationary_points(spec) for spec in specs]
        starts = [Profile.uniform(grid, pts[0].y_plus)] + [
            Profile.uniform(grid, p.y_minus, boundary_value=p.y_plus) for p in pts[1:]
        ]
        alone = [pde._relax([p], [spec], [d], t_end)[0] for p, spec, d in zip(starts, specs, ds)]
        calls = {"_interior_rhs": 0, "steps": 0}
        interior_rhs, dgtsv = pde._interior_rhs, _lapack.dgtsv

        def counted_rhs(*args):
            calls["_interior_rhs"] += 1
            return interior_rhs(*args)

        def counted_dgtsv(*args):
            calls["steps"] += len(args) == 8  # a stack step, not a row solved alone
            return dgtsv(*args)

        monkeypatch.setattr(pde, "_interior_rhs", counted_rhs)
        monkeypatch.setattr(_lapack, "dgtsv", counted_dgtsv)
        stacked = pde._relax(starts, specs, ds, t_end)
        assert calls["_interior_rhs"] == 3 + calls["steps"] == 27
        assert stacked[0][2] == 0.0 and stacked[1][2] == stacked[2][2] == t_end
        for (final, residual, t), (want, want_residual, want_t) in zip(stacked, alone):
            assert np.array_equal(final.values, want.values)
            assert (residual, t) == (want_residual, want_t)


class TestFirstIntegral:
    def test_constant_read_at_the_boundary_node(self, fig2_pot):
        # the report's constant is the last entry of the full profile's
        # first integral, taken from the end slope and U(y_b) alone
        spec, sol = fig2_pot
        ldpc = ReflectedPotential(LdpcBec(0.45, 3, 6))
        cases = [
            (sol, spec, 0.01),
            (solve_stationary(ldpc, 0.01, grid=Grid(1.0, 101)), ldpc, 0.01),
            (refine_profile(sol, spec, 0.01, Grid(1.0, 401)), spec, 0.01),
        ]
        for solution, potential, d in cases:
            want = stationary._first_integral(solution.profile, potential, d)[-1]
            assert solution.first_integral_constant == want

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
        # fourth-order slopes need five nodes: Grid refuses three, so no
        # such profile reaches first_integral
        spec = DoubleWell(0.05)
        y_plus = find_stationary_points(spec).y_plus
        with pytest.raises(ValueError, match="odd integer >= 5"):
            fake = StationarySolution(
                profile=Profile.uniform(Grid(1.0, 3), y_plus),
                classification=UNIFORM,
                first_integral_constant=0.0,
                residual=0.0,
                steady=True,
                t_exit=0.0,
            )
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

    def test_rejects_residual_above_the_steady_tolerance(self, fig2_pot):
        # a 1e-10 bump at the center leaves a Numerov residual near 2e-8:
        # above DEFAULT_STEADY_TOL, the test the polish accepts with
        spec, sol = fig2_pot
        bumped = sol.profile.copy()
        bumped.values[100] += 1e-10
        residual = stationary._stationary_residual(bumped, spec, 0.01)
        assert DEFAULT_STEADY_TOL < residual < 1e-6
        with pytest.raises(NotSteadyError, match="residual 2.0"):
            first_integral(dataclasses.replace(sol, profile=bumped), spec, 0.01)


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

    def test_center_above_boundary_rejected(self):
        with pytest.raises(ValueError, match="must not exceed the boundary value"):
            quadrature_reconstruct(DoubleWell(-0.01), 0.01, 0.0, 1.5)

    def test_infeasible_interior_zero(self, fig2_pot):
        # C too small: U + C dips below zero before reaching the boundary value
        spec, sol = fig2_pot
        c_bad = sol.first_integral_constant - 0.2
        with pytest.raises(ReconstructionInfeasibleError):
            quadrature_reconstruct(
                spec, 0.01, c_bad, float(sol.profile.values[100]), grid=Grid(1.0, 201)
            )

    def test_boundary_global_minimum_blocks_the_branch(self):
        # h > 0 makes the boundary point the unique global minimum: from the
        # other well with C = -U(y_minus), U + C falls below zero before y_b
        spec = DoubleWell(0.05)
        y_minus = find_stationary_points(spec).y_minus
        with pytest.raises(ReconstructionInfeasibleError, match="strictly inside"):
            quadrature_reconstruct(spec, 0.01, -spec.potential(y_minus), y_minus)

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

    @pytest.mark.parametrize("eps", [0.45, 0.5, 0.55])
    def test_heteroclinic_end_on_a_low_barrier(self, eps):
        # reflected LDPC barriers are a few 1e-3 high, so U + C at the center
        # is small in absolute terms but is the largest value on the range:
        # it must not be clamped to the slope-zero case
        spec = ReflectedPotential(LdpcBec(eps, 3, 6))
        pts = find_stationary_points(spec)
        y_u, y_plus = pts.unstable_points[0], pts.y_plus
        c = -spec.potential(y_plus)
        for f in np.linspace(0.05, 0.95, 19):
            y_c = y_u + f * (y_plus - y_u)
            prof = quadrature_reconstruct(spec, 0.01, c, y_c, grid=Grid(1.0, 201))
            half = prof.values[100:]
            assert half[0] == y_c
            assert np.all(np.diff(half) >= 0.0)
            assert half[-1] <= y_plus


class TestClassifyProfile:
    def test_both_halves_must_be_monotone(self, fig2_pot):
        _, sol = fig2_pot
        prof = sol.profile
        y_plus = prof.boundary_value
        assert classify_profile(prof) == POT_SHAPED
        wiggled = prof.values.copy()
        wiggled[20:40] += 0.5 * np.sin(np.linspace(0.0, 2.0 * np.pi, 20))
        for vals in (wiggled, wiggled[::-1]):
            bumpy = Profile(prof.grid, vals.copy(), boundary_value=y_plus)
            assert classify_profile(bumpy) == OTHER

    def test_measured_against_the_boundary_value(self):
        grid = Grid(1.0, 51)
        assert classify_profile(Profile.uniform(grid, 0.3)) == UNIFORM
        # the same interior pinned higher dips below its ends
        pinned = Profile.uniform(grid, 0.3, boundary_value=0.9)
        assert classify_profile(pinned) == POT_SHAPED


class TestNewtonPolish:
    def test_start_is_clipped_into_the_domain(self):
        # a relaxation may end a few ulps past a fixed point on the domain
        # edge (reflected LDPC, y_plus = 0); the polish must not raise there
        spec = ReflectedPotential(LdpcBec(0.45, 3, 6))
        grid = Grid(1.0, 101)
        profile = Profile(grid, np.full(grid.n_points, 1e-14), boundary_value=0.0)
        (residual,) = stationary._newton_polish([profile], [spec], [0.005], DEFAULT_STEADY_TOL)
        assert residual < DEFAULT_STEADY_TOL
        assert np.all(profile.values == 0.0)

    def test_exhausted_backtracking_fails(self, monkeypatch):
        # 1e-6 above the continuum fold at d = 0.1 the 3-point pot branch
        # goes on but the Numerov one has ended: the relaxation ends steady
        # on a 3-point pot, and a polish iteration's 14 trials, lambda = 1
        # down to 2^-13, all fail
        spec = DoubleWell(-0.12007125625564907)
        pts = find_stationary_points(spec)
        start = Profile.uniform(Grid(1.0, 101), pts.y_minus, boundary_value=pts.y_plus)
        relaxed, residual, t = pde._relax([start], [spec], [0.1], 3e3)[0]
        assert residual < DEFAULT_STEADY_TOL and t < 3e3
        assert classify_profile(relaxed) == POT_SHAPED
        events = []

        def recording(module, name, event):
            fn = getattr(module, name)

            def recorded(*args):
                events.append(event)
                return fn(*args)

            monkeypatch.setattr(module, name, recorded)

        recording(stationary, "_numerov_system", "N")
        recording(_lapack, "solve_banded", "S")
        (residual,) = stationary._newton_polish([relaxed], [spec], [0.1], DEFAULT_STEADY_TOL)
        assert not residual < DEFAULT_STEADY_TOL
        assert events.count("S") < 30
        assert "".join(events).endswith("S" + "N" * 14)
        sol = solve_stationary(spec, 0.1, grid=Grid(1.0, 101), t_cap=3e3)
        assert sol.classification == OTHER and not sol.steady

    def test_iterations_capped_at_30(self, monkeypatch):
        # a stand-in _numerov_system returns the real Jacobian and halves the
        # residual on every call, so every trial wins at lambda = 1 and, at
        # tol = 0, the row polishes until the cap
        grid, spec = Grid(1.0, 51), DoubleWell(-0.01)
        pts = find_stationary_points(spec)
        profile = Profile.uniform(grid, pts.y_minus, boundary_value=pts.y_plus)
        numerov_system, solve_banded = stationary._numerov_system, _lapack.solve_banded
        residuals, solves = [], []

        def halving(*args):
            res, jac = numerov_system(*args)
            residuals.append(res)
            return residuals[0] * 0.5 ** len(residuals), jac

        def counted(*args):
            solves.append(None)
            return solve_banded(*args)

        monkeypatch.setattr(stationary, "_numerov_system", halving)
        monkeypatch.setattr(_lapack, "solve_banded", counted)
        (residual,) = stationary._newton_polish([profile], [spec], [0.01], 0.0)
        assert len(solves) == 30
        assert residual > 0.0

    def test_stack_equals_stacks_of_one(self, monkeypatch):
        # rows: Uniform (no iteration), the two polishes that backtrack to
        # lambda < 1, the exhausted backtracking above, and a marked row on
        # which a stand-in solve_banded raises LinAlgError; each row ends as
        # its polish as a stack of one does, and only the marked row fails
        # by the stand-in
        grid, tol = Grid(1.0, 101), DEFAULT_STEADY_TOL
        specs = [DoubleWell(0.05), DoubleWell(-1e-4), DoubleWell(-1e-4),
                 DoubleWell(-0.12007125625564907), DoubleWell(0.05)]
        ds = [0.01, 0.001, 0.01, 0.1, 50.0]
        t_caps = [None, 2e4, 2e4, 3e3, None]
        y_plus = find_stationary_points(specs[0]).y_plus
        profiles = [Profile.uniform(grid, y_plus)]
        for spec, d, t_cap in zip(specs[1:4], ds[1:4], t_caps[1:4]):
            pts = find_stationary_points(spec)
            start = Profile.uniform(grid, pts.y_minus, boundary_value=pts.y_plus)
            profiles.append(pde._relax([start], [spec], [d], t_cap)[0][0])
        bump = y_plus + 1e-3 * np.cos(0.5 * np.pi * grid.x)
        profiles.append(Profile(grid, bump, boundary_value=y_plus))
        # J's diagonal is about -2 d / dx^2: -2.5e5 on the marked row (d = 50),
        # at most about 500 in size on the others
        solve_banded, events = _lapack.solve_banded, []

        def singular_on_mark(l_and_u, ab, b):
            events.append("S")
            if np.max(np.abs(ab[1])) > 1e5:
                raise np.linalg.LinAlgError("singular matrix")
            return solve_banded(l_and_u, ab, b)

        marked = profiles[4].copy()
        (residual,) = stationary._newton_polish([marked], specs[4:], ds[4:], tol)
        assert residual < tol
        numerov_system = stationary._numerov_system

        def recorded(*args):
            events.append("N")
            return numerov_system(*args)

        monkeypatch.setattr(_lapack, "solve_banded", singular_on_mark)
        monkeypatch.setattr(stationary, "_numerov_system", recorded)
        alone, traces = [], []
        for p, spec, d in zip(profiles, specs, ds):
            one = p.copy()
            events.clear()
            alone.append((one, stationary._newton_polish([one], [spec], [d], tol)[0]))
            traces.append("".join(events))
        stack = [p.copy() for p in profiles]
        residuals = stationary._newton_polish(stack, specs, ds, tol)
        for p, residual, (want, want_residual) in zip(stack, residuals, alone):
            assert np.array_equal(p.values, want.values)
            assert residual == want_residual
        assert [r < tol for r in residuals] == [True, True, True, False, False]
        # no solve on the Uniform row; a trial past lambda = 1 on the next
        # two (more trials than solves); the marked row fails at its solve
        # alone, after its stack of one failed as any stack does
        assert traces[0] == "N" and traces[4] == "NSS"
        assert all(t.count("N") - 1 > t.count("S") > 0 for t in traces[1:3])
        assert traces[3].endswith("S" + "N" * 14)
        assert np.array_equal(stack[4].values, profiles[4].values)


class TestRefineProfile:
    def test_preserves_classification_and_reconverges(self, fig2_pot):
        spec, sol = fig2_pot
        fine = refine_profile(sol, spec, 0.01, Grid(1.0, 401))
        assert fine.classification == POT_SHAPED
        assert fine.steady
        assert fine.residual < 1e-9
        # the transferred profile only shifts by the discretization error
        assert np.max(np.abs(fine.profile.values[::2] - sol.profile.values)) < 5e-4

    @pytest.mark.parametrize(
        "spec, d, ns",
        [
            (DoubleWell(-0.01), 0.01, (201, 401, 801, 1601)),
            (DoubleWell(-0.01), 0.001, (101, 201, 401)),
            (DoubleWell(-0.01), 0.01, (101, 401)),
            (ReflectedPotential(LdpcBec(0.5, 3, 6)), 0.01, (101, 201, 401)),
        ],
        ids=["fig2", "steep_front", "jump_101_401", "reflected_ldpc"],
    )
    def test_chain_matches_a_spline_transfer(self, spec, d, ns):
        # a refine chain from linear transfers ends where cubic-spline
        # transfers (scipy, test-side oracle) end, the oracle polished ten
        # times tighter so that its own stopping error stays below the bound
        from scipy.interpolate import CubicSpline

        sol = solve_stationary(spec, d, grid=Grid(1.0, ns[0]))
        spline = sol.profile
        for n in ns[1:]:
            grid = Grid(1.0, n)
            sol = refine_profile(sol, spec, d, grid)
            moved = CubicSpline(spline.grid.x, spline.values)(grid.x)
            spline = Profile(grid, moved, boundary_value=spline.boundary_value)
            tol = 0.1 * DEFAULT_STEADY_TOL
            (residual,) = stationary._newton_polish([spline], [spec], [d], tol)
            assert residual < tol
        assert sol.classification == POT_SHAPED
        assert np.max(np.abs(sol.profile.values - spline.values)) < 1e-9

    def test_rejects_bad_coupling(self, fig2_pot):
        spec, sol = fig2_pot
        with pytest.raises(ValueError):
            refine_profile(sol, spec, 0.0, Grid(1.0, 401))

    def test_failed_polish_raises_not_steady(self, fig2_pot, monkeypatch):
        monkeypatch.setattr(stationary, "_newton_polish", lambda *args: [1.0])
        spec, sol = fig2_pot
        with pytest.raises(NotSteadyError, match=r"refined grid \(n=401\)"):
            refine_profile(sol, spec, 0.01, Grid(1.0, 401))


    def test_rejects_grid_below_five_nodes_before_polishing(self, fig2_pot, monkeypatch):
        def no_polish(*args, **kwargs):
            raise AssertionError("polished a grid that is then rejected")

        monkeypatch.setattr(stationary, "_newton_polish", no_polish)
        spec, sol = fig2_pot
        with pytest.raises(ValueError, match="odd integer >= 5"):
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

    def test_monostable_starts_from_y_minus_only(self):
        spec = DoubleWell(0.5)  # past the fold: one stable point
        pts = find_stationary_points(spec)
        assert not pts.is_bistable
        report = verify_no_pot_shape(spec, [0.01], grid=Grid(1.0, 51))
        assert [c.y0 for c in report.cells] == [pts.y_minus]
        assert report.cells[0].classification == UNIFORM
        assert report.passed

    @pytest.mark.parametrize(
        "lists", [{"d_list": []}, {"d_list": [0.01], "y0_list": []}], ids=["d", "y0"]
    )
    def test_empty_list_rejected_before_any_solve(self, lists, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the empty list was rejected")

        monkeypatch.setattr(stationary, "_relax", no_solve)
        with pytest.raises(ValueError, match="must not be empty"):
            verify_no_pot_shape(DoubleWell(0.05), **lists)

    @pytest.mark.parametrize(
        "lists, error, match",
        [
            ({"d_list": [0.01, 0.1, -1.0]}, ValueError, "coupling constant"),
            ({"d_list": [0.01, float("nan")]}, ValueError, "coupling constant"),
            ({"d_list": [0.01], "y0_list": [-0.9, 0.5, 5.0]}, DomainError, r"\]: 5.0$"),
        ],
        ids=["negative-d", "nan-d", "y0"],
    )
    def test_every_cell_checked_before_any_relaxation(
        self, lists, error, match, monkeypatch
    ):
        # a bad value late in a list raises before the earlier cells relax
        def no_relax(*args):
            raise AssertionError("relaxed before every cell was checked")

        monkeypatch.setattr(stationary, "_relax", no_relax)
        with pytest.raises(error, match=match):
            verify_no_pot_shape(DoubleWell(0.05), grid=Grid(1.0, 51), **lists)

    @pytest.mark.parametrize(
        "spec, t_cap",
        [
            (DoubleWell(0.05), 2e4),
            (DoubleWell(0.05), 30.0),
            (LdpcBec(0.45, 3, 6), 2e4),
            (LdpcBec(0.45, 3, 6), 30.0),
        ],
        ids=["double-well", "double-well-capped", "ldpc", "ldpc-capped"],
    )
    def test_cells_equal_solo_solves(self, spec, t_cap):
        # the cells relax in one stack; each equals its own solve_stationary
        # exactly, including the runs that stop at t_cap (t_cap = 30 leaves
        # some cells Other and others Uniform)
        grid = Grid(1.0, 51)
        report = verify_no_pot_shape(spec, [1e-3, 1e-2, 1e-1], grid=grid, t_cap=t_cap)
        work = ReflectedPotential(spec) if isinstance(spec, LdpcBec) else spec
        labels = set()
        for cell in report.cells:
            sol = solve_stationary(work, cell.d, grid=grid, y0=cell.y0, t_cap=t_cap)
            assert cell.classification == sol.classification
            assert cell.residual == sol.residual
            assert cell.first_integral_constant == sol.first_integral_constant
            labels.add(cell.classification)
        assert labels == ({UNIFORM} if t_cap > 30.0 else {UNIFORM, OTHER})

    def test_capped_runs_do_not_pass(self):
        # at t_cap = 1 no run is steady: no cell is pot-shaped, none is an answer
        report = verify_no_pot_shape(DoubleWell(0.05), [0.01], grid=Grid(1.0, 51), t_cap=1.0)
        assert [c.classification for c in report.cells] == [OTHER] * 3
        assert report.passed is False

    def test_metastable_boundary_rejected(self):
        with pytest.raises(HypothesisError):
            verify_no_pot_shape(DoubleWell(-0.05), d_list=[0.01])

    def test_ldpc_reflected_sweep(self):
        maxwell = equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.43, 0.6))
        spec = LdpcBec(maxwell - 0.01, 3, 6)
        report = verify_no_pot_shape(spec, d_list=[0.005], grid=Grid(1.0, 101))
        assert report.orientation == "reflected"
        assert report.passed
