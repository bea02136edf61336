import concurrent.futures

import numpy as np
import pytest

from coupled_dynamics import bifurcation
from coupled_dynamics.bifurcation import (
    critical_curve,
    default_sweep_box,
    sweep,
)
from coupled_dynamics.pde import Grid
from coupled_dynamics.potentials import DoubleWell, brent_root
from coupled_dynamics.stationary import OTHER, POT_SHAPED, UNIFORM, solve_stationary

GRID = Grid(1.0, 101)


def _fake_pool(monkeypatch):
    """Stand in for ProcessPoolExecutor with a pool that records its size and
    the stacks it is given, and maps serially, so no process is started."""
    sizes, stacks = [], []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells, *iterables):
            cells = list(cells)
            stacks.extend(cells)
            return map(fn, cells, *iterables)

    # sweep imports the pool class from concurrent.futures only when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes, stacks


class TestSweep:
    def test_fig2_cells(self):
        cells = sweep([0.01], [-0.01, 0.01], grid=GRID, t_cap=5e3)
        by_h = {c.h: c.classification for c in cells}
        assert by_h[-0.01] == POT_SHAPED
        assert by_h[0.01] == UNIFORM

    def test_non_bistable_cell_recorded(self):
        cells = sweep([0.01], [-0.5, 0.01], grid=GRID, t_cap=5e3)
        assert cells[0].error is not None
        assert cells[0].classification is None
        assert cells[1].classification == UNIFORM

    def test_t_cap_checked_without_a_bistable_tilt(self):
        # h = 0.5 is not bistable, so no cell relaxes; t_cap is checked anyway
        with pytest.raises(ValueError, match="t_cap must be finite and >= 0, got nan"):
            sweep([0.01], [0.5], grid=GRID, t_cap=np.nan)

    def test_capped_cell_is_unresolved(self):
        # h = 0, d = 0.001: the symmetric kink pair drifts far slower than t_cap
        (cell,) = sweep([0.001], [0.0], grid=GRID, t_cap=50.0)
        assert cell.classification == bifurcation.UNRESOLVED
        assert cell.t_exit == 50.0
        assert cell.error is None

    def test_monotone_in_tilt_at_fixed_coupling(self):
        h_values = [-0.02, -0.08, -0.15, -0.2]
        cells = sweep([0.1], h_values, grid=GRID, t_cap=5e3)
        labels = [c.classification for c in cells]
        # once pot-shaped in the -h direction, stays pot-shaped
        first_pot = labels.index(POT_SHAPED)
        assert all(l == UNIFORM for l in labels[:first_pot])
        assert all(l == POT_SHAPED for l in labels[first_pot:])


    # Tilts by position: 0.0 and -0.0 are two tilts, as are the two -0.05;
    # h = 0.5 is not bistable.  At h = 0, d = 0.001 runs to t_cap.
    STACK_D = [0.001, 0.01, 0.05]
    STACK_H = [0.0, -0.0, -0.05, 0.5, -0.05]

    def test_cells_equal_solo_solves(self):
        # the bistable cells relax in one stack; every cell equals its own
        # solve_stationary exactly, in label and t_exit
        cells = sweep(self.STACK_D, self.STACK_H, grid=GRID)
        expected = [(d, h) for d in self.STACK_D for h in self.STACK_H]
        assert [(c.d, c.h) for c in cells] == expected
        assert [np.copysign(1.0, c.h) for c in cells] == [
            np.copysign(1.0, h) for _, h in expected
        ]
        for cell in cells:
            if cell.h == 0.5:
                assert cell.classification is None and cell.error is not None
                continue
            sol = solve_stationary(DoubleWell(cell.h), cell.d, grid=GRID, t_cap=1e4)
            label = sol.classification
            if label == OTHER:
                label = bifurcation.UNRESOLVED
            assert (cell.classification, cell.t_exit) == (label, sol.t_exit)
        capped = cells[0]
        assert (capped.classification, capped.t_exit) == (bifurcation.UNRESOLVED, 1e4)

    def test_jobs_deterministic_order(self):
        # the pool maps stacks of cells; every field, t_exit included, matches
        serial = sweep(self.STACK_D, self.STACK_H, grid=GRID, t_cap=3e3)
        assert sweep(self.STACK_D, self.STACK_H, grid=GRID, t_cap=3e3, jobs=2) == serial

    def test_empty_coupling_list(self):
        assert sweep([], [0.0, -0.05], grid=GRID) == []

    @pytest.mark.parametrize("jobs, cells, workers", [(64, 1, None), (64, 3, 3), (2, 3, 2)])
    def test_pool_capped_at_cell_count(self, monkeypatch, jobs, cells, workers):
        # None means the serial path ran without a pool
        sizes, _ = _fake_pool(monkeypatch)
        h_values = [-0.02, -0.05, -0.2][:cells]
        got = sweep([0.1], h_values, grid=GRID, t_cap=2e3, jobs=jobs)
        assert sizes == ([] if workers is None else [workers])
        assert got == sweep([0.1], h_values, grid=GRID, t_cap=2e3)

    def test_jobs_split_cells_into_contiguous_stacks(self, monkeypatch):
        # 10 cells on jobs = 3: at most 3 stacks, which laid end to end hold
        # the cells in output order (str tells -0.0 from 0.0)
        d_values, h_values = [0.01, 0.05], [-0.1, -0.05, -0.0, 0.0, -0.05]
        sizes, stacks = _fake_pool(monkeypatch)
        got = sweep(d_values, h_values, grid=GRID, t_cap=2e3, jobs=3)
        assert sizes == [3] and 1 <= len(stacks) <= 3
        assert [(d, str(spec.h)) for stack in stacks for spec, d, _ in stack] == [
            (d, str(h)) for d in d_values for h in h_values
        ]
        assert got == sweep(d_values, h_values, grid=GRID, t_cap=2e3)

    # the near-fold scan: (PotShaped, Uniform, Unresolved) cells per (d, t_cap)
    NEAR_FOLD = {
        (0.01, 300.0): (0, 0, 26), (0.01, 3e3): (3, 0, 23), (0.01, 1e4): (9, 0, 17),
        (0.05, 300.0): (10, 1, 27), (0.05, 3e3): (12, 26, 0), (0.05, 1e4): (12, 26, 0),
        (0.1, 300.0): (12, 8, 18), (0.1, 3e3): (20, 12, 6), (0.1, 1e4): (20, 12, 6),
    }

    def test_near_fold_scan(self):
        # the 306 negative tilts within 3e-4 (25 tilts) and 3e-6 (13) of the
        # time map's fold h_f, relaxed on 101 nodes to three t_caps, label as
        # pinned; d = 0.003 adds no cell, as its fold lies above the bracket
        # end -1e-5, where critical_curve reports no fold
        bracket = (-0.3, -1e-5)
        assert np.isnan(critical_curve([0.003], h_bracket=bracket, tol=1e-9)[0].h_crit)
        offsets = np.concatenate([np.linspace(-3e-4, 3e-4, 25), np.linspace(-3e-6, 3e-6, 13)])
        labels = (POT_SHAPED, UNIFORM, bifurcation.UNRESOLVED)
        counts = {}
        for d in (0.01, 0.05, 0.1):
            hs = critical_curve([d], h_bracket=bracket, tol=1e-9)[0].h_crit + offsets
            for t_cap in (300.0, 3e3, 1e4):
                cells = sweep([d], hs[hs < 0], grid=GRID, t_cap=t_cap)
                got = [cell.classification for cell in cells]
                counts[d, t_cap] = tuple(got.count(label) for label in labels)
        assert counts == self.NEAR_FOLD
        assert sum(map(sum, counts.values())) == 306

    def test_default_box(self):
        d_values, h_values = default_sweep_box()
        assert len(d_values) == 13 and len(h_values) == 21
        assert d_values[0] == pytest.approx(1e-3) and d_values[-1] == pytest.approx(0.1)
        assert h_values.min() == pytest.approx(-0.1) and h_values.max() == 0.0


class TestCriticalCurve:
    def test_value_at_strong_coupling(self):
        curve = critical_curve(
            [0.1], h_bracket=(-0.3, -0.01), tol=5e-3, grid=GRID
        )
        assert curve[0].error is None
        assert -0.15 < curve[0].h_crit < -0.08

    def test_bracketing_error_reported(self):
        # at d=0.02 both bracket ends are already pot-shaped
        curve = critical_curve(
            [0.02], h_bracket=(-0.05, -0.01), tol=5e-3, grid=GRID
        )
        assert curve[0].error is not None
        assert np.isnan(curve[0].h_crit)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            critical_curve([0.1], h_bracket=(-0.3, -0.01), tol=tol, grid=GRID)

    @pytest.mark.parametrize(
        "d, bracket, h_fold",
        [
            (0.1, (-0.3, -1e-3), -0.1200722563),
            (0.05, (-0.3, -1e-3), -0.02423974063850),
            (0.02, (-0.3, -1e-5), -7.072242767e-4),
            (0.01, (-0.3, -1e-7), -1.15025699e-5),
        ],
    )
    def test_continuum_fold(self, d, bracket, h_fold):
        (pt,) = critical_curve([d], h_bracket=bracket, tol=1e-12)
        assert pt.error is None
        assert abs(pt.h_crit - h_fold) < 1e-9
        assert abs(pt.h_crit / h_fold - 1.0) < 1e-7

    def test_fold_depends_on_d_over_x_max_squared(self):
        # x -> x / x_max maps coupling d on [-x_max, x_max] to d / x_max^2
        (wide,) = critical_curve([0.2], tol=1e-12, grid=Grid(2.0, 101))
        (unit,) = critical_curve([0.05], tol=1e-12)
        assert abs(wide.h_crit / unit.h_crit - 1.0) < 1e-10

    def test_fold_between_discretizations_resolves(self):
        # relaxation on Grid(1, 101) leaves cells Unresolved within about 9e-6
        # of this fold, where its 3-point and Numerov folds differ; the time
        # map has no grid
        (pt,) = critical_curve([0.1], tol=1e-6, grid=GRID)
        assert pt.error is None
        assert abs(pt.h_crit - -0.1200722563) < 1e-6

    @pytest.mark.parametrize("d", [0.05, 0.1])
    def test_relaxation_labels_either_side_of_fold(self, d):
        (pt,) = critical_curve([d], tol=1e-10)
        cells = sweep([d], [pt.h_crit - 1e-4, pt.h_crit + 1e-4], grid=Grid(1.0, 401))
        assert [c.classification for c in cells] == [POT_SHAPED, UNIFORM]

    def test_numerov_grid_fold_converges_at_fourth_order(self):
        # test-side oracle: the fold of the Numerov discretization on n
        # nodes, where the largest end value of the symmetric march from the
        # center, max over y_c of y(x_max) - y_plus, crosses zero
        d = 0.05
        (pt,) = critical_curve([d], tol=1e-15)
        errors = [abs(_numerov_fold(d, n, pt.h_crit) - pt.h_crit) for n in (51, 101, 201)]
        assert errors[2] < 3e-9
        for coarse, fine in zip(errors, errors[1:]):
            assert 14.0 < coarse / fine < 18.0

    def test_front_interaction_rate(self):
        # log|h_crit| falls like -sqrt(U''(+-1) / d) = -sqrt(2 / d) (Carr &
        # Pego, Comm. Pure Appl. Math. 42, 1989)
        d = np.geomspace(0.0032, 0.0147, 6)
        curve = critical_curve(d, h_bracket=(-0.3, -1e-13), tol=1e-14)
        assert all(pt.error is None for pt in curve)
        log_h = np.log([-pt.h_crit for pt in curve])
        slope = np.polyfit(1.0 / np.sqrt(d), log_h, 1)[0]
        assert abs(slope / -np.sqrt(2.0) - 1.0) < 0.01

    @pytest.mark.parametrize("d", [0.0, -0.1])
    def test_nonpositive_coupling_rejected(self, d):
        with pytest.raises(ValueError, match="coupling constant must be positive"):
            critical_curve([d])

    @pytest.mark.parametrize("d", [np.nan, np.inf])
    def test_non_finite_coupling_rejected_before_time_map(self, d, monkeypatch):
        def no_time_map(h):
            raise AssertionError("time map evaluated before the couplings were checked")

        monkeypatch.setattr(bifurcation, "_min_pot_time", no_time_map)
        with pytest.raises(ValueError, match="coupling constant must be positive"):
            critical_curve([0.05, d])

    @pytest.mark.parametrize("bracket", [(-0.5, -0.01), (-0.3, 0.0), (-0.3, -1e-14)])
    def test_bracket_outside_resolved_range_reported(self, bracket):
        curve = critical_curve([0.05, 0.1], h_bracket=bracket)
        assert all(pt.error is not None and np.isnan(pt.h_crit) for pt in curve)

    def test_small_coupling_bound(self):
        # -h_crit collapses toward 0 as d shrinks: still pot-shaped at -h=0.01
        cells = sweep([0.001, 0.01], [-0.01], grid=GRID, t_cap=5e3)
        assert all(c.classification == POT_SHAPED for c in cells)


def _reference_min_pot_time(h):
    """Test-side reference for `_min_pot_time`: 9 stages of 32 centers, each
    zooming on the two cells around the least sample, and the least sample
    of the last stage."""
    y_minus, _, y_plus = np.sort(np.roots([1.0, 0.0, -1.0, -h]).real)
    lo, hi = y_minus, np.sqrt(2.0 * (1.0 - y_plus**2)) - y_plus  # U(hi) = U(y_plus)
    for _ in range(9):
        yc = np.linspace(lo, hi, 34)
        tau = bifurcation._pot_time(yc[1:-1], h, y_plus)
        i = int(np.argmin(tau))
        lo, hi = yc[i], yc[i + 2]
    return float(tau.min())


def _count_pot_time(monkeypatch, pot_time=bifurcation._pot_time):
    """Route `_pot_time` through `pot_time`, recording each call's centers."""
    calls = []

    def counted(centers, h, y_plus):
        calls.append(np.array(centers))
        return pot_time(centers, h, y_plus)

    monkeypatch.setattr(bifurcation, "_pot_time", counted)
    return calls


class TestMinPotTime:
    @pytest.mark.parametrize("h, rel", [
        (-0.38, 1e-12), (-0.1, 1e-12), (-0.0242, 1e-12), (-1e-3, 1e-12),
        (-1e-5, 1e-10), (-1e-7, 1e-8),
    ])
    def test_matches_reference_within_budget(self, monkeypatch, h, rel):
        # a search that misses the minimum is off by 1e-3 or more; near
        # h = 0 rounding of U(y_plus) - U(y_c), about 2|h|, sets the bound
        reference = _reference_min_pot_time(h)
        calls = _count_pot_time(monkeypatch)
        value = bifurcation._min_pot_time(h)
        assert abs(value / reference - 1.0) < rel
        assert len(calls) <= 3
        assert sum(len(c) for c in calls) <= 22

    def test_non_convex_triple_returns_least_sample(self, monkeypatch):
        # samples linear in y_c: the first triple is not convex, so the
        # search stops after one stage with its least sample
        calls = _count_pot_time(monkeypatch, lambda centers, h, y_plus: 2.0 + centers)
        value = bifurcation._min_pot_time(-0.1)
        assert len(calls) == 1
        assert value == 2.0 + calls[0].min()


def _numerov_march_end(yc, h, d, dx, steps):
    """y at x = steps * dx of the Numerov march of d y'' = U'(y) for
    DoubleWell(h) from y(0) = yc, y'(0) = 0, for an array of centers; each
    implicit step is solved by Newton."""

    def grad(y):
        return y * y * y - y - h

    k = dx * dx / (12.0 * d)
    prev = yc
    cur = yc.copy()  # y[1] = y[-1]: 2 (y1 - y0) = k (2 U'(y1) + 10 U'(y0))
    for _ in range(8):
        cur = cur - (2.0 * (cur - yc) - k * (2.0 * grad(cur) + 10.0 * grad(yc))) / (
            2.0 - 2.0 * k * (3.0 * cur * cur - 1.0)
        )
    for _ in range(steps - 1):
        rhs = 2.0 * cur - prev + k * (10.0 * grad(cur) + grad(prev))
        nxt = 2.0 * cur - prev
        for _ in range(4):  # from the O(dx^2) guess, four steps reach rounding
            nxt = nxt - (nxt - k * grad(nxt) - rhs) / (1.0 - k * (3.0 * nxt * nxt - 1.0))
        # a trajectory far past y_plus only has to stay past it
        prev, cur = cur, np.minimum(nxt, 3.0)
    return cur


def _numerov_fold(d, n, h_guess):
    """Fold in h of the pot branch of the n-node Numerov problem on [-1, 1]."""
    steps = (n - 1) // 2

    def largest_excess(h):
        y_minus, _, y_plus = np.sort(np.roots([1.0, 0.0, -1.0, -h]).real)
        lo, hi = y_minus, np.sqrt(2.0 * (1.0 - y_plus**2)) - y_plus  # U(hi) = U(y_plus)
        for _ in range(6):
            yc = np.linspace(lo, hi, 18)
            excess = _numerov_march_end(yc[1:-1], h, d, 1.0 / steps, steps) - y_plus
            i = int(np.argmax(excess))
            lo, hi = yc[i], yc[i + 2]
        e0, e1, e2 = excess[i - 1 : i + 2]
        return e1 - (e2 - e0) ** 2 / (8.0 * (e2 - 2.0 * e1 + e0))

    return brent_root(largest_excess, 1.01 * h_guess, 0.99 * h_guess, 1e-15)


class TestRefinement:
    def test_classification_survives_refinement(self):
        spec = DoubleWell(-0.05)
        coarse = solve_stationary(spec, 0.1, grid=Grid(1.0, 101), t_cap=5e3)
        fine = solve_stationary(spec, 0.1, grid=Grid(1.0, 201), t_cap=5e3)
        assert coarse.classification == fine.classification == UNIFORM
