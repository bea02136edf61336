import numpy as np
import pytest

from coupled_dynamics import bifurcation
from coupled_dynamics.bifurcation import (
    critical_curve,
    default_sweep_box,
    sweep,
)
from coupled_dynamics.pde import Grid
from coupled_dynamics.potentials import DoubleWell
from coupled_dynamics.stationary import POT_SHAPED, UNIFORM, solve_stationary

GRID = Grid(1.0, 101)


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

    def test_monotone_in_tilt_at_fixed_coupling(self):
        h_values = [-0.02, -0.08, -0.15, -0.2]
        cells = sweep([0.1], h_values, grid=GRID, t_cap=5e3)
        labels = [c.classification for c in cells]
        # once pot-shaped in the -h direction, stays pot-shaped
        first_pot = labels.index(POT_SHAPED)
        assert all(l == UNIFORM for l in labels[:first_pot])
        assert all(l == POT_SHAPED for l in labels[first_pot:])

    def test_jobs_deterministic_order(self):
        serial = sweep([0.1], [-0.02, -0.2], grid=GRID, t_cap=2e3)
        parallel = sweep([0.1], [-0.02, -0.2], grid=GRID, t_cap=2e3, jobs=2)
        assert [(c.d, c.h, c.classification) for c in serial] == [
            (c.d, c.h, c.classification) for c in parallel
        ]

    @pytest.mark.parametrize("jobs, cells, workers", [(64, 1, None), (64, 3, 3), (2, 3, 2)])
    def test_pool_capped_at_cell_count(self, monkeypatch, jobs, cells, workers):
        # A stand-in pool that records its size and maps serially, so no
        # process is started; None means the serial path ran without a pool.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(bifurcation, "ProcessPoolExecutor", FakePool)
        h_values = [-0.02, -0.05, -0.2][:cells]
        got = sweep([0.1], h_values, grid=GRID, t_cap=2e3, jobs=jobs)
        assert sizes == ([] if workers is None else [workers])
        assert got == sweep([0.1], h_values, grid=GRID, t_cap=2e3)

    def test_default_box(self):
        d_values, h_values = default_sweep_box()
        assert len(d_values) == 13 and len(h_values) == 21
        assert d_values[0] == pytest.approx(1e-3) and d_values[-1] == pytest.approx(0.1)
        assert h_values.min() == pytest.approx(-0.1) and h_values.max() == 0.0


class TestCriticalCurve:
    def test_value_at_strong_coupling(self):
        curve = critical_curve(
            [0.1], h_bracket=(-0.3, -0.01), tol=5e-3, grid=GRID, t_cap=5e3
        )
        assert curve[0].error is None
        assert -0.15 < curve[0].h_crit < -0.08

    def test_bracketing_error_reported(self):
        # at d=0.02 both bracket ends are already pot-shaped
        curve = critical_curve(
            [0.02], h_bracket=(-0.05, -0.01), tol=5e-3, grid=GRID, t_cap=5e3
        )
        assert curve[0].error is not None
        assert np.isnan(curve[0].h_crit)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            critical_curve([0.1], h_bracket=(-0.3, -0.01), tol=tol, grid=GRID)

    def test_small_coupling_bound(self):
        # -h_crit collapses toward 0 as d shrinks: still pot-shaped at -h=0.01
        cells = sweep([0.001, 0.01], [-0.01], grid=GRID, t_cap=5e3)
        assert all(c.classification == POT_SHAPED for c in cells)


class TestRefinement:
    def test_classification_survives_refinement(self):
        spec = DoubleWell(-0.05)
        coarse = solve_stationary(spec, 0.1, grid=Grid(1.0, 101), t_cap=5e3)
        fine = solve_stationary(spec, 0.1, grid=Grid(1.0, 201), t_cap=5e3)
        assert coarse.classification == fine.classification == UNIFORM
