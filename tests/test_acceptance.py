"""End-to-end acceptance suite: one test per shipped capability, run with
`pytest -v` to get a single pass/fail line per criterion.  Reference values
are either trivial identities or recomputed here by independent oracles."""
import time

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from coupled_dynamics import (
    ConstantCoupling,
    DoubleWell,
    Grid,
    LdpcBec,
    Profile,
    bp_threshold,
    equal_height_parameter,
    find_stationary_points,
    first_integral,
    integrate,
    quadrature_reconstruct,
    refine_profile,
    simulate_discrete_chain,
    solve_stationary,
)
from coupled_dynamics.bifurcation import critical_curve, sweep
from coupled_dynamics.stationary import POT_SHAPED, UNIFORM, verify_no_pot_shape

D_FIG2 = 0.01
GRID_201 = Grid(1.0, 201)


@pytest.fixture(scope="module")
def fig2_uniform():
    spec = DoubleWell(0.01)
    t0 = time.perf_counter()
    sol = solve_stationary(spec, D_FIG2, grid=GRID_201)
    return spec, sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig2_pot():
    spec = DoubleWell(-0.01)
    sol = solve_stationary(spec, D_FIG2, grid=GRID_201)
    return spec, sol


def test_criterion_01_uniform_branch(fig2_uniform):
    spec, sol, elapsed = fig2_uniform
    y_plus = find_stationary_points(spec).y_plus
    assert sol.steady
    assert np.max(np.abs(sol.profile.values - y_plus)) < 1e-3
    assert elapsed < 60.0


def test_criterion_02_pot_branch(fig2_pot):
    spec, sol = fig2_pot
    y_plus = find_stationary_points(spec).y_plus
    assert sol.classification == POT_SHAPED
    assert sol.profile.values[100] < y_plus - 0.1
    v = sol.profile.values
    assert np.max(np.abs(v - v[::-1])) < 1e-8
    fi = first_integral(sol, spec, D_FIG2)
    spread = float(fi.max() - fi.min())
    assert spread < 1e-4, (
        f"first-integral spread {spread:.3e} exceeds 1e-4: the profile should"
        " solve the fourth-order (Numerov) discretization to residual < 1e-9"
        " and the slope is fourth order, so the spread should be the O(dx^4)"
        " discretization error, ~8e-6 at n=201."
    )


def test_criterion_03_no_pot_shape_sweep():
    grid = Grid(1.0, 101)
    cells = []
    for h in (0.02, 0.05, 0.1):
        report = verify_no_pot_shape(
            DoubleWell(h), d_list=[1e-3, 1e-2, 1e-1], grid=grid
        )
        assert report.passed
        cells.extend(report.cells)
    assert len(cells) == 27
    assert sum(c.classification == POT_SHAPED for c in cells) == 0


def test_criterion_04_energy_monotone_randomized():
    rng = np.random.default_rng(20260824)
    for _ in range(50):
        h = rng.uniform(-0.1, 0.1)
        d = 10.0 ** rng.uniform(-3.0, -1.0)
        spec = DoubleWell(h)
        y0 = rng.uniform(*spec.domain)
        y_plus = find_stationary_points(spec).y_plus
        prof = Profile.uniform(GRID_201, y0, boundary_value=y_plus)
        rec = integrate(
            prof,
            spec,
            ConstantCoupling(d),
            t_end=5.0,
            snapshot_every=200,
            keep_snapshots=False,
        )
        H = np.array([e for _, e in rec.energies])
        assert np.all(np.diff(H) <= 1e-8), f"energy rose for h={h}, d={d}, y0={y0}"


def _de_oracle(dv, dc, tol):
    """Plain bisection over the scalar recursion, written independently."""

    def dies(eps):
        y = 1.0
        for _ in range(100_000):
            y_new = eps * (1.0 - (1.0 - y) ** (dc - 1)) ** (dv - 1)
            if abs(y_new - y) < 1e-12:
                break
            y = y_new
        return y_new < 1e-9

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if dies(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_05_bp_thresholds():
    got_36 = bp_threshold(3, 6)
    assert got_36 == pytest.approx(_de_oracle(3, 6, 1e-5), abs=2e-4)
    assert got_36 == pytest.approx(0.4294, abs=2e-4)
    # dv=2: linearizing the recursion at y=0 gives threshold 1/(dc-1)
    assert bp_threshold(2, 4) == pytest.approx(1.0 / 3.0, abs=2e-4)


def _ldpc_maxwell_oracle(dv, dc, lo=0.43, hi=0.6, tol=1e-6):
    """Grid-based equal-height bisection: potential by trapezoid quadrature."""
    ys = np.linspace(0.0, 1.0, 100_001)

    def nontrivial_min_height(eps):
        grad = ys - eps * (1.0 - (1.0 - ys) ** (dc - 1)) ** (dv - 1)
        u = cumulative_trapezoid(grad, ys, initial=0.0)
        return float(np.min(u[1:]))

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if nontrivial_min_height(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_06_equal_height_thresholds():
    assert equal_height_parameter(DoubleWell, (-0.1, 0.1)) == pytest.approx(
        0.0, abs=1e-10
    )
    got = equal_height_parameter(lambda e: LdpcBec(e, 3, 6), (0.43, 0.6))
    oracle = _ldpc_maxwell_oracle(3, 6)
    print(f"equal-height threshold (3,6): {got:.7f} (oracle {oracle:.7f})")
    assert got == pytest.approx(oracle, abs=1e-4)


def test_criterion_07_quadrature_matches_relaxation(fig2_pot):
    spec, sol = fig2_pot
    rebuilt = quadrature_reconstruct(
        spec,
        D_FIG2,
        sol.first_integral_constant,
        float(sol.profile.values[100]),
        grid=GRID_201,
    )
    assert np.max(np.abs(rebuilt.values - sol.profile.values)) < 5e-3


def test_criterion_08_discrete_chain_matches_pde(fig2_uniform, fig2_pot, fig2_pot_chain):
    spec, uniform, _ = fig2_uniform
    y_minus = find_stationary_points(spec).y_minus
    uniform_chain = simulate_discrete_chain(201, spec, D_FIG2, y_minus, t_end=2e4)
    for chain, sol in ((uniform_chain, uniform), (fig2_pot_chain, fig2_pot[1])):
        assert np.max(np.abs(chain - sol.profile.values)) < 1e-2


def test_criterion_09_bifurcation_curve_qualitative():
    grid = Grid(1.0, 101)
    # consistency with the two reference outcomes at d=0.01
    cells = sweep([0.01], [-0.01, 0.01], grid=grid, t_cap=1e4)
    assert cells[0].classification == POT_SHAPED
    assert cells[1].classification == UNIFORM
    # resolvable part of the curve: -h_crit grows with the coupling constant
    curve = critical_curve(
        [0.05, 0.1], h_bracket=(-0.3, -1e-3), tol=1e-3, grid=grid
    )
    assert all(pt.error is None for pt in curve)
    neg_h = [-pt.h_crit for pt in curve]
    assert 0.0 < neg_h[0] < neg_h[1]
    # -h_crit collapses toward zero as the coupling shrinks: pot-shaped
    # outcomes persist at a tilt far below the d=0.05 critical value
    small = sweep([0.001, 0.01], [-1e-4], grid=grid, t_cap=2e4)
    assert all(c.classification == POT_SHAPED for c in small)
    assert 1e-4 < neg_h[0]


def test_criterion_10_grid_convergence(fig2_uniform, fig2_pot):
    floor = 1e-12
    for spec, sol in (fig2_uniform[:2], fig2_pot):
        changes = []
        prev = sol
        for n in (401, 801, 1601):
            fine = refine_profile(prev, spec, D_FIG2, Grid(1.0, n))
            assert fine.classification == prev.classification
            changes.append(
                float(np.max(np.abs(fine.profile.values[::2] - prev.profile.values)))
            )
            prev = fine
        for before, after in zip(changes, changes[1:]):
            assert after < 4.0 * before + floor
            assert after < before or (before < floor and after < floor)
