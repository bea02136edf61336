"""Stationary boundary-value analysis of the pinned coupled system.

Stationary profiles satisfy 0 = -U'(y) + D y'' with y(+-x_max) pinned at the
largest stable point.  This module finds them by relaxation (error-controlled
linearly implicit Euler steps of the pinned gradient flow, finished by Newton
on its linear tail, whose fixed points are those of the second-order stencil)
followed by a Newton polish on the fourth-order Numerov discretization

    D (y[i+1] - 2 y[i] + y[i-1]) / dx^2 = (U'[i+1] + 10 U'[i] + U'[i-1]) / 12,

whose residual is the one every `residual` in this module measures; the
same polish re-converges a profile moved to a finer grid by linear
interpolation.  It classifies pot-shaped versus uniform outcomes, checks the
first integral (D/2) y'^2 - U(y) with fourth-order slopes, reconstructs
profiles by quadrature from the first-integral constant, and runs the sweep
that numerically confirms the absence of pot-shaped solutions when the
boundary point is the unique global minimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .pde import (
    DEFAULT_STEADY_TOL,
    Grid,
    Profile,
    _per_object,
    _relax,
    _stack_potential,
    check_coupling,
    check_time,
)
from .potentials import LdpcBec, Potential, ReflectedPotential, find_stationary_points

POT_TOL = 1e-3
SLOPE_TOL = 1e-8
# Nodes in theta of `quadrature_reconstruct`'s cosine-substituted quadrature,
# and its slope-zero clamp, relative to the largest |U + C| on the range.
_QUAD_NODES = 8001
_CLAMP_REL = 1e-3

UNIFORM = "Uniform"
POT_SHAPED = "PotShaped"
OTHER = "Other"


class NotSteadyError(RuntimeError):
    """Profile fed to a stationary-only operation is not stationary."""


class HypothesisError(ValueError):
    """Boundary point is not the unique global minimum of the potential."""


class ReconstructionInfeasibleError(RuntimeError):
    """U(y) + C <= 0 strictly inside the quadrature range; no monotone
    stationary branch can connect the center value to the boundary."""


@dataclass
class StationarySolution:
    profile: Profile
    classification: str
    first_integral_constant: float
    residual: float
    steady: bool
    t_exit: float


def _numerov_system(
    y: np.ndarray, spec: Potential, d: float | np.ndarray, dx: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fourth-order (Numerov 1924) residual of 0 = -U'(y) + D y'' at the
    interior nodes and its tridiagonal Jacobian in `solve_banded` layout.

    The residual D (y[i+1] - 2 y[i] + y[i-1]) / dx^2 - (U'[i+1] + 10 U'[i] +
    U'[i-1]) / 12 carries the units of -U' + D y'' and is O(dx^4) on a smooth
    solution; U'' is the family's exact `curvature_unchecked`.  The gradient
    is domain-checked, so a y outside the domain raises DomainError.  y may
    also be a stack of profiles, one per row, with `spec` and d broadcasting
    over the rows; the residual then has one row per profile and the
    Jacobian holds one band per row, (3, rows, n - 2), which flattens to the
    stack's system: each row's corner entries are zero, so no row couples to
    the next.
    """
    g = np.asarray(spec.gradient(y))
    res = d * (y[..., 2:] - 2.0 * y[..., 1:-1] + y[..., :-2]) / dx**2 - (
        g[..., 2:] + 10.0 * g[..., 1:-1] + g[..., :-2]
    ) / 12.0
    u2 = spec.curvature_unchecked(y[..., 1:-1])
    off = d / dx**2 - u2 / 12.0
    jac = np.zeros((3,) + u2.shape)
    jac[0, ..., 1:] = off[..., 1:]
    jac[1] = -2.0 * d / dx**2 - 10.0 * u2 / 12.0
    jac[2, ..., :-1] = off[..., :-1]
    return res, jac


def _stationary_residual(profile: Profile, spec: Potential, d: float) -> float:
    """Max-norm of the fourth-order (Numerov) stationary residual."""
    res, _ = _numerov_system(profile.values, spec, d, profile.grid.dx)
    return float(np.max(np.abs(res)))


def classify_profile(profile: Profile) -> str:
    """Apply the discrete pot-shape predicate against the pinned boundary
    value y_b = profile.boundary_value: profiles within POT_TOL of y_b are
    uniform; a center dip of at least POT_TOL below y_b with halves monotone
    to within SLOPE_TOL is pot-shaped; anything else is Other."""
    y = profile.values
    y_b = profile.boundary_value
    if float(np.max(np.abs(y - y_b))) < POT_TOL:
        return UNIFORM
    center = (len(y) - 1) // 2
    dips = y[center] < y_b - POT_TOL
    left, right = np.diff(y[: center + 1]), np.diff(y[center:])
    monotone = bool(np.all(left <= SLOPE_TOL) and np.all(right >= -SLOPE_TOL))
    if dips and monotone:
        return POT_SHAPED
    return OTHER


# Fourth-order first-derivative weights on five equispaced nodes (Fornberg,
# Math. Comp. 51, 1988), in units of 1/dx: at the first node, and at the
# second node, of a run of five.
_END_WEIGHTS = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_NEAR_END_WEIGHTS = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _slopes(profile: Profile) -> np.ndarray:
    """Fourth-order y' at every node: 5-point central differences inside,
    one-sided 5-point stencils at the two end nodes and their neighbours."""
    y = profile.values
    s = np.empty_like(y)
    s[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / 12.0
    s[0] = _END_WEIGHTS @ y[:5]
    s[1] = _NEAR_END_WEIGHTS @ y[:5]
    s[-1] = -(_END_WEIGHTS @ y[:-6:-1])
    s[-2] = -(_NEAR_END_WEIGHTS @ y[:-6:-1])
    return s / profile.grid.dx


def _first_integral(profile: Profile, spec: Potential, d: float) -> np.ndarray:
    """(D/2) y'^2 - U(y) at every node, with fourth-order slopes."""
    return 0.5 * d * _slopes(profile) ** 2 - np.asarray(spec.potential(profile.values))


def _solution(
    profile: Profile, spec: Potential, d: float, t_exit: float, residual: Optional[float]
) -> StationarySolution:
    """The report on a solved profile: steady, and classified, when its
    Numerov polish left `residual` below DEFAULT_STEADY_TOL, else Other; a
    profile never polished (residual None) is unsteady, its residual
    measured here.  The first-integral constant is (D/2) y'^2 - U(y) at the
    boundary node, the last entry of `_first_integral`."""
    steady = residual is not None and residual < DEFAULT_STEADY_TOL
    if residual is None:
        residual = _stationary_residual(profile, spec, d)
    slope = -(_END_WEIGHTS @ profile.values[:-6:-1]) / profile.grid.dx
    return StationarySolution(
        profile=profile,
        classification=classify_profile(profile) if steady else OTHER,
        first_integral_constant=float(
            0.5 * d * (slope * slope) - spec.potential(profile.boundary_value)
        ),
        residual=residual,
        steady=steady,
        t_exit=t_exit,
    )


def _newton_polish(
    profiles: Sequence[Profile],
    specs: Sequence[Potential],
    ds: Sequence[float],
    tol: float,
) -> list[float]:
    """Damped Newton on the fourth-order (Numerov) BVP for a stack of
    profiles on one grid, profile i under specs[i] and ds[i], in place;
    returns each profile's final max|residual|, below tol when it converged.

    Each row makes at most 30 iterations and stops once its residual is
    below tol; each iteration halves lambda from 1 until the row's residual
    falls, and the row fails when lambda drops past 1e-4.  The start, like
    every trial, is clipped into the domain: a relaxation that ends on a
    fixed point at the domain edge may overshoot it by a few ulps.

    The rows lie end to end in one array, under one potential
    (`pde._stack_potential`: the rows' own object when they share it, else
    their family with each float field one value per row) and one d per
    row.  Each iteration makes one `_numerov_system` call and one
    `solve_banded` call for the stack, whose couplings between rows are
    zero, so no pivot crosses from one row to the next; after a singular
    stacked system each row is solved alone, and only a singular row fails.
    Each trial round of the line searches is one `_numerov_system` call on
    the rows still searching.  A row leaves the stack once it converges or
    fails, so its result is bit-identical to polishing it alone.
    """
    from . import _lapack

    dx = profiles[0].grid.dx
    lo, hi = specs[0].domain

    def system(y, rows):  # _numerov_system of the stack of `rows` at y
        def spread(values):  # one value per row, broadcast over its nodes
            return np.array(values)[:, None]

        spec = _stack_potential([specs[i] for i in rows], spread)
        return _numerov_system(y, spec, spread([ds[i] for i in rows]), dx)

    y = np.array([p.values for p in profiles])
    y[:, 1:-1] = np.clip(y[:, 1:-1], lo, hi)
    res, jac = system(y, range(len(profiles)))
    norm = np.max(np.abs(res), axis=1)
    failed = np.zeros(len(profiles), dtype=bool)
    # each pass, every row still polishing takes one accepted step or fails
    for _ in range(30):
        rows = np.flatnonzero(~failed & ~(norm < tol))
        if not len(rows):
            break
        try:
            step = _lapack.solve_banded((1, 1), jac[:, rows].reshape(3, -1), -res[rows].ravel())
            step = step.reshape(len(rows), -1)
        except np.linalg.LinAlgError:  # solve each row alone; a singular one fails
            step = np.empty_like(res[rows])
            for k, i in enumerate(rows):
                try:
                    step[k] = _lapack.solve_banded((1, 1), jac[:, i], -res[i])
                except np.linalg.LinAlgError:
                    failed[i] = True
            step, rows = step[~failed[rows]], rows[~failed[rows]]
        lam = np.ones(len(rows))
        while len(rows):
            trial = y[rows]
            trial[:, 1:-1] = np.clip(trial[:, 1:-1] + lam[:, None] * step, lo, hi)
            res_t, jac_t = system(trial, rows)
            norm_t = np.max(np.abs(res_t), axis=1)
            better = norm_t < norm[rows]
            won = rows[better]
            y[won], res[won], jac[:, won], norm[won] = (
                trial[better], res_t[better], jac_t[:, better], norm_t[better]
            )
            rows, step, lam = rows[~better], step[~better], 0.5 * lam[~better]
            spent = ~(lam > 1e-4)
            failed[rows[spent]] = True
            rows, step, lam = rows[~spent], step[~spent], lam[~spent]
    for p, values in zip(profiles, y):
        p.values[1:-1] = values[1:-1]
    return norm.tolist()


def solve_stationary(
    spec: Potential,
    d: float,
    grid: Grid = Grid(),
    y0: Optional[float] = None,
    t_cap: float = 2e4,
) -> StationarySolution:
    """Relax the PDE on `grid` from a uniform state and classify the outcome.

    Constant coupling only.  The boundary value is the largest stable point
    of the potential; y0 defaults to the smallest stable point, and a y0
    outside spec.domain raises DomainError before any work.  Relaxation
    takes linearly implicit Euler steps, sized by their local error, toward
    the fixed point of the second-order stencil and finishes the linear tail
    by Newton on that stencil (`pde._relax`, a stack of one) until the
    residual is below DEFAULT_STEADY_TOL or the model time t_cap is reached.
    `t_exit` is the model time of the last accepted step plus, after a
    Newton finish, the tail's extrapolated decay time ln(residual /
    DEFAULT_STEADY_TOL) / lambda_1, lambda_1 the slowest decay rate at the
    fixed point, and never more than t_cap.  A steady relaxation is then
    Newton-polished on the fourth-order (Numerov) discretization until its
    residual is below DEFAULT_STEADY_TOL (`_newton_polish`, a stack of
    one); a run that hits t_cap is never polished.  `residual` reports the
    Numerov residual of the returned profile, and `steady` is True only when
    the polish converged; otherwise the classification is Other.  t_cap
    must be finite and >= 0, else ValueError before any work.
    """
    return _solve_cells([(spec, d, y0)], grid, t_cap)[0]


def _solve_cells(
    cells: Sequence[tuple[Potential, float, Optional[float]]],
    grid: Grid,
    t_cap: float,
) -> list[StationarySolution]:
    """`solve_stationary` for each (spec, d, y0) cell (y0 None: the smallest
    stable point of spec), every d and y0, and t_cap (finite and >= 0),
    checked before any work.  The cells relax in one stack, one potential
    per row (`pde._relax`), each distinct potential object's stationary
    points found once; the rows that end steady are polished in one stack
    (`_newton_polish`), and each cell is reported under its own potential,
    in order, with the residual its polish returned (measured anew only on
    a row never polished)."""
    check_time("t_cap", t_cap)
    for spec, d, y0 in cells:
        check_coupling(d)
        if y0 is not None:
            spec._check_domain(y0)
    specs = [spec for spec, _, _ in cells]
    starts = [
        Profile.uniform(grid, pts.y_minus if y0 is None else y0, boundary_value=pts.y_plus)
        for (_, _, y0), pts in zip(cells, _per_object(find_stationary_points, specs))
    ]
    ds = [d for _, d, _ in cells]
    relaxed = _relax(starts, specs, ds, t_cap)
    steady = [i for i, (_, residual, _) in enumerate(relaxed) if residual < DEFAULT_STEADY_TOL]
    polished = steady and _newton_polish(
        [relaxed[i][0] for i in steady],
        [specs[i] for i in steady],
        [ds[i] for i in steady],
        DEFAULT_STEADY_TOL,
    )
    residuals = dict(zip(steady, polished))
    return [
        _solution(final, spec, d, t_exit, residuals.get(i))
        for i, (spec, d, (final, _, t_exit)) in enumerate(zip(specs, ds, relaxed))
    ]


def refine_profile(
    solution: StationarySolution, spec: Potential, d: float, grid: Grid
) -> StationarySolution:
    """Transfer a stationary solution to a finer grid and re-converge it.

    The profile is moved by linear interpolation and polished, a stack of
    one, by the damped Newton pass on the fourth-order (Numerov)
    discretization (`_newton_polish`), which
    removes the transfer error and is far cheaper than relaxing anew on fine
    grids; `residual` is the Numerov residual.  Intended for
    grid-convergence studies.
    """
    check_coupling(d)
    src = solution.profile
    vals = np.interp(grid.x, src.grid.x, src.values)
    new = Profile(grid, vals, boundary_value=src.boundary_value)
    (residual,) = _newton_polish([new], [spec], [d], DEFAULT_STEADY_TOL)
    if not residual < DEFAULT_STEADY_TOL:
        raise NotSteadyError(
            f"Newton polish failed to reach residual {DEFAULT_STEADY_TOL:g} on the"
            f" refined grid (n={grid.n_points})"
        )
    return _solution(new, spec, d, 0.0, residual)


def first_integral(
    solution: StationarySolution, spec: Potential, d: float
) -> np.ndarray:
    """(D/2) y'^2 - U(y) at every interior node, for constancy checks.

    The profile must solve the fourth-order (Numerov) discretization to a
    residual below DEFAULT_STEADY_TOL, the test `solve_stationary` and
    `refine_profile` polish to, else NotSteadyError.  The slope is fourth
    order too, so on a solved profile the spread of the returned values is
    O(dx^4).
    """
    residual = _stationary_residual(solution.profile, spec, d)
    if not residual < DEFAULT_STEADY_TOL:
        raise NotSteadyError(
            f"profile is not stationary (residual {residual:.3g}"
            f" >= {DEFAULT_STEADY_TOL:g})"
        )
    return _first_integral(solution.profile, spec, d)[1:-1]


def quadrature_reconstruct(
    spec: Potential,
    d: float,
    c_const: float,
    y_at_origin: float,
    grid: Grid = Grid(),
) -> Profile:
    """Rebuild a symmetric stationary profile from its first-integral constant.

    Integrates dx = sqrt(D/2) dy / sqrt(U(y) + C) upward from the center
    value y_c to the boundary value y_b and inverts the monotone map x(y)
    onto `grid`.  One cosine substitution y = y_c + (y_b - y_c)(1 - cos
    theta)/2 over theta in [0, pi], summed at midpoints, covers both ends:
    sin theta cancels the integrable 1/sqrt of a simple zero of U + C, and at
    a double zero (the heteroclinic case) x grows without bound.  Raises
    ReconstructionInfeasibleError when U + C dips below zero strictly inside
    the range, which is exactly the obstruction ruling out pot shapes when
    the boundary point is the unique global minimum.
    """
    check_coupling(d)
    y_b = find_stationary_points(spec).y_plus
    if abs(y_at_origin - y_b) < 1e-12:
        return Profile.uniform(grid, y_b)
    if y_at_origin > y_b:
        raise ValueError("y_at_origin must not exceed the boundary value")

    # A center value measured from a computed profile carries discretization
    # error in C, so |U + C| at the center below _CLAMP_REL of its largest
    # value over the range is the slope-zero (smooth) case.  At a heteroclinic
    # end (C = -U(y_b), center between the barrier and y_b) U + C is largest
    # at the center, so it is never clamped.
    probe = np.linspace(y_at_origin, y_b, 4001)
    u_probe = np.asarray(spec.potential(probe))
    g0 = u_probe[0] + c_const
    clamp_tol = _CLAMP_REL * float(np.max(np.abs(u_probe + c_const)))
    if g0 < -clamp_tol:
        raise ReconstructionInfeasibleError(
            f"U + C = {g0:.3g} < 0 at the center value"
        )
    c_eff = -u_probe[0] if abs(g0) <= clamp_tol else c_const

    def g_eff(y):
        return np.asarray(spec.potential(y)) + c_eff

    gp = u_probe[1:-1] + c_eff
    if np.any(gp <= 0.0):
        bad = float(probe[1:-1][np.argmin(gp)])
        raise ReconstructionInfeasibleError(
            f"U + C <= 0 at y = {bad:.6g} strictly inside ({y_at_origin:.6g},"
            f" {y_b:.6g}); no monotone stationary branch exists"
        )

    span = y_b - y_at_origin

    def y_of(theta):
        return y_at_origin + 0.5 * span * (1.0 - np.cos(theta))

    theta = np.linspace(0.0, np.pi, _QUAD_NODES)
    mid = 0.5 * (theta[1:] + theta[:-1])
    # Next to a double zero at y_b, U + C rounds to <= 0 at the last
    # midpoints; clamped at 0 they add x = inf, as the heteroclinic tail does.
    with np.errstate(divide="ignore"):
        integ = np.sin(mid) / np.sqrt(np.maximum(g_eff(y_of(mid)), 0.0))
    step = np.sqrt(d / 2.0) * 0.5 * span * (theta[1] - theta[0])
    xs = step * np.concatenate(([0.0], np.cumsum(integ)))
    ys = y_of(theta)

    vals = np.interp(np.abs(grid.x), xs, ys, right=ys[-1])
    return Profile(grid, vals, boundary_value=float(vals[-1]))


@dataclass
class SweepCell:
    d: float
    y0: float
    classification: str
    residual: float
    first_integral_constant: float


@dataclass
class NoPotShapeReport:
    cells: list
    passed: bool
    orientation: str


def verify_no_pot_shape(
    spec: Potential,
    d_list: Sequence[float],
    y0_list: Optional[Sequence[float]] = None,
    grid: Grid = Grid(),
    t_cap: float = 2e4,
) -> NoPotShapeReport:
    """Sweep relaxation runs on `grid`; `passed` only if every one ends Uniform.

    Precondition: the boundary point must be the strict global minimum among
    the stationary points.  LdpcBec specs are mirrored internally so that
    their optimal point y=0 becomes the largest stable point and the same
    pot-shape predicate applies; the report records the orientation used.
    A run that ends Other, say at t_cap, gives no answer and fails the sweep.
    An empty list, a bad d or a y0 outside the domain raises before any run;
    the runs relax in one stack and their steady ends are polished in one
    stack (`_solve_cells`), each bit-identical to its `solve_stationary`.
    """
    if len(d_list) == 0 or (y0_list is not None and len(y0_list) == 0):
        raise ValueError("d_list and y0_list must not be empty")
    orientation = "standard"
    work = spec
    if isinstance(spec, LdpcBec):
        work = ReflectedPotential(spec)
        orientation = "reflected"
    pts = find_stationary_points(work)
    y_plus = pts.y_plus
    u_plus = float(np.asarray(work.potential(y_plus)))
    for p in pts.points:
        if abs(p.y - y_plus) < 1e-12:
            continue
        if u_plus >= float(np.asarray(work.potential(p.y))) - 1e-12:
            raise HypothesisError(
                f"boundary point {y_plus:.6g} is not the strict global minimum"
                f" (U({p.y:.6g}) <= U(y_plus))"
            )
    if y0_list is None:
        if pts.is_bistable and pts.unstable_points:
            y_u = pts.unstable_points[0]
            y0_list = [pts.y_minus, y_u - 0.01, y_u + 0.01]
        else:
            y0_list = [pts.y_minus]
    runs = [(work, d, y0) for d in d_list for y0 in y0_list]
    cells = [
        SweepCell(
            d=d,
            y0=y0,
            classification=sol.classification,
            residual=sol.residual,
            first_integral_constant=sol.first_integral_constant,
        )
        for (_, d, y0), sol in zip(runs, _solve_cells(runs, grid, t_cap))
    ]
    passed = all(c.classification == UNIFORM for c in cells)
    return NoPotShapeReport(cells=cells, passed=passed, orientation=orientation)
