"""Stationary boundary-value analysis of the pinned coupled system.

Stationary profiles satisfy 0 = -U'(y) + D y'' with y(+-x_max) pinned at the
largest stable point.  This module finds them by relaxation (error-controlled
linearly implicit Euler steps of the pinned gradient flow, finished by Newton
on its linear tail, whose fixed points are those of the second-order stencil)
followed by a Newton polish on the fourth-order Numerov discretization

    D (y[i+1] - 2 y[i] + y[i-1]) / dx^2 = (U'[i+1] + 10 U'[i] + U'[i-1]) / 12,

whose residual is the one every `residual` in this module measures.  It
classifies pot-shaped versus uniform outcomes, checks the first integral
(D/2) y'^2 - U(y) with fourth-order slopes, reconstructs profiles by
quadrature from the first-integral constant, and runs the sweep that
numerically confirms the absence of pot-shaped solutions when the boundary
point is the unique global minimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .pde import (
    DEFAULT_STEADY_TOL,
    RELAX_HANDOVER_TOL,
    Grid,
    Profile,
    _relax,
)
from .potentials import LdpcBec, Potential, ReflectedPotential, find_stationary_points

POT_TOL = 1e-3
SLOPE_TOL = 1e-8
RESIDUAL_TOL = 1e-6
# Nodes in theta of `quadrature_reconstruct`'s cosine-substituted quadrature.
_QUAD_NODES = 8001

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
    y: np.ndarray, spec: Potential, d: float, dx: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fourth-order (Numerov 1924) residual of 0 = -U'(y) + D y'' at the
    interior nodes and its tridiagonal Jacobian in `solve_banded` layout.

    The residual D (y[i+1] - 2 y[i] + y[i-1]) / dx^2 - (U'[i+1] + 10 U'[i] +
    U'[i-1]) / 12 carries the units of -U' + D y'' and is O(dx^4) on a smooth
    solution; U'' is the family's exact `curvature_unchecked`.  The gradient
    is domain-checked, so a y outside the domain raises DomainError.
    """
    g = np.asarray(spec.gradient(y))
    res = d * (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dx**2 - (
        g[2:] + 10.0 * g[1:-1] + g[:-2]
    ) / 12.0
    u2 = spec.curvature_unchecked(y[1:-1])
    off = d / dx**2 - u2 / 12.0
    jac = np.zeros((3, len(u2)))
    jac[0, 1:] = off[1:]
    jac[1, :] = -2.0 * d / dx**2 - 10.0 * u2 / 12.0
    jac[2, :-1] = off[:-1]
    return res, jac


def _stationary_residual(profile: Profile, spec: Potential, d: float) -> float:
    """Max-norm of the fourth-order (Numerov) stationary residual."""
    res, _ = _numerov_system(profile.values, spec, d, profile.grid.dx)
    return float(np.max(np.abs(res)))


def classify_profile(profile: Profile, y_plus: float) -> str:
    """Apply the discrete pot-shape predicate: a center dip of at least
    POT_TOL below the boundary with halves monotone to within SLOPE_TOL;
    profiles within POT_TOL of y_plus are uniform; anything else is Other."""
    y = profile.values
    if float(np.max(np.abs(y - y_plus))) < POT_TOL:
        return UNIFORM
    center = (len(y) - 1) // 2
    dips = y[center] < profile.boundary_value - POT_TOL
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


def _require_slope_nodes(n_points: int) -> None:
    if n_points < 5:
        raise ValueError(
            f"fourth-order slopes need at least 5 grid nodes, got {n_points}"
        )


def _slopes(profile: Profile) -> np.ndarray:
    """Fourth-order y' at every node: 5-point central differences inside,
    one-sided 5-point stencils at the two end nodes and their neighbours."""
    y = profile.values
    _require_slope_nodes(len(y))
    s = np.empty_like(y)
    s[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / 12.0
    s[0] = _END_WEIGHTS @ y[:5]
    s[1] = _NEAR_END_WEIGHTS @ y[:5]
    s[-1] = -(_END_WEIGHTS @ y[:-6:-1])
    s[-2] = -(_NEAR_END_WEIGHTS @ y[:-6:-1])
    return s / profile.grid.dx


def _boundary_first_integral(profile: Profile, spec: Potential, d: float) -> float:
    slope = _slopes(profile)[-1]
    return float(0.5 * d * slope**2 - spec.potential(profile.boundary_value))


def _newton_polish(
    profile: Profile, spec: Potential, d: float, tol: float, max_iter: int = 30
) -> bool:
    """Damped Newton on the fourth-order (Numerov) BVP, in place; returns True
    when the residual falls below tol.  The start, like every trial, is
    clipped into the domain: a relaxation that ends on a fixed point at the
    domain edge may overshoot it by a few ulps."""
    y = profile.values
    dx = profile.grid.dx
    lo, hi = spec.domain
    y[1:-1] = np.clip(y[1:-1], lo, hi)
    res, jac = _numerov_system(y, spec, d, dx)
    for _ in range(max_iter):
        norm = float(np.max(np.abs(res)))
        if norm < tol:
            return True
        try:
            step = solve_banded((1, 1), jac, -res)
        except np.linalg.LinAlgError:
            return False
        lam = 1.0
        while lam > 1e-4:
            trial = y.copy()
            trial[1:-1] = np.clip(y[1:-1] + lam * step, lo, hi)
            res_t, jac_t = _numerov_system(trial, spec, d, dx)
            if float(np.max(np.abs(res_t))) < norm:
                y[1:-1] = trial[1:-1]
                res, jac = res_t, jac_t
                break
            lam *= 0.5
        else:
            return False
    return float(np.max(np.abs(res))) < tol


def solve_stationary(
    spec: Potential,
    d: float,
    grid: Optional[Grid] = None,
    y0: Optional[float] = None,
    t_cap: float = 2e4,
) -> StationarySolution:
    """Relax the PDE from a uniform initial state and classify the outcome.

    Constant coupling only.  The boundary value is the largest stable point
    of the potential; y0 defaults to the smallest stable point.  Relaxation
    takes linearly implicit Euler steps, sized by their local error, toward
    the fixed point of the second-order stencil and finishes the linear tail
    by Newton on that stencil (see `pde._relax`), until the residual is below
    DEFAULT_STEADY_TOL or the model time t_cap is reached.  `t_exit` is the
    model time of the last accepted step plus, after a Newton finish, the
    tail's extrapolated decay time ln(residual / DEFAULT_STEADY_TOL) /
    lambda_1, lambda_1 the slowest decay rate at the fixed point; it is
    t_cap exactly when capped.  Every relaxed profile whose residual is below
    RELAX_HANDOVER_TOL (steady runs, and runs that hit t_cap already close)
    is then Newton-polished on the fourth-order (Numerov) discretization
    until its residual is below DEFAULT_STEADY_TOL.  `residual` reports the
    Numerov residual of the returned profile, and `steady` is True only when
    the polish converged; otherwise the classification is Other.  The grid
    needs at least 5 nodes, the floor of the fourth-order slopes.
    """
    if d <= 0:
        raise ValueError(f"coupling constant must be positive, got {d}")
    if grid is None:
        grid = Grid(1.0, 201)
    _require_slope_nodes(grid.n_points)
    pts = find_stationary_points(spec)
    y_plus = pts.y_plus
    if y0 is None:
        y0 = pts.y_minus
    profile0 = Profile.uniform(grid, y0, boundary_value=y_plus)
    final, relax_residual, t_exit = _relax(profile0, spec, d, t_cap, DEFAULT_STEADY_TOL)
    steady = relax_residual < RELAX_HANDOVER_TOL and _newton_polish(
        final, spec, d, DEFAULT_STEADY_TOL
    )
    if steady:
        classification = classify_profile(final, y_plus)
    else:
        classification = OTHER
    return StationarySolution(
        profile=final,
        classification=classification,
        first_integral_constant=_boundary_first_integral(final, spec, d),
        residual=_stationary_residual(final, spec, d),
        steady=steady,
        t_exit=t_exit,
    )


def refine_profile(
    solution: StationarySolution, spec: Potential, d: float, grid: Grid
) -> StationarySolution:
    """Transfer a stationary solution to a finer grid and re-converge it.

    The profile is moved by cubic-spline interpolation and polished with the
    damped Newton pass on the fourth-order (Numerov) discretization, which is
    far cheaper than relaxing from scratch on fine grids; `residual` is the
    Numerov residual.  Intended for grid-convergence studies.
    """
    from scipy.interpolate import CubicSpline

    if d <= 0:
        raise ValueError(f"coupling constant must be positive, got {d}")
    _require_slope_nodes(grid.n_points)
    src = solution.profile
    vals = CubicSpline(src.grid.x, src.values)(grid.x)
    new = Profile(grid, vals, boundary_value=src.boundary_value)
    if not _newton_polish(new, spec, d, DEFAULT_STEADY_TOL):
        raise NotSteadyError(
            f"Newton polish failed to reach residual {DEFAULT_STEADY_TOL:g} on the"
            f" refined grid (n={grid.n_points})"
        )
    y_plus = find_stationary_points(spec).y_plus
    return StationarySolution(
        profile=new,
        classification=classify_profile(new, y_plus),
        first_integral_constant=_boundary_first_integral(new, spec, d),
        residual=_stationary_residual(new, spec, d),
        steady=True,
        t_exit=0.0,
    )


def first_integral(
    solution: StationarySolution, spec: Potential, d: float
) -> np.ndarray:
    """(D/2) y'^2 - U(y) at every interior node, for constancy checks.

    The profile must solve the fourth-order (Numerov) discretization to a
    residual of at most RESIDUAL_TOL, else NotSteadyError.  The slope is
    fourth order too, so on a solved profile the spread of the returned
    values is O(dx^4).
    """
    residual = _stationary_residual(solution.profile, spec, d)
    if residual > RESIDUAL_TOL:
        raise NotSteadyError(
            f"profile is not stationary (residual {residual:.3g} > {RESIDUAL_TOL})"
        )
    y = solution.profile.values
    slope = _slopes(solution.profile)[1:-1]
    return 0.5 * d * slope**2 - np.asarray(spec.potential(y[1:-1]))


def quadrature_reconstruct(
    spec: Potential,
    d: float,
    c_const: float,
    y_at_origin: float,
    grid: Optional[Grid] = None,
) -> Profile:
    """Rebuild a symmetric stationary profile from its first-integral constant.

    Integrates dx = sqrt(D/2) dy / sqrt(U(y) + C) upward from the center
    value y_c to the boundary value y_b and inverts the monotone map x(y)
    onto the grid.  One cosine substitution y = y_c + (y_b - y_c)(1 - cos
    theta)/2 over theta in [0, pi], summed at midpoints, covers both ends:
    sin theta cancels the integrable 1/sqrt of a simple zero of U + C, and at
    a double zero (the heteroclinic case) x grows without bound.  Raises
    ReconstructionInfeasibleError when U + C dips below zero strictly inside
    the range, which is exactly the obstruction ruling out pot shapes when
    the boundary point is the unique global minimum.
    """
    if d <= 0:
        raise ValueError(f"coupling constant must be positive, got {d}")
    if grid is None:
        grid = Grid(1.0, 201)
    y_b = find_stationary_points(spec).y_plus
    if abs(y_at_origin - y_b) < 1e-12:
        return Profile.uniform(grid, y_b)
    if y_at_origin > y_b:
        raise ValueError("y_at_origin must not exceed the boundary value")

    # A center value measured from a computed profile carries discretization
    # error in C; treat |U + C| below this scale as the slope-zero (smooth) case.
    clamp_tol = 1e-3
    u0 = float(spec.potential(y_at_origin))
    g0 = u0 + c_const
    if g0 < -clamp_tol:
        raise ReconstructionInfeasibleError(
            f"U + C = {g0:.3g} < 0 at the center value"
        )
    c_eff = -u0 if abs(g0) <= clamp_tol else c_const

    def g_eff(y):
        return np.asarray(spec.potential(y)) + c_eff

    probe = np.linspace(y_at_origin, y_b, 4001)[1:-1]
    gp = g_eff(probe)
    if np.any(gp <= 0.0):
        bad = float(probe[np.argmin(gp)])
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
    grid: Optional[Grid] = None,
    t_cap: float = 2e4,
) -> NoPotShapeReport:
    """Sweep relaxation runs and check that none ends pot-shaped.

    Precondition: the boundary point must be the strict global minimum among
    the stationary points.  LdpcBec specs are mirrored internally so that
    their optimal point y=0 becomes the largest stable point and the same
    pot-shape predicate applies; the report records the orientation used.
    """
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
    cells = []
    for d in d_list:
        for y0 in y0_list:
            sol = solve_stationary(work, d, grid=grid, y0=y0, t_cap=t_cap)
            cells.append(
                SweepCell(
                    d=d,
                    y0=y0,
                    classification=sol.classification,
                    residual=sol.residual,
                    first_integral_constant=sol.first_integral_constant,
                )
            )
    passed = all(c.classification != POT_SHAPED for c in cells)
    return NoPotShapeReport(cells=cells, passed=passed, orientation=orientation)
