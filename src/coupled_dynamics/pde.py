"""Time integration of the spatially-coupled gradient-flow equation.

The field obeys  y_t = -U'(y) - (1/2) D'(y) y_x^2 + (D(y) y_x)_x  on
(-x_max, x_max) with both ends pinned (Dirichlet).  Space is discretized with
second-order central differences in flux form.  `integrate` steps the
trajectory with explicit Euler under a CFL safety factor and tracks the
free-energy functional H = int [U(y) + D(y)/2 * y_x^2] dx along it.  `_relax`,
which needs only the end state, takes linearly implicit Euler steps whose
size follows the local error through the transient, then finishes the linear
tail by Newton on the same 3-point system; the time it reports is the model
time of its last accepted step plus the tail's extrapolated decay time
ln(max|r| / tol) / lambda_1, lambda_1 the slowest decay rate there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgtsv

from .potentials import Potential, find_stationary_points

CFL_SAFETY = 0.4
DEFAULT_STEADY_TOL = 1e-9
DEFAULT_SNAPSHOT_EVERY = 100
# Largest local error, relative to the step, that a relaxation step accepts.
RELAX_ERR_TOL = 0.1
# Stencil residual below which a relaxation is close enough to its fixed
# point for Newton: `_relax` finishes its tail there, and `solve_stationary`
# polishes a run capped there.
RELAX_HANDOVER_TOL = 1e-4
# Floor of AffineCoupling's diffusivity, which keeps it positive.
CLIP_MIN = 1e-8


class DivergenceError(RuntimeError):
    """Non-finite state encountered during time integration."""

    def __init__(self, t: float, node: int):
        super().__init__(f"state diverged at t={t:.6g}, node {node}")
        self.t = t
        self.node = node


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [-x_max, x_max] with an odd node count (x=0 on-grid)."""

    x_max: float
    n_points: int = 201

    def __post_init__(self):
        if self.x_max <= 0:
            raise ValueError("x_max must be positive")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError("n_points must be an odd integer >= 3")

    @property
    def dx(self) -> float:
        return 2.0 * self.x_max / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.x_max, self.x_max, self.n_points)


@dataclass
class Profile:
    """A sampled spatial field with Dirichlet value enforced at both ends."""

    grid: Grid
    values: np.ndarray
    boundary_value: float

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.shape != (self.grid.n_points,):
            raise ValueError("values length must equal grid.n_points")
        self.values[0] = self.boundary_value
        self.values[-1] = self.boundary_value

    @classmethod
    def uniform(cls, grid: Grid, value: float, boundary_value: Optional[float] = None):
        bv = value if boundary_value is None else boundary_value
        return cls(grid, np.full(grid.n_points, float(value)), float(bv))

    def copy(self) -> "Profile":
        return Profile(self.grid, self.values.copy(), self.boundary_value)


class Coupling:
    """Positive coupling function D(y) with derivative D'(y)."""

    def diffusivity(self, y):
        raise NotImplementedError

    def derivative(self, y):
        raise NotImplementedError

    def max_over(self, domain: tuple[float, float]) -> float:
        ys = np.linspace(domain[0], domain[1], 513)
        return float(np.max(self.diffusivity(ys)))

    def validate_positive(self, domain: tuple[float, float]):
        ys = np.linspace(domain[0], domain[1], 513)
        if np.min(self.diffusivity(ys)) <= 0:
            raise ValueError("coupling function must be positive over the domain")


@dataclass(frozen=True)
class ConstantCoupling(Coupling):
    d: float

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError(f"coupling constant must be positive, got {self.d}")

    def diffusivity(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.d)

    def derivative(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def max_over(self, domain):
        return self.d


@dataclass(frozen=True)
class AffineCoupling(Coupling):
    """State-dependent built-in D(y) = max(d0 + d1*y, CLIP_MIN)."""

    d0: float
    d1: float

    def diffusivity(self, y):
        arr = np.asarray(y, dtype=float)
        return np.maximum(self.d0 + self.d1 * arr, CLIP_MIN)

    def derivative(self, y):
        arr = np.asarray(y, dtype=float)
        return np.where(self.d0 + self.d1 * arr > CLIP_MIN, self.d1, 0.0)


@dataclass
class TrajectoryRecord:
    snapshots: list  # list of (t, Profile)
    energies: list  # list of (t, H)
    final: Profile
    steady: bool
    residual: float
    t_final: float


def _interior_rhs(y: np.ndarray, dx: float, gradient, coupling: Coupling) -> np.ndarray:
    """3-point flux-form stencil of -U'(y) - (1/2) D'(y) y_x^2 + (D(y) y_x)_x
    on the interior nodes; `gradient` evaluates U' there."""
    if isinstance(coupling, ConstantCoupling):
        return -gradient(y[1:-1]) + (coupling.d * (1.0 / dx**2)) * (
            y[2:] - 2.0 * y[1:-1] + y[:-2]
        )
    mid = 0.5 * (y[:-1] + y[1:])
    flux = coupling.diffusivity(mid) * np.diff(y) / dx
    slope = (y[2:] - y[:-2]) * (0.5 / dx)
    return (
        -gradient(y[1:-1])
        - 0.5 * coupling.derivative(y[1:-1]) * slope**2
        + np.diff(flux) / dx
    )


def rhs(profile: Profile, spec: Potential, coupling: Coupling) -> np.ndarray:
    """Right-hand side on the grid; zero at the pinned boundary nodes."""
    out = np.zeros_like(profile.values)
    out[1:-1] = _interior_rhs(profile.values, profile.grid.dx, spec.gradient, coupling)
    return out


def energy(profile: Profile, spec: Potential, coupling: Coupling) -> float:
    """Trapezoidal free energy; one-sided differences at the boundaries."""
    y = profile.values
    dx = profile.grid.dx
    dydx = np.gradient(y, dx)
    integrand = np.asarray(spec.potential(y)) + 0.5 * coupling.diffusivity(y) * dydx**2
    return float(np.trapezoid(integrand, dx=dx))


def stable_dt(grid: Grid, spec: Potential, coupling: Coupling) -> float:
    """Auto time step: CFL_SAFETY * dx^2 / max D over the potential domain."""
    return CFL_SAFETY * grid.dx**2 / coupling.max_over(spec.domain)


def integrate(
    profile0: Profile,
    spec: Potential,
    coupling: Coupling,
    dt: Optional[float] = None,
    t_end: float = 1000.0,
    steady_tol: float = DEFAULT_STEADY_TOL,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    keep_snapshots: bool = True,
) -> TrajectoryRecord:
    """Explicit-Euler evolution with Dirichlet re-imposition each step.

    Exits early with steady=True once max|rhs| < steady_tol.  A user-supplied
    dt above the diffusion stability bound is rejected, and so is t_end < 0;
    t_end = 0 takes no step.
    """
    if t_end < 0:
        raise ValueError(f"t_end must be >= 0, got {t_end}")
    grid = profile0.grid
    coupling.validate_positive(spec.domain)
    dt_bound = 0.5 * grid.dx**2 / coupling.max_over(spec.domain)
    if dt is None:
        dt = stable_dt(grid, spec, coupling)
    elif dt > dt_bound:
        raise ValueError(
            f"dt={dt:.6g} exceeds the explicit stability bound {dt_bound:.6g}"
        )
    bv = profile0.boundary_value
    work = Profile(grid, profile0.values.copy(), bv)
    y = work.values

    snapshots: list = []
    energies: list = []

    def record(t: float):
        energies.append((t, energy(work, spec, coupling)))
        if keep_snapshots:
            snapshots.append((t, work.copy()))

    dx = grid.dx
    gradient = spec.gradient_unchecked
    t = 0.0
    steady = False
    record(0.0)
    for step in range(math.ceil(t_end / dt)):
        r = _interior_rhs(y, dx, gradient, coupling)
        residual = float(np.abs(r).max())
        if not math.isfinite(residual):
            node = int(np.flatnonzero(~np.isfinite(r))[0]) + 1
            raise DivergenceError(t, node)
        if residual < steady_tol:
            steady = True
            break
        y[1:-1] += dt * r
        y[0] = bv
        y[-1] = bv
        t += dt
        if (step + 1) % snapshot_every == 0:
            record(t)
    else:
        residual = float(np.abs(_interior_rhs(y, dx, gradient, coupling)).max())
        steady = residual < steady_tol

    record(t)
    return TrajectoryRecord(
        snapshots=snapshots,
        energies=energies,
        final=work.copy(),
        steady=steady,
        residual=residual,
        t_final=t,
    )


def _reaction_lipschitz(spec: Potential) -> float:
    """max|U''| over spec.domain, from 513 samples of the gradient."""
    ys = np.linspace(*spec.domain, 513)
    g = np.asarray(spec.gradient(ys))
    return float(np.max(np.abs(np.gradient(g, ys))))


def _newton_tail(
    y: np.ndarray,
    r: np.ndarray,
    u2: np.ndarray,
    dx: float,
    spec: Potential,
    d: float,
    steady_tol: float,
) -> Optional[tuple[np.ndarray, float, float]]:
    """Newton on the 3-point system from y (residual r, U'' = u2): the
    linearly implicit step with tau = infinity, (-J) delta = r, at most three
    times.  Returns (interior nodes, max|r|, lambda_1) when the residual
    falls below steady_tol at a stable fixed point (lambda_1, the smallest
    eigenvalue of -J there, > 0) reached by a correction of one sign (to
    1e-12), as the Perron-mode tail of a monotone flow is; else None."""
    gradient = spec.gradient_unchecked
    coupling = ConstantCoupling(d)
    k = d / dx**2
    off = np.full(len(y) - 3, -k)
    z = y.copy()
    for _ in range(3):
        delta, info = dgtsv(off, 2.0 * k + u2, off, r)[3:]
        if info != 0:
            return None
        z[1:-1] += delta
        r = _interior_rhs(z, dx, gradient, coupling)
        u2 = spec.curvature_unchecked(z[1:-1])
        residual = float(np.abs(r).max())
        if residual < steady_tol:
            break
    else:
        return None
    move = z[1:-1] - y[1:-1]
    if min(float(move.max()), -float(move.min())) > 1e-12:
        return None
    lam1 = float(
        eigvalsh_tridiagonal(2.0 * k + u2, off, select="i", select_range=(0, 0))[0]
    )
    return (z[1:-1], residual, lam1) if lam1 > 0.0 else None


def _relax(
    profile0: Profile, spec: Potential, d: float, t_end: float, steady_tol: float
) -> tuple[Profile, float, float]:
    """Relax toward a stationary profile under constant coupling d by
    linearly implicit (Rosenbrock) Euler steps with local error control
    (Hairer & Wanner, Solving ODEs II, IV.7):

        (I - tau J) delta = tau r(y),   y <- y + delta,

    with r the 3-point right-hand side and J = (d/dx^2) tridiag(1, -2, 1)
    - diag U''(y) its Jacobian, U'' the family's exact `curvature_unchecked`,
    solved by LAPACK dgtsv (I - tau J can be indefinite).  A step is
    accepted when (tau/2) max|r(y + delta) - r(y)| / max|delta| <=
    RELAX_ERR_TOL; tau then changes by a factor in [0.2, 2] but never drops
    below tau0 = 1/(1 + L/2), L = max|U''|, and a step of at most tau0 is
    always accepted, so a non-finite state there raises DivergenceError.
    The clock advances by the accepted tau and the last step is clipped, so
    t_end is model time and a capped run returns t == t_end.

    Once max|r| < RELAX_HANDOVER_TOL the linear tail is finished by Newton
    (`_newton_tail`, pseudo-transient continuation with tau -> infinity;
    Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998).  Its fixed point is
    accepted if stable, reached monotonically, and if the model time t +
    ln(max|r| / steady_tol) / lambda_1, at which the tail's slowest mode
    (rate lambda_1) would decay to steady_tol, is within t_end; that is the
    returned t.  Otherwise stepping goes on, and Newton is retried once
    max|r| has fallen tenfold.  Stops once max|r| < steady_tol; returns
    (final profile, max|r|, t).  Its fixed points are exactly those of the
    3-point stencil.
    """
    work = profile0.copy()
    y = work.values
    trial = y.copy()
    dx = work.grid.dx
    gradient = spec.gradient_unchecked
    curvature = spec.curvature_unchecked
    coupling = ConstantCoupling(d)
    k = d / dx**2
    neg_k = np.full(len(y) - 3, -k)
    tau0 = 1.0 / (1.0 + 0.5 * _reaction_lipschitz(spec))
    tau = tau0
    t = 0.0
    newton_below = RELAX_HANDOVER_TOL
    r = _interior_rhs(y, dx, gradient, coupling)
    u2 = curvature(y[1:-1])
    diag = 2.0 * k + u2
    while True:
        residual = float(np.abs(r).max())
        if not math.isfinite(residual):
            node = int(np.flatnonzero(~np.isfinite(r))[0]) + 1
            raise DivergenceError(t, node)
        if residual < steady_tol or t >= t_end:
            return work, residual, t
        if residual < newton_below:
            tail = _newton_tail(y, r, u2, dx, spec, d, steady_tol)
            if tail is not None:
                t_tail = t + math.log(residual / steady_tol) / tail[2]
                if t_tail <= t_end:
                    y[1:-1] = tail[0]
                    return work, tail[1], t_tail
            newton_below = 0.1 * residual
        last = t + tau >= t_end
        step = t_end - t if last else tau
        off = step * neg_k
        # The four flags let dgtsv overwrite these fresh arrays in place.
        delta, info = dgtsv(
            off, 1.0 + step * diag, off.copy(), step * r, True, True, True, True
        )[3:]
        # A singular matrix counts as a non-finite trial.
        trial[1:-1] = y[1:-1] + delta if info == 0 else np.nan
        r_trial = _interior_rhs(trial, dx, gradient, coupling)
        change = float(np.abs(r_trial - r).max())
        err = 0.5 * step * change / float(np.abs(delta).max())
        if not math.isfinite(err):
            err = math.inf
        if step <= tau0 or err <= RELAX_ERR_TOL:
            y[1:-1] = trial[1:-1]
            r = r_trial
            u2 = curvature(y[1:-1])
            diag = 2.0 * k + u2
            t = t_end if last else t + step
        grow = 0.9 * math.sqrt(RELAX_ERR_TOL / err) if err > 0.0 else 2.0
        tau = max(tau0, step * min(2.0, max(0.2, grow)))


def simulate_discrete_chain(
    n_copies: int,
    spec: Potential,
    coupling_strength: float,
    y0: float,
    t_end: float,
) -> np.ndarray:
    """Euler integration of the (2N+1)-copy chain with clamped endpoints.

    dy_i/dt = -U'(y_i) + (d/Delta^2)(y_{i+1} - 2 y_i + y_{i-1}) with
    Delta = 1/N (the chain spans [-1, 1]); endpoints held at the largest
    stable point of U.  dt = min(0.5/max|U''|, CFL_SAFETY Delta^2/d); stops
    once max|dy/dt| < DEFAULT_STEADY_TOL.  Kept as an independent code path
    to cross-validate the continuum solver.
    """
    if n_copies < 3 or n_copies % 2 == 0:
        raise ValueError("n_copies must be an odd integer >= 3")
    if coupling_strength < 0:
        raise ValueError("coupling_strength must be >= 0")
    n_half = (n_copies - 1) // 2
    delta = 1.0 / n_half
    y_plus = find_stationary_points(spec).y_plus

    dt_react = 0.5 / max(_reaction_lipschitz(spec), 1e-12)
    dt_diff = (
        CFL_SAFETY * delta**2 / coupling_strength if coupling_strength > 0 else np.inf
    )
    dt = min(dt_react, dt_diff)

    y = np.full(n_copies, float(y0))
    y[0] = y_plus
    y[-1] = y_plus
    k = coupling_strength / delta**2
    n_steps = max(1, math.ceil(t_end / dt))
    for step in range(n_steps):
        r = spec.gradient_unchecked(y[1:-1])
        np.negative(r, out=r)
        r += k * (y[2:] - 2.0 * y[1:-1] + y[:-2])
        res = float(np.abs(r).max())
        if not math.isfinite(res):
            node = int(np.flatnonzero(~np.isfinite(r))[0]) + 1
            raise DivergenceError(step * dt, node)
        if res < DEFAULT_STEADY_TOL:
            break
        y[1:-1] += dt * r
        y[0] = y_plus
        y[-1] = y_plus
    return y
