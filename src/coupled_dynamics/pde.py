"""Time integration of the spatially-coupled gradient-flow equation.

The field obeys  y_t = -U'(y) - (1/2) D'(y) y_x^2 + (D(y) y_x)_x  on
(-x_max, x_max) with both ends pinned (Dirichlet).  Space is discretized with
second-order central differences in flux form.  `integrate` steps the
trajectory by explicit Euler at `stable_dt`, a CFL step that rejects D <= 0,
and tracks the free energy H = int [U(y) + D(y)/2 * y_x^2] dx along it.  `_relax`,
which needs only the end state, takes linearly implicit Euler steps whose
size follows the local error through the transient, then finishes the linear
tail by Newton on the same 3-point system, which is that step at tau =
infinity; the time it reports is the model time of its last accepted step
plus the tail's extrapolated decay time ln(max|r| / DEFAULT_STEADY_TOL) /
lambda_1 (lambda_1 the slowest decay rate), at most t_end.  Every solver
here calls a state steady once the max-norm of its residual is below
DEFAULT_STEADY_TOL.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .potentials import Potential, find_stationary_points

CFL_SAFETY = 0.4
DEFAULT_STEADY_TOL = 1e-9
DEFAULT_SNAPSHOT_EVERY = 100
# Largest local error, relative to the step, that a relaxation step accepts.
RELAX_ERR_TOL = 0.1
# Stencil residual below which `_relax` first tries to finish its linear tail
# by Newton, its step at tau = infinity, and retries after every tenfold fall.
NEWTON_TAIL_TOL = 1e-2
# Floor of AffineCoupling's diffusivity, which keeps it positive.
CLIP_MIN = 1e-8


class DivergenceError(RuntimeError):
    """Non-finite state in time integration; `node` is the grid index of the
    first non-finite entry of the interior residual r at model time t."""

    def __init__(self, t: float, r: np.ndarray):
        self.t = t
        self.node = int(np.flatnonzero(~np.isfinite(r))[0]) + 1
        super().__init__(f"state diverged at t={t:.6g}, node {self.node}")


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [-x_max, x_max] with an odd node count (x=0 on-grid)
    of at least 5, the floor of the stationary module's fourth-order slopes.
    `Grid()`, 201 nodes on [-1, 1], is the package's default grid."""

    x_max: float = 1.0
    n_points: int = 201

    def __post_init__(self):
        if not 0 < self.x_max < np.inf:
            raise ValueError("x_max must be positive and finite")
        n = self.n_points
        if not isinstance(n, numbers.Integral) or n < 5 or n % 2 == 0:
            raise ValueError(f"n_points must be an odd integer >= 5, got {n!r}")

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


def check_coupling(d: float) -> None:
    """Raise ValueError unless the coupling constant d is positive and finite."""
    if not 0.0 < d < math.inf:
        raise ValueError(f"coupling constant must be positive and finite, got {d}")


def check_time(name: str, t: float) -> None:
    """Raise ValueError unless the model time t, called `name`, is finite and >= 0."""
    if not 0 <= t < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {t}")


@dataclass(frozen=True)
class ConstantCoupling(Coupling):
    d: float

    def __post_init__(self):
        check_coupling(self.d)

    def diffusivity(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.d)

    def derivative(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))


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


def _interior_rhs(y: np.ndarray, dx: float, gradient, coupling) -> np.ndarray:
    """3-point flux-form stencil of -U'(y) - (1/2) D'(y) y_x^2 + (D(y) y_x)_x
    on the interior nodes; `gradient` evaluates U' there.  `coupling` is a
    Coupling, or a constant one's d * (1.0 / dx**2) at each interior node,
    which `_relax` forms once per stack."""
    k = coupling.d * (1.0 / dx**2) if isinstance(coupling, ConstantCoupling) else coupling
    if not isinstance(k, Coupling):
        return k * (y[2:] - 2.0 * y[1:-1] + y[:-2]) - gradient(y[1:-1])
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
    """Auto time step: CFL_SAFETY * dx^2 / max D, with D sampled at 513
    points of the potential domain; ValueError unless D > 0 at all of them."""
    diffusivity = coupling.diffusivity(np.linspace(*spec.domain, 513))
    if not np.min(diffusivity) > 0:  # a NaN sample fails too
        raise ValueError("coupling function must be positive over the domain")
    return CFL_SAFETY * grid.dx**2 / float(np.max(diffusivity))


def integrate(
    profile0: Profile,
    spec: Potential,
    coupling: Coupling,
    t_end: float = 1000.0,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    keep_snapshots: bool = True,
) -> TrajectoryRecord:
    """Explicit-Euler evolution of the interior nodes, the pinned ends held,
    at the step `stable_dt` = CFL_SAFETY dx^2 / max D, inside the diffusion
    stability bound 0.5 dx^2 / max D.

    Checks max|rhs| before every step and after the last: steady=True, and
    an early exit, once it is below DEFAULT_STEADY_TOL; DivergenceError once
    it is not finite.  The last step is clipped, so a run that is not steady
    ends at t_end exactly.  A t_end that is not finite and >= 0 (negative,
    infinite or NaN), and a coupling that `stable_dt` rejects, raise
    ValueError before any step; t_end = 0 takes no step.
    """
    check_time("t_end", t_end)
    grid = profile0.grid
    dt = stable_dt(grid, spec, coupling)
    work = profile0.copy()
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
    record(0.0)
    # a t_end within 1e-9 steps of a whole number of steps adds no sliver step
    n_steps = math.ceil(t_end / dt - 1e-9)
    for step in range(n_steps + 1):
        r = _interior_rhs(y, dx, gradient, coupling)
        residual = float(np.abs(r).max())
        if not math.isfinite(residual):
            raise DivergenceError(t, r)
        steady = residual < DEFAULT_STEADY_TOL
        if steady or step == n_steps:
            break
        last = step == n_steps - 1
        y[1:-1] += (t_end - t if last else dt) * r
        t = t_end if last else t + dt
        if (step + 1) % snapshot_every == 0:
            record(t)

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
    """max|U''| of the exact `curvature_unchecked` at 513 points of the domain."""
    ys = np.linspace(*spec.domain, 513)
    return float(np.max(np.abs(spec.curvature_unchecked(ys))))


def _per_object(fn: Callable, objects: Sequence) -> list:
    """fn(o) for each of objects, called once per distinct object (by
    identity: DoubleWell(0.0) == DoubleWell(-0.0), yet their U' differ in
    the sign of a zero)."""
    values: dict = {}
    for o in objects:
        if id(o) not in values:
            values[id(o)] = fn(o)
    return [values[id(o)] for o in objects]


def _stack_potential(specs: Sequence[Potential], spread: Callable) -> Potential:
    """One potential that evaluates each row of a stack under its own spec:
    their one object when the rows share it, else the first's family with
    each float field laid out by `spread`, one value per node.  Rows that
    differ in another field raise ValueError: a nested potential must be
    the same object (DoubleWell(0.0) == DoubleWell(-0.0)), any other field
    equal."""
    first = specs[0]
    if all(spec is first for spec in specs):
        return first
    fields = dataclasses.fields(first)
    floats = [f.name for f in fields if isinstance(getattr(first, f.name), float)]
    for name in (f.name for f in fields if f.name not in floats):
        value = getattr(first, name)
        nested = isinstance(value, Potential)  # compared by identity
        if any(getattr(s, name) is not value if nested else getattr(s, name) != value for s in specs):
            raise ValueError(f"the rows of a stack differ in {name}, which is not laid out per node")
    return dataclasses.replace(
        first, **{f: spread([getattr(spec, f) for spec in specs]) for f in floats}
    )


def _relax(
    profiles: Sequence[Profile],
    specs: Sequence[Potential],
    ds: Sequence[float],
    t_end: float,
) -> list[tuple[Profile, float, float]]:
    """Relax a stack of profiles on one grid toward stationary profiles,
    profile i of specs[i] under constant coupling ds[i], by linearly implicit
    (Rosenbrock) Euler steps with local error control (Hairer & Wanner,
    Solving ODEs II, IV.7):

        (I - tau J) delta = tau r(y),   y <- y + delta,

    with r the 3-point right-hand side and J = (d/dx^2) tridiag(1, -2, 1)
    - diag U''(y) its Jacobian, U'' the family's exact `curvature_unchecked`,
    solved by LAPACK dgtsv (I - tau J can be indefinite).  A step is
    accepted when (tau/2) max|r(y + delta) - r(y)| / max|delta| <=
    RELAX_ERR_TOL; tau then changes by a factor in [0.2, 2], in [0.2, 1] on
    the step accepted right after a rejection (Hairer, Norsett & Wanner,
    Solving ODEs I, II.4), but never drops below tau0 = 1/(1 + L/2), L =
    max|U''|, and a step of at most tau0 is always accepted, so a non-finite
    state there raises DivergenceError.
    The clock advances by the accepted tau and the last step is clipped, so
    t_end is model time and a capped run returns t == t_end.

    Once max|r| < NEWTON_TAIL_TOL a row tries to finish its linear tail by
    Newton: the same step at tau = infinity, (-J) delta = r, at most three
    times, its clock held (pseudo-transient continuation; Kelley & Keyes,
    SIAM J. Numer. Anal. 35, 1998).  A tail that brings max|r| below
    DEFAULT_STEADY_TOL by a correction of one sign (to 1e-12), as the
    Perron-mode tail of a monotone flow is, at a stable fixed point
    (lambda_1, the smallest eigenvalue of -J there by LAPACK dstebz, > 0)
    ends the run at the model time t + ln(max|r| / DEFAULT_STEADY_TOL) /
    lambda_1, max|r| taken at the tail's start, or at t_end if that comes
    first.  Any other tail, one that meets a zero pivot included, restores
    the row's state, which steps on and tries again once max|r| has fallen
    tenfold.  A run stops once max|r| < DEFAULT_STEADY_TOL.  Its fixed
    points are exactly those of the 3-point stencil.

    The rows lie end to end in one array, so each step makes one stencil
    call, one U' and one U'' call on one potential for the whole stack
    (`_stack_potential`: the rows' own object when they share it, else
    their family with per-node parameters) and one dgtsv call, tails
    included, whose off-diagonals are zero at the seams: no pivot crosses a
    seam; after a zero pivot or an overflow the rows are solved again alone
    and the singular row's trial counts as non-finite.  Each row keeps its
    own tau0 (from its own potential's max|U''|, taken once per distinct
    object), tau, clock and Newton retries, and leaves the stack once
    steady, capped or Newton-finished, so its result is bit-identical to
    relaxing it alone.  Each stack, the first and every smaller one left
    behind, evaluates its rows' r and U'' when it is laid out.  Returns
    (final profile, max|r|, t) for each profile, in order.
    """
    from . import _lapack

    dx, n = profiles[0].grid.dx, profiles[0].grid.n_points
    tau0s = [1.0 / (1.0 + 0.5 * lip) for lip in _per_object(_reaction_lipschitz, specs)]
    y = np.concatenate([p.values for p in profiles])
    rows = list(range(len(profiles)))  # the index in profiles of each row
    # a row has nothing to decide while gate <= max|r| < inf: gate NEWTON_TAIL_TOL, after
    # a failed tail 0.1 max|r| at its start (>= DEFAULT_STEADY_TOL), inf in a tail and at t_end
    ts, gates = [0.0] * len(rows), [NEWTON_TAIL_TOL if t_end > 0.0 else math.inf] * len(rows)
    lasts, rejected = [tau0 >= t_end for tau0 in tau0s], [False] * len(rows)
    steps = [t_end if last else tau0 for last, tau0 in zip(lasts, tau0s)]
    out: list = [None] * len(rows)
    # the index in profiles of each row in its tail: [interior nodes, r, the
    # diagonal of -J, max|r|] at the tail's start and the tail's solves so far
    tails: dict = {}

    def spread(values):  # one value per row at each of its interior nodes, 0 at the seams
        return np.array(values + [0])[row_of]

    stack = 0
    while True:
        if stack != len(rows):  # lay out a new stack
            stack = len(rows)
            # the stack's row at each interior node, `stack` at the seams
            node = np.arange(1, stack * n - 1)
            row_of = np.where((node + 1) % n < 2, stack, node // n)
            coef = spread([ds[i] for i in rows]) * (1.0 / dx**2)  # the stencil's d/dx^2
            k = spread([ds[i] / dx**2 for i in rows])
            spec = _stack_potential([specs[i] for i in rows], spread)
            gradient, curvature = spec.gradient_unchecked, spec.curvature_unchecked
            two_k = 2.0 * k
            # the off-diagonal -k, zero where it would couple a row to a seam
            neg_k = np.where(row_of == np.append(row_of[1:], stack), -k, 0.0)
            # reduceat segments: each row's interior nodes, then a seam
            starts = np.array([i * n + s for i in range(stack) for s in (0, n - 2)][:-1])
            trial = y.copy()
            inner, trial_inner = y[1:-1], trial[1:-1]
            r = _interior_rhs(y, dx, gradient, coef)
            diag = two_k + curvature(inner)  # of -J
        done = []
        for i, residual in enumerate(np.maximum.reduceat(np.abs(r), starts).tolist()[::2]):
            if gates[i] <= residual < math.inf:  # nothing to decide
                continue
            t, row = ts[i], slice(i * n, i * n + n - 2)
            tail = tails.get(rows[i])
            if tail is None:
                if not math.isfinite(residual):
                    raise DivergenceError(t, r[row])
                if residual >= DEFAULT_STEADY_TOL and t < t_end:  # try the tail
                    tails[rows[i]] = [inner[row].copy(), r[row].copy(), diag[row].copy(), residual, 0]
                    gates[i] = math.inf
                    continue
            elif DEFAULT_STEADY_TOL <= residual < math.inf and tail[4] < 3:
                continue  # the tail goes on
            else:
                del tails[rows[i]]
                nodes, r_start, diag_start, res_start, _ = tail
                move, lam1 = inner[row] - nodes, 0.0
                if residual < DEFAULT_STEADY_TOL and min(move.max(), -move.min()) <= 1e-12:
                    # the smallest eigenvalue by bisection, as scipy's
                    # eigvalsh_tridiagonal calls it for select="i", select_range=(0, 0)
                    _, w, _, _, info = _lapack.dstebz(
                        diag[row], neg_k[row][:-1], 2, 0.0, 1.0, 1, 1, 0.0, "E"
                    )
                    if info != 0:
                        raise np.linalg.LinAlgError(f"dstebz failed with info = {info}")
                    lam1 = float(w[0])
                if not lam1 > 0.0:  # a failed tail: the row steps on from its start
                    inner[row], r[row], diag[row] = nodes, r_start, diag_start
                    gates[i] = max(0.1 * res_start, DEFAULT_STEADY_TOL)
                    continue
                t = min(t + math.log(res_start / DEFAULT_STEADY_TOL) / lam1, t_end)
            final = profiles[rows[i]].copy()
            final.values[1:-1] = inner[row]
            out[rows[i]] = final, residual, t
            done.append(i)
        if done:
            keep = [i for i in range(len(rows)) if i not in done]
            if not keep:
                return out
            y = y.reshape(len(rows), n)[keep].ravel()
            rows, tau0s, ts, steps, lasts, gates, rejected = (
                [v[i] for i in keep] for v in (rows, tau0s, ts, steps, lasts, gates, rejected)
            )
            continue
        # a row in its tail takes tau = 1 without the identity: -J delta = r
        in_tail = [i for i, p in enumerate(rows) if p in tails] if tails else []
        cols = [1.0 if p in tails else s for p, s in zip(rows, steps)] if in_tail else steps
        col = spread(cols)
        off = (col * neg_k)[:-1]
        shifted = col * diag
        shifted += 1.0
        for i in in_tail:
            shifted[i * n : i * n + n - 2] = diag[i * n : i * n + n - 2]
            tails[rows[i]][4] += 1
        # dgtsv copies off as its subdiagonal and overwrites the rest in place.
        delta, info = _lapack.dgtsv(off, shifted, off, col * r, False, True, True, True)[3:]
        size = np.maximum.reduceat(np.abs(delta), starts).tolist()[::2]
        if info or not math.isfinite(sum(size)):
            # dgtsv stops at a zero pivot before it back-substitutes any row,
            # and an overflow in one block spreads 0 * inf = NaN to the
            # others: solve each row alone, the singular row's trial NaN.
            delta = np.zeros_like(r)
            for i, step in enumerate(cols):
                row = slice(i * n, i * n + n - 2)
                off = step * neg_k[row][:-1]
                block = step * diag[row] + (0.0 if i in in_tail else 1.0)
                x, info_i = _lapack.dgtsv(off, block, off, step * r[row])[3:]
                delta[row] = x if info_i == 0 and i != (info - 1) // n else np.nan
            size = np.maximum.reduceat(np.abs(delta), starts).tolist()[::2]
        np.add(inner, delta, out=trial_inner)
        r_trial = _interior_rhs(trial, dx, gradient, coef)
        change = np.maximum.reduceat(np.abs(r_trial - r), starts).tolist()[::2]
        accepted = []
        for i, (step, tau0) in enumerate(zip(steps, tau0s)):
            if tails and rows[i] in tails:  # a tail's iterate is always taken
                accepted.append(True)
                continue
            err = 0.5 * step * change[i] / size[i]
            t = ts[i]
            accept = step <= tau0 or err <= RELAX_ERR_TOL  # False for a NaN err
            if accept and lasts[i]:
                t = ts[i] = t_end
                gates[i] = math.inf
            elif accept:
                t = ts[i] = t + step
            # the factor for tau: 0.9 (RELAX_ERR_TOL / err)^(1/2) in [0.2, cap]
            grow = 0.9 * math.sqrt(RELAX_ERR_TOL / err) if err > 0.0 else 2.0 if err == 0.0 else 0.0
            cap = 1.0 if rejected[i] else 2.0  # grow < 1 on a rejected step anyway
            tau = step * (0.2 if grow < 0.2 else cap if grow > cap else grow)
            tau = tau0 if tau < tau0 else tau
            rejected[i] = not accept
            accepted.append(accept)
            lasts[i] = last = t + tau >= t_end
            steps[i] = t_end - t if last else tau
        n_accepted = accepted.count(True)
        if n_accepted == len(accepted):
            y, trial, inner, trial_inner, r = trial, y, trial_inner, inner, r_trial
        elif n_accepted:
            where = np.array(accepted + [False])[row_of]
            np.copyto(inner, trial_inner, where=where)
            np.copyto(r, r_trial, where=where)
        if n_accepted:
            diag = two_k + curvature(inner)


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
    once max|dy/dt| < DEFAULT_STEADY_TOL, else after ceil(t_end / dt) steps,
    at least one.  A t_end that is not finite and >= 0 raises ValueError
    before any step.  Kept as an independent code path to cross-validate
    the continuum solver.
    """
    if n_copies < 3 or n_copies % 2 == 0:
        raise ValueError("n_copies must be an odd integer >= 3")
    check_time("t_end", t_end)
    if not 0.0 <= coupling_strength < math.inf:
        raise ValueError(
            f"coupling constant must be non-negative and finite, got {coupling_strength}"
        )
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
            raise DivergenceError(step * dt, r)
        if res < DEFAULT_STEADY_TOL:
            break
        y[1:-1] += dt * r
    return y
