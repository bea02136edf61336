"""Parameter sweeps over coupling strength and tilt, and the critical curve
separating pot-shaped from uniform outcomes when the boundary is pinned to a
metastable point."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import Optional, Sequence

import numpy as np

from .pde import Grid, check_coupling, check_time
from .potentials import DoubleWell, brent_root, find_stationary_points
from .stationary import OTHER, _solve_cells

UNRESOLVED = "Unresolved"

DEFAULT_T_CAP = 1e4
# Gauss-Legendre nodes per piece of the time-map integral, and the centers
# sampled in the first stage that minimizes it.
_TIME_MAP_NODES = 32
_CENTER_SAMPLES = 16
# Smallest |h| of a critical_curve bracket end: closer to 0, where U(y_plus) -
# U(y_minus) is about 2|h|, rounding moves the time map by more than 1e-4.
_H_FLOOR = 1e-13


@dataclass
class BifurcationCell:
    d: float
    h: float
    classification: Optional[str]
    t_exit: float
    error: Optional[str] = None


@dataclass
class CurvePoint:
    d: float
    h_crit: float
    error: Optional[str] = None


def default_sweep_box() -> tuple[np.ndarray, np.ndarray]:
    """Fig-3-scale box: 13 log-spaced couplings, 21 linear tilts."""
    d_values = np.logspace(-3, -1, 13)
    h_values = -np.linspace(0.0, 0.1, 21)
    return d_values, h_values


def sweep(
    d_values: Sequence[float],
    h_values: Sequence[float],
    grid: Grid = Grid(),
    t_cap: float = DEFAULT_T_CAP,
    jobs: int = 1,
) -> list[BifurcationCell]:
    """Classify every (d, h) cell of the DoubleWell(h) tilt plane, row-major
    in (d, h) order, each relaxed on `grid` as `solve_stationary` would.

    The initial state is the smaller stable point of each cell's potential.
    Non-bistable cells are recorded with an error and the sweep continues.
    The bistable cells relax in one stack, one potential per row
    (`pde._relax`; a tilt's cells share one DoubleWell(h) object, so 0.0
    and -0.0 stay two tilts), and its steady rows are Numerov-polished in
    one stack (`stationary._newton_polish`), each cell bit-identical to
    solving it alone; with jobs > 1 they split into at most `jobs`
    contiguous stacks, one per worker of a process pool, output order
    unchanged.  A t_cap that is not finite and >= 0 raises ValueError
    before any work, whether or not a tilt is bistable.
    """
    check_time("t_cap", t_cap)
    d_values = [float(d) for d in d_values]
    specs = [DoubleWell(float(h)) for h in h_values]
    bistable = [find_stationary_points(spec).is_bistable for spec in specs]
    cells = [(spec, d, None) for d in d_values for spec, ok in zip(specs, bistable) if ok]
    n = len(cells)
    workers = min(max(jobs, 1), n)
    stacks = [cells[n * i // workers : n * (i + 1) // workers] for i in range(workers)]
    args = (stacks, repeat(grid), repeat(t_cap))
    if workers > 1:
        # imported here: multiprocessing is costly to load and only a pool needs it;
        # scipy.linalg before the pool, so forked workers inherit it, not import it each
        from concurrent.futures import ProcessPoolExecutor

        from . import _lapack  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = chain.from_iterable(list(pool.map(_solve_cells, *args)))
    else:
        solved = chain.from_iterable(map(_solve_cells, *args))
    out = []
    for d in d_values:
        for spec, ok in zip(specs, bistable):
            if not ok:
                error = f"topology change: potential not bistable at h={spec.h}"
                out.append(BifurcationCell(d, spec.h, None, 0.0, error))
                continue
            sol = next(solved)
            # _solve_cells labels every unsteady run Other
            label = UNRESOLVED if sol.classification == OTHER else sol.classification
            out.append(BifurcationCell(d, spec.h, label, sol.t_exit))
    return out


def _dw_rest(y, z):
    """r(y, z) in U(y) - U(z) = (y - z) U'(z) + (y - z)^2 r(y, z), for every
    DoubleWell; r(z, z) = U''(z) / 2.  Written so that U(y) - U(z) never
    cancels."""
    return (y * y + 2.0 * y * z + 3.0 * z * z) / 4.0 - 0.5


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """_TIME_MAP_NODES Gauss-Legendre nodes and weights on [0, 1], computed on
    first use: Newton on the three-term recurrence of P_n from the guesses
    cos(pi (k - 1/4) / (n + 1/2)), which reaches rounding in four steps
    (Press et al., Numerical Recipes, 3rd ed., 2007, sec. 4.6)."""
    n = _TIME_MAP_NODES
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(5):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)  # P_n'(x)
        x = x - p1 / dp
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dp * dp)


def _time_piece(alpha, z, p_max, y_of):
    """int_0^p_max dp / sqrt(2 (alpha + p^2 r(y_of(p), z))) for each row of
    the column arrays alpha, p_max (and z), by Gauss-Legendre after
    p = c sinh(t), c = sqrt(alpha / r(z, z)) at most p_max: for small alpha
    the integrand peaks at p = 0 with width c, and is smooth in t."""
    t, w = _gauss_legendre()
    c = np.sqrt(alpha / np.maximum(_dw_rest(z, z), alpha / p_max**2))
    span = np.arcsinh(p_max / c)
    tt = span * t
    p = c * np.sinh(tt)
    f = np.cosh(tt) / np.sqrt(2.0 * (alpha + p * p * _dw_rest(y_of(p), z)))
    return (span * c)[:, 0] * (f @ w)


def _pot_time(centers: np.ndarray, h: float, y_plus: float) -> np.ndarray:
    """The time map tau(y_c) = int_{y_c}^{y_plus} dy / sqrt(2 (U(y) - U(y_c)))
    of DoubleWell(h) at each center y_c, split at the midpoint m.  Below m,
    y = y_c + p^2, so dy = 2 p dp and U(y) - U(y_c) = p^2 (U'(y_c) + p^2 r);
    above it, y = y_plus - p and U(y) - U(y_c) = U(y_plus) - U(y_c) + p^2 r,
    as U'(y_plus) = 0.  Both pieces stay smooth after `_time_piece`'s
    substitution, also near either end of the admissible centers, where
    U'(y_c) or U(y_plus) - U(y_c) tends to 0 and tau to infinity."""
    yc = centers[:, None]
    mid = 0.5 * (yc + y_plus)
    lower = _time_piece(yc**3 - yc - h, yc, np.sqrt(mid - yc), lambda p: yc + p * p)
    upper = _time_piece(
        -((yc - y_plus) ** 2) * _dw_rest(yc, y_plus),
        y_plus,
        y_plus - mid,
        lambda p: y_plus - p,
    )
    return 2.0 * lower + upper


def _min_pot_time(h: float) -> float:
    """min of the time map over the admissible centers (y_minus, y_c*) of
    DoubleWell(h), -2/(3 sqrt 3) < h < 0, where U(y_c*) = U(y_plus).

    One stage samples _CENTER_SAMPLES centers spaced s = (y_c* - y_minus) /
    (_CENTER_SAMPLES + 1); the least sample and its neighbours (the first or
    last three samples, if it is one of them) form the first triple.  Two
    refinements each sample v - s, v and v + s, where v is the vertex of the
    parabola through the current triple and s = s_prev^2 / (y_c* - y_minus):
    that vertex is off by O(s_prev^2), so the new triple holds the minimum.
    The value is the least sample or, if less, the last triple's vertex
    value.  A triple that is not convex, or whose vertex lies outside it,
    ends the search with the least sample.  22 centers in 3 `_pot_time`
    calls.

    The value agrees with a 9-stage, 32-center search within about
    2e-17 / |h| relative (1e-14 at h = -1e-3, 1e-12 at -1e-5, 5e-9 at
    -1e-9): near h = 0, U(y_plus) - U(y_c) is about 2|h| and loses the
    digits of |h| to rounding, which sets this floor."""
    roots = DoubleWell(h).stationary_roots()
    y_minus, y_plus = roots[0][0], roots[-1][0]
    width = math.sqrt(2.0 * (1.0 - y_plus * y_plus)) - y_plus - y_minus
    s = width / (_CENTER_SAMPLES + 1)
    yc = y_minus + s * np.arange(1, _CENTER_SAMPLES + 1)
    tau = _pot_time(yc, h, y_plus)
    best = float(tau.min())
    i = min(max(int(np.argmin(tau)), 1), _CENTER_SAMPLES - 2)
    v, tau = yc[i], tau[i - 1 : i + 2]
    for stage in range(3):
        t0, t1, t2 = tau
        curv = t0 - 2.0 * t1 + t2
        shift = 0.5 * (t0 - t2) / curv if curv > 0.0 else math.inf
        if not abs(shift) <= 1.0:
            return best
        if stage == 2:
            return min(best, float(t1 - (t2 - t0) ** 2 / (8.0 * curv)))
        v, s = v + s * shift, s * s / width
        tau = _pot_time(np.array([v - s, v, v + s]), h, y_plus)
        best = min(best, float(tau.min()))


def critical_curve(
    d_values: Sequence[float],
    h_bracket: tuple[float, float] = (-0.3, -1e-3),
    tol: float = 1e-4,
    grid: Grid = Grid(),
) -> list[CurvePoint]:
    """Critical tilt h_crit(d) of DoubleWell(h) for each coupling: the fold
    where the continuum pot branch of the problem pinned at y_plus ends.

    A symmetric pot with center y_c exists iff x_max = sqrt(d) tau(y_c), tau
    the time map (Smoller & Wasserman, J. Differential Equations 39, 1981;
    Schaaf, LNM 1458, 1990).  tau grows without bound at both ends of the
    admissible centers, so pots exist iff sqrt(d) min tau <= x_max, which
    holds for h below h_crit.  h_crit is the root of sqrt(d) min tau(h) /
    x_max - 1, found by `brent_root` in log(-h); no relaxation runs.  Each
    probe minimizes tau by `_min_pot_time`: 16 sampled centers and two
    parabolic refinements of 3, 22 centers in 3 time-map calls.  Every
    d must be positive and finite (ValueError, raised before any time-map
    work).

    grid: only its x_max is used.  h_crit is the continuum
    fold, which lies O(dx^2) from the fold of the n-point relaxation that
    `sweep` labels with.
    h_bracket: the search interval, ends in either order, both in
    (-2/(3 sqrt 3), -_H_FLOOR], where DoubleWell(h) is bistable, can hold a
    pot and its time map is resolved.
    A coupling whose bracket ends lie outside it, or hold pots at both or at
    neither, gets a CurvePoint with an error and h_crit NaN; the remaining
    couplings continue.
    tol: absolute tolerance on h_crit, positive and finite.  The root in
    log(-h) is found to tol / max|h_bracket|, so a fold much smaller than
    the bracket is also found to a relative accuracy of about that.  Near
    h = 0 rounding sets a floor whatever tol: min tau is within about
    2e-17 / |h| relative (`_min_pot_time`), and d log(min tau) / d log(-h)
    is only about -0.07 at h = -1e-5, so h_crit there is within about
    3e-11 relative.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    d_values = [float(d) for d in d_values]
    for d in d_values:
        check_coupling(d)
    h_lo, h_hi = sorted(float(h) for h in h_bracket)
    for h in (h_lo, h_hi):
        if not (h <= -_H_FLOOR and 27.0 * h * h < 4.0):
            error = (f"h_bracket end {h} outside (-2/(3 sqrt 3), -{_H_FLOOR:g}],"
                     " where DoubleWell(h) is bistable, can hold a pot and its"
                     " time map is resolved")
            return [CurvePoint(d, float("nan"), error) for d in d_values]
    u_lo, u_hi = math.log(-h_hi), math.log(-h_lo)
    tau_lo, tau_hi = _min_pot_time(h_hi), _min_pot_time(h_lo)
    curve: list[CurvePoint] = []
    for d in d_values:
        scale = math.sqrt(d) / grid.x_max
        f_lo, f_hi = scale * tau_lo - 1.0, scale * tau_hi - 1.0
        if (f_lo < 0.0) == (f_hi < 0.0):
            where = "both ends" if f_lo < 0.0 else "neither end"
            error = f"no fold in h_bracket: the pot branch exists at {where}"
            curve.append(CurvePoint(d, float("nan"), error))
            continue
        u = brent_root(
            lambda u: scale * _min_pot_time(-math.exp(u)) - 1.0,
            u_lo, u_hi, tol / -h_lo, fa=f_lo, fb=f_hi,
        )
        curve.append(CurvePoint(d, -math.exp(u)))
    return curve
