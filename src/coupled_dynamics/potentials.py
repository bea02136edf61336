"""Scalar multistable potential families and their stationary-point analysis.

Two families are provided: a tilted double-well polynomial and the potential
whose gradient reproduces the density-evolution recursion of regular LDPC
ensembles over the binary erasure channel.  Both expose the potential, its
first two derivatives in closed form, root finding for the stationary points,
and the equal-height (Maxwell) parameter of a bistable family.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, isnan
from typing import Callable, Optional, Sequence

import numpy as np

ROOT_TOL = 1e-12
SCAN_POINTS = 10_000
# Relative tolerance and iteration cap of brent_root, as in scipy's brentq.
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


class DomainError(ValueError):
    """State value outside the potential's admissible interval."""


class BracketingError(ValueError):
    """Root bracket does not contain a sign change."""


class TopologyChangeError(ValueError):
    """Potential lost bistability at some probed parameter."""

    def __init__(self, message: str, parameter: float):
        super().__init__(message)
        self.parameter = parameter


class NoStationaryPointError(RuntimeError):
    """Gradient has no roots on the domain (should not happen for valid specs)."""


class Potential:
    """Base class: a scalar potential U on an interval, with its first and
    second derivatives U' and U'' in closed form."""

    domain: tuple[float, float]

    def potential(self, y):
        raise NotImplementedError

    def gradient(self, y):
        raise NotImplementedError

    def _check_domain(self, y):
        """y as a float array; DomainError naming the first value outside the
        domain (and its index, for arrays).  NaN passes."""
        arr = np.asarray(y, dtype=float)
        lo, hi = self.domain
        if np.any(arr < lo) or np.any(arr > hi):
            idx = tuple(int(i) for i in np.argwhere((arr < lo) | (arr > hi))[0])
            where = f" at index {idx[0] if len(idx) == 1 else idx}" if idx else ""
            raise DomainError(
                f"state outside domain [{lo}, {hi}]: {float(arr[idx])}{where}"
            )
        return arr

    def gradient_unchecked(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized dU/dy without the domain check, for callers whose states
        lie inside the domain by construction.  `gradient` is this formula
        behind the domain check."""
        raise NotImplementedError

    def curvature_unchecked(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized d^2U/dy^2 without the domain check, for the Jacobians of
        the relaxation and Newton solvers."""
        raise NotImplementedError


def _maybe_scalar(arr, template):
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(arr)
    return arr


@dataclass(frozen=True)
class DoubleWell(Potential):
    """Tilted double-well U(y) = y^4/4 - y^2/2 - h*y on a finite interval.

    The default interval [-2, 2] contains every real root of y^3 - y - h for
    the tilt range |h| <= 0.3 used in the sweeps here.
    """

    h: float
    domain: tuple[float, float] = (-2.0, 2.0)

    def potential(self, y):
        arr = self._check_domain(y)
        a2 = arr * arr
        return _maybe_scalar(a2 * (0.25 * a2 - 0.5) - self.h * arr, y)

    def gradient(self, y):
        return _maybe_scalar(self.gradient_unchecked(self._check_domain(y)), y)

    def gradient_unchecked(self, arr):
        return arr * arr * arr - arr - self.h

    def curvature_unchecked(self, arr):
        return 3.0 * arr * arr - 1.0


@dataclass(frozen=True)
class LdpcBec(Potential):
    """Potential whose descent step is the (dv, dc)-regular BEC recursion.

    U(y) = int_0^y [z - eps * (1 - (1 - z)^(dc-1))^(dv-1)] dz, evaluated in
    closed form via the binomial expansion of the integrand.
    """

    epsilon: float
    dv: int
    dc: int
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.dv < 2 or self.dc < 2:
            raise ValueError(f"degrees must be >= 2, got dv={self.dv}, dc={self.dc}")

    def potential(self, y):
        arr = self._check_domain(y)
        n = self.dv - 1
        m = self.dc - 1
        # int_0^y (1 - (1-z)^m)^n dz = sum_k C(n,k)(-1)^k (1 - (1-y)^(mk+1))/(mk+1)
        acc = np.zeros_like(arr, dtype=float)
        one_minus = 1.0 - arr
        for k in range(n + 1):
            p = m * k + 1
            acc += comb(n, k) * (-1.0) ** k * (1.0 - one_minus**p) / p
        return _maybe_scalar(arr**2 / 2.0 - self.epsilon * acc, y)

    def gradient(self, y):
        return _maybe_scalar(self.gradient_unchecked(self._check_domain(y)), y)

    def gradient_unchecked(self, arr):
        return arr - self.epsilon * (1.0 - (1.0 - arr) ** (self.dc - 1)) ** (self.dv - 1)

    def curvature_unchecked(self, arr):
        n, m = self.dv - 1, self.dc - 1
        t = 1.0 - arr
        return 1.0 - self.epsilon * n * m * (1.0 - t**m) ** (n - 1) * t ** (m - 1)


@dataclass(frozen=True)
class ReflectedPotential(Potential):
    """Mirror image U_ref(y) = U(-y), mapping the smallest stable point of the
    base potential onto the largest stable point of the reflection."""

    base: Potential
    domain: tuple[float, float] = field(init=False)

    def __post_init__(self):
        lo, hi = self.base.domain
        object.__setattr__(self, "domain", (-hi, -lo))

    def potential(self, y):
        arr = self._check_domain(y)
        return _maybe_scalar(np.asarray(self.base.potential(-arr), dtype=float), y)

    def gradient(self, y):
        return _maybe_scalar(self.gradient_unchecked(self._check_domain(y)), y)

    def gradient_unchecked(self, arr):
        return -self.base.gradient_unchecked(-arr)

    def curvature_unchecked(self, arr):
        return self.base.curvature_unchecked(-arr)


@dataclass(frozen=True)
class StationaryPoint:
    y: float
    stable: bool


@dataclass(frozen=True)
class StationaryPointSet:
    """Sorted roots of dU/dy on the domain, each classified stable or not by
    the direction in which dU/dy changes sign there."""

    points: tuple[StationaryPoint, ...]

    @property
    def stable_points(self) -> list[float]:
        return [p.y for p in self.points if p.stable]

    @property
    def unstable_points(self) -> list[float]:
        return [p.y for p in self.points if not p.stable]

    @property
    def y_minus(self) -> float:
        return self.stable_points[0]

    @property
    def y_plus(self) -> float:
        return self.stable_points[-1]

    @property
    def is_bistable(self) -> bool:
        return len(self.stable_points) >= 2


def brent_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    fa: Optional[float] = None,
    fb: Optional[float] = None,
) -> float:
    """Root of f between a and b by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).

    The loop of scipy's brentq step for step, with rtol = 4 eps and at most
    100 iterations, so it returns the same float.  fa and fb, when given, are
    f(a) and f(b), which are then not evaluated again.  An exact zero at an
    end returns that end.  Ends of the same sign raise BracketingError, a NaN
    value ValueError, and a run without convergence RuntimeError.
    """

    def checked(x: float, fx: float) -> float:
        if isnan(fx):
            raise ValueError(f"function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = checked(xpre, float(f(xpre) if fa is None else fa))
    fcur = checked(xcur, float(f(xcur) if fb is None else fb))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre > 0.0) == (fcur > 0.0):
        raise BracketingError(f"function has the same sign at both ends of [{a}, {b}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre > 0.0) != (fcur > 0.0):  # the root is between xpre and xcur
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # a zero denominator is an infinite step, which never passes
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else None
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisection
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = checked(xcur, float(f(xcur)))
    raise RuntimeError(
        f"failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}"
    )


@lru_cache(maxsize=16)
def _scan_nodes(lo_hex: str, hi_hex: str) -> np.ndarray:
    """find_stationary_points' read-only scan nodes over one domain.  The ends
    come as float.hex, so that a -0.0 end keeps its own entry."""
    ys = np.linspace(float.fromhex(lo_hex), float.fromhex(hi_hex), SCAN_POINTS)
    ys.flags.writeable = False
    return ys


def find_stationary_points(spec: Potential) -> StationaryPointSet:
    """Locate all roots of dU/dy by a dense sign scan plus `brent_root`.

    Scan nodes where |dU/dy| < ROOT_TOL are roots as they stand; each sign
    change between neighbouring nodes is refined with `brent_root`.  Scan
    and refinement stay inside the domain, so they use the unchecked
    gradient.  A root is stable (a minimum of U) when dU/dy rises through
    it: across its bracket, or, for a node root, towards its right neighbour
    (away from its left one at the right end of the domain).  A double root
    that touches zero between nodes without a sign change (a parameter
    within about 1e-9 of a fold) is not reported.
    """
    lo, hi = spec.domain
    ys = _scan_nodes(float(lo).hex(), float(hi).hex())
    g = spec.gradient_unchecked(ys)
    sign = np.sign(g)

    # Exact zeros at grid nodes (the LDPC family has one at y = 0), with the
    # direction of dU/dy read off the next node (the previous one at hi).
    last = SCAN_POINTS - 1
    roots = [
        (float(ys[i]), bool(sign[i + 1] > 0 if i < last else sign[i - 1] < 0))
        for i in np.flatnonzero(np.abs(g) < ROOT_TOL)
    ]

    def grad(z: float) -> float:
        return float(spec.gradient_unchecked(z))

    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        root = brent_root(grad, ys[i], ys[i + 1], 1e-14, fa=g[i], fb=g[i + 1])
        roots.append((root, bool(sign[i] < 0)))

    merged: list[StationaryPoint] = []
    for y, stable in sorted(roots, key=lambda root: root[0]):
        if merged and abs(y - merged[-1].y) < 1e-9:
            continue
        merged.append(StationaryPoint(y, stable))

    if not merged:
        raise NoStationaryPointError(
            "no stationary points found on the domain; invalid potential"
        )
    return StationaryPointSet(tuple(merged))


def equal_height_parameter(
    make_spec: Callable[[float], Potential],
    param_interval: Sequence[float],
    tol: float = 1e-10,
) -> float:
    """Parameter at which the two outer stable points have equal potential.

    `brent_root` on the height difference U(y_minus) - U(y_plus), which is
    smooth in the parameter (Yedla, Jian, Nguyen & Pfister, 2012), to within
    tol.  The bracket ends may come in either order.  Requires bistability at
    every probed parameter, a sign change across the bracket and tol > 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def height_diff(p: float) -> float:
        spec = make_spec(p)
        pts = find_stationary_points(spec)
        if not pts.is_bistable:
            raise TopologyChangeError(
                f"potential is not bistable at parameter {p}", p
            )
        u_minus, u_plus = spec.potential(np.array([pts.y_minus, pts.y_plus]))
        return float(u_minus - u_plus)

    a, b = float(param_interval[0]), float(param_interval[1])
    return brent_root(height_diff, a, b, tol, fa=height_diff(a), fb=height_diff(b))
