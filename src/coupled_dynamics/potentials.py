"""Scalar multistable potential families and their stationary-point analysis.

Two families are provided: a tilted double-well polynomial and the potential
whose gradient reproduces the density-evolution recursion of regular LDPC
ensembles over the binary erasure channel, plus the mirror image of either.
Each states U, U' and U'' in closed form as array formulas without a domain
check (`potential_unchecked`, `gradient_unchecked`, `curvature_unchecked`),
and the base class's `potential` checks the domain in front of U.  U takes a
float or an array, with the same bits for both.  Each finds its stationary
points from its own structure: the roots of a cubic, level crossings of a
unimodal ratio, or the mirrored roots of the base.  The module
also finds the equal-height (Maxwell) parameter of a bistable family, whose
probes solve only for the stable roots (`Potential.stable_roots`).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

# xtol of the brent_root solves that place stationary points.
_ROOT_XTOL = 1e-14
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
        """U(y) behind the domain check; a float for a scalar or 0-d y."""
        return _maybe_scalar(self.potential_unchecked(self._check_domain(y)), y)

    def gradient(self, y):
        raise NotImplementedError

    def _check_domain(self, y):
        """y as a float array; DomainError naming the first value outside the
        domain (and its index, for arrays).  NaN passes."""
        arr = np.asarray(y, dtype=float)
        lo, hi = self.domain
        if (arr < lo).any() or (arr > hi).any():
            idx = tuple(int(i) for i in np.argwhere((arr < lo) | (arr > hi))[0])
            where = f" at index {idx[0] if len(idx) == 1 else idx}" if idx else ""
            raise DomainError(
                f"state outside domain [{lo}, {hi}]: {float(arr[idx])}{where}"
            )
        return arr

    def potential_unchecked(self, arr):
        """U without the domain check; `potential` checks.  arr is a float or
        an array: each family builds U from +, -, * and / alone, so a float
        gives the bits of an array entry holding it."""
        raise NotImplementedError

    def gradient_unchecked(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized dU/dy without the domain check, for callers whose states
        lie inside the domain by construction.  `gradient` is this formula
        behind the domain check."""
        raise NotImplementedError

    def curvature_unchecked(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized d^2U/dy^2 without the domain check, for the Jacobians of
        the relaxation and Newton solvers."""
        raise NotImplementedError

    def stationary_roots(self) -> list[tuple[float, bool]]:
        """Every isolated real root y of dU/dy as a (y, stable) pair, stable
        where U has a local minimum; `find_stationary_points` keeps those in
        the domain."""
        raise NotImplementedError

    def stable_roots(self) -> list[float]:
        """The stable roots of dU/dy, sorted: those of `stationary_roots`,
        which a family may find without solving for its unstable roots."""
        return sorted(y for y, stable in self.stationary_roots() if stable)


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

    def potential_unchecked(self, arr):
        a2 = arr * arr
        return a2 * (0.25 * a2 - 0.5) - self.h * arr

    def gradient(self, y):
        return _maybe_scalar(self.gradient_unchecked(self._check_domain(y)), y)

    def gradient_unchecked(self, arr):
        return arr * arr * arr - arr - self.h

    def curvature_unchecked(self, arr):
        return 3.0 * arr * arr - 1.0

    def stationary_roots(self):
        """Roots of y^3 - y - h, each finished by one Newton step: for
        27 h^2 < 4 the three of the trigonometric formula, the outer two
        stable; otherwise the one simple root, stable, from the hyperbolic
        formula (at the fold 27 h^2 = 4 the double root is not reported)."""
        h = self.h
        c = 1.5 * math.sqrt(3.0) * h
        if abs(c) >= 1.0:
            y = 2.0 / math.sqrt(3.0) * math.cosh(math.acosh(abs(c)) / 3.0)
            ys, stable = [math.copysign(y, h)], [True]
        else:
            phi = math.acos(c) / 3.0
            shifts = (4.0 * math.pi / 3.0, 2.0 * math.pi / 3.0, 0.0)
            ys = [2.0 / math.sqrt(3.0) * math.cos(phi - shift) for shift in shifts]
            stable = [True, False, True]
        return [(y - (y * y * y - y - h) / (3.0 * y * y - 1.0), s) for y, s in zip(ys, stable)]


@dataclass(frozen=True)
class LdpcBec(Potential):
    """Potential whose descent step is the (dv, dc)-regular BEC recursion.

    U(y) = int_0^y [z - eps * (1 - (1 - z)^(dc-1))^(dv-1)] dz, evaluated in
    closed form via the binomial expansion of the integrand: with
    n = dv - 1 and m = dc - 1, int_0^y (1 - (1-z)^m)^n dz =
    sum_k C(n,k) (-1)^k (1 - (1-y)^(mk+1)) / (mk+1), k = 0..n.  With
    t = 1 - y and s = t^m by repeated squaring, the terms
    (1 - t s^k) c_k over coefficients c_k cached per (n, m)
    (`_ldpc_potential_coefficients`) are added in the order k = 0..n, from
    +, -, * and / alone (no `**`, whose numpy loop can differ from libm's
    pow in the last bit), so a float and an array entry give the same bits.
    """

    epsilon: float
    dv: int
    dc: int
    domain: tuple[float, float] = field(default=(0.0, 1.0), init=False)

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        _check_degrees(self.dv, self.dc)

    def potential_unchecked(self, arr):
        n, m = self.dv - 1, self.dc - 1
        t = 1.0 - arr
        s = _int_power(t, m)
        acc, ts = 1.0 - t, t  # the k = 0 term, c_0 = 1
        for c in _ldpc_potential_coefficients(n, m):
            ts = ts * s
            acc = acc + (1.0 - ts) * c
        return arr * arr / 2.0 - self.epsilon * acc

    def gradient(self, y):
        return _maybe_scalar(self.gradient_unchecked(self._check_domain(y)), y)

    def gradient_unchecked(self, arr):
        return arr - self.epsilon * (1.0 - (1.0 - arr) ** (self.dc - 1)) ** (self.dv - 1)

    def curvature_unchecked(self, arr):
        n, m = self.dv - 1, self.dc - 1
        t = 1.0 - arr
        return 1.0 - self.epsilon * n * m * (1.0 - t**m) ** (n - 1) * t ** (m - 1)

    def stable_roots(self):
        """The stable roots among y = 0 and the level crossings
        eps(x) = epsilon in (0, 1] of eps(x) = x / g(x)^n, g(x) = 1 - (1-x)^m,
        n = dv - 1, m = dc - 1 (Richardson & Urbanke, Modern Coding Theory,
        2008), where dU/dy = x - epsilon g(x)^n changes sign.

        For n, m >= 2, eps(x) falls from +inf to its minimum at x_BP
        (`_ldpc_x_bp`), then rises to eps(1) = 1.  Below the minimum 0 is
        the only root; above it 0 is stable, and so is x+ in
        [x_BP, epsilon], exactly 1 at epsilon = 1.  For n = 1 dU/dy is convex
        with slope 1 - epsilon m at 0: 0 is stable if that slope is >= 0,
        else unstable with a stable root x+ in [the minimum of dU/dy,
        epsilon].  Either way x+ <= epsilon, as x+ = epsilon g(x+)^n with
        g <= 1; and dU/dy(epsilon) = epsilon (1 - g(epsilon)^n) >= 0,
        zero only at epsilon = 1, so epsilon closes the bracket.  For m = 1
        dU/dy = x - epsilon x^n, whose only root but 0 is 1 at epsilon = 1;
        n = m = 1 with epsilon = 1 (dU/dy = 0 everywhere) is a ValueError.

        For n, m >= 2, x+ is found by Newton from epsilon with the exact U''.
        Each step x - dU/dy / U'' is computed inline from one t = 1 - x and
        g = 1 - t^m, with the operations of `gradient_unchecked` and
        `curvature_unchecked` in their order, so it has their bits without
        their two calls.  (g^n)'' <= 0 wherever (1-x)^m <=
        (m - 1)/(nm - 1), that is from an inflection x_c on; Bernoulli's
        inequality gives s(x_c) <= 0 for the slope function s of
        `_ldpc_x_bp`, so x_BP >= x_c and dU/dy is convex on [x_BP, 1], and
        increasing on [x+, 1] as it is negative at x_BP.  Each Newton step
        from above x+ therefore lands in [x+, x): the iterates fall
        monotonically to x+, and the loop stops at the first step that would
        not fall or would leave (x_BP, x), the rounding floor.  No iterate
        leaves [x_BP, epsilon], so none reaches the unstable root.  For
        n = 1, x+ stays a `brent_root`: just above epsilon m = 1 it lies near
        0, where dU/dy is the difference of two nearly equal terms, and a
        Newton stop there can miss x+ by more than 1e-8 relative, so dU/dy
        does not change sign across x+ (1 -+ 1e-8).
        """
        n, m, eps = self.dv - 1, self.dc - 1, self.epsilon
        grad = self.gradient_unchecked  # on floats here
        if m == 1:
            if n == 1 and eps == 1.0:
                raise ValueError("dU/dy vanishes identically for dv = dc = 2, epsilon = 1")
            return [0.0]
        if n == 1:
            if eps * m <= 1.0:
                return [0.0]
            lo = 1.0 - (eps * m) ** (-1.0 / (m - 1))  # the minimum of dU/dy
            return [brent_root(grad, lo, eps, _ROOT_XTOL)]
        x_bp = _ldpc_x_bp(n, m)
        g_bp = grad(x_bp)
        if not g_bp < 0.0:
            return [0.0]
        x, enm = eps, eps * n * m
        while True:
            t = 1.0 - x
            g = 1.0 - t**m
            nxt = x - (x - eps * g**n) / (1.0 - enm * g ** (n - 1) * t ** (m - 1))
            if not x_bp < nxt < x:
                return [0.0, x]
            x = nxt

    def stationary_roots(self):
        """`stable_roots`, and the unstable roots beside and between them.
        y = 0 is a root at every epsilon and y = 1 one at epsilon = 1, each
        unstable where `stable_roots` does not list it (0 for n = 1 once
        epsilon m > 1, 1 for m = 1).  Between the two stable roots of
        n, m >= 2 lies an unstable one in [a, x_BP], where g(x) <= m x makes
        dU/dy(a) > 0."""
        stable = self.stable_roots()
        ends = (0.0, 1.0) if self.epsilon == 1.0 else (0.0,)
        roots = [(y, True) for y in stable] + [(y, False) for y in ends if y not in stable]
        if len(stable) == 2:
            n, m = self.dv - 1, self.dc - 1
            x_bp = _ldpc_x_bp(n, m)
            a = min(0.5 * (self.epsilon * m**n) ** (-1.0 / (n - 1)), 0.5 * x_bp)
            roots.append((brent_root(self.gradient_unchecked, a, x_bp, _ROOT_XTOL), False))
        return sorted(roots)


def _check_degrees(dv, dc) -> None:
    """ValueError unless dv and dc are integers >= 2, the degrees of a
    regular LDPC ensemble."""
    if not all((type(d) is int or isinstance(d, numbers.Integral)) and d >= 2 for d in (dv, dc)):
        raise ValueError(f"degrees must be integers >= 2, got dv={dv!r}, dc={dc!r}")


@lru_cache(maxsize=128)
def _ldpc_potential_coefficients(n: int, m: int) -> tuple[float, ...]:
    """The coefficients c_k = C(n,k) (-1)^k / (mk + 1), k = 1..n, of the
    binomial expansion in `LdpcBec.potential_unchecked` (c_0 = 1)."""
    return tuple(math.comb(n, k) * (-1.0) ** k / (m * k + 1.0) for k in range(1, n + 1))


def _int_power(x, e: int):
    """x^e for an integer e >= 1 by repeated squaring, from products alone,
    so a float and an array give the same bits."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if not e:
            return result
        x = x * x


@lru_cache(maxsize=128)
def _ldpc_x_bp(n: int, m: int) -> float:
    """The minimizer x_BP of x / g(x)^n, g(x) = 1 - (1-x)^m, for n, m >= 2
    (n = dv - 1, m = dc - 1): the root of s(x) = 1 - (1-x)^m -
    n m x (1-x)^(m-1), which has the sign of the slope of log(x / g(x)^n).

    s has exactly one root in (0, 1), and it lies in ((n - 1)/(nm - 1), 1): in
    t = 1 - x its derivative m t^(m-2) ((nm - 1) t - n (m - 1)) changes sign
    once, at x = (n - 1)/(nm - 1), while s(x) -> 0- as x -> 0 and s(1) = 1.
    """

    def slope(x):
        return 1.0 - (1.0 - x) ** m - n * m * x * (1.0 - x) ** (m - 1)

    return brent_root(slope, (n - 1) / (n * m - 1), 1.0, _ROOT_XTOL)


@dataclass(frozen=True)
class ReflectedPotential(Potential):
    """Mirror image U_ref(y) = U(-y), mapping the smallest stable point of the
    base potential onto the largest stable point of the reflection."""

    base: Potential
    domain: tuple[float, float] = field(init=False)

    def __post_init__(self):
        lo, hi = self.base.domain
        object.__setattr__(self, "domain", (-hi, -lo))

    def potential_unchecked(self, arr):
        return self.base.potential_unchecked(-arr)

    def gradient(self, y):
        return _maybe_scalar(self.gradient_unchecked(self._check_domain(y)), y)

    def gradient_unchecked(self, arr):
        return -self.base.gradient_unchecked(-arr)

    def curvature_unchecked(self, arr):
        return self.base.curvature_unchecked(-arr)

    def stationary_roots(self):
        return [(-y, stable) for y, stable in reversed(self.base.stationary_roots())]

    def stable_roots(self):
        return [-y for y in reversed(self.base.stable_roots())]


@dataclass(frozen=True)
class StationaryPoint:
    y: float
    stable: bool


@dataclass(frozen=True)
class StationaryPointSet:
    """Sorted roots of dU/dy on the domain, each marked stable (a minimum of
    U) or unstable."""

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
        if math.isnan(fx):
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


def find_stationary_points(spec: Potential) -> StationaryPointSet:
    """The roots of dU/dy that lie in spec.domain, sorted, each with its
    stability, from the family's own `Potential.stationary_roots` (closed
    forms and bracketed `brent_root` solves; no scan).  NoStationaryPointError
    when none lies in the domain.
    """
    lo, hi = spec.domain
    roots = sorted((y, stable) for y, stable in spec.stationary_roots() if lo <= y <= hi)
    if not roots:
        raise NoStationaryPointError(
            "no stationary points found on the domain; invalid potential"
        )
    return StationaryPointSet(tuple(StationaryPoint(y, stable) for y, stable in roots))


def equal_height_parameter(
    make_spec: Callable[[float], Potential],
    param_interval: Sequence[float],
    tol: float = 1e-10,
) -> float:
    """Parameter at which the two outer stable points have equal potential.

    `brent_root` on the height difference U(y_minus) - U(y_plus), which is
    smooth in the parameter (Yedla, Jian, Nguyen & Pfister, 2012), to within
    tol.  Each probe reads the outer two of the stable roots in the domain
    (`Potential.stable_roots`), so it solves for no unstable root, and reads
    U at each of those wells as a float, unchecked (`potential_unchecked`),
    with no array built.  The bracket ends may come in either order.
    Requires bistability at every probed parameter, a sign change across the
    bracket and 0 < tol < inf.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    def height_diff(p: float) -> float:
        spec = make_spec(p)
        lo, hi = spec.domain
        wells = [y for y in spec.stable_roots() if lo <= y <= hi]
        if len(wells) < 2:
            raise TopologyChangeError(
                f"potential is not bistable at parameter {p}", p
            )
        return spec.potential_unchecked(wells[0]) - spec.potential_unchecked(wells[-1])

    a, b = float(param_interval[0]), float(param_interval[1])
    return brent_root(height_diff, a, b, tol)
