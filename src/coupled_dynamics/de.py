"""Uncoupled density-evolution recursion and its BP threshold.

The recursion y_{t+1} = eps * (1 - (1 - y_t)^(dc-1))^(dv-1) is a descent step
of the LdpcBec potential: y_{t+1} - y_t = -dU/dy(y_t).  From y_0 = 1 it decays
to zero exactly when eps is below the BP threshold, which `bp_threshold`
takes, without running the recursion, at the minimizer x_BP (closed forms for
dv = 2, dc = 2).  `LdpcBec.stable_roots` reads dU/dy at the same x_BP to
decide bistability, and its Newton solve for the stable root x+ never steps
below it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import LdpcBec, _check_degrees, _ldpc_x_bp

DEFAULT_MAX_ITER = 100_000


@dataclass
class DeTrajectory:
    iterates: np.ndarray
    converged: bool

    @property
    def fixed_point(self) -> float:
        return float(self.iterates[-1])


def de_step(spec: LdpcBec, y: float) -> float:
    """One recursion update; equals y - dU/dy(y)."""
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"state must be in [0, 1], got {y}")
    return spec.epsilon * (1.0 - (1.0 - y) ** (spec.dc - 1)) ** (spec.dv - 1)


def run_de(
    spec: LdpcBec,
    y0: float = 1.0,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = 1e-12,
) -> DeTrajectory:
    """Iterate the recursion from y0 until successive change < tol."""
    if not 0.0 <= y0 <= 1.0:
        raise ValueError(f"y0 must be in [0, 1], got {y0}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    iterates = [y0]
    for _ in range(max_iter):
        iterates.append(de_step(spec, iterates[-1]))
        if abs(iterates[-1] - iterates[-2]) < tol:
            return DeTrajectory(np.array(iterates), True)
    return DeTrajectory(np.array(iterates), False)


def bp_threshold(dv: int, dc: int, tol: float = 1e-4) -> float:
    """Largest erasure probability from which the recursion decays to zero.

    eps_BP = min over x in (0, 1] of x / (1 - (1 - x)^(dc-1))^(dv-1)
    (Richardson & Urbanke, Modern Coding Theory, 2008): below it the map has
    no fixed point but 0.  For dv, dc >= 3 the minimum is the ratio at x_BP
    (`potentials._ldpc_x_bp`).  For dc = 2 the ratio x^(2-dv) is least at
    x = 1, so eps_BP = 1; for dv = 2 it increases in x, so the infimum is its
    x -> 0 limit 1/(dc - 1).

    tol: a positive tolerance in x, which the result always meets, since x_BP
    is solved to within 1e-14.
    """
    _check_degrees(dv, dc)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if dv == 2:
        return 1.0 / (dc - 1)
    if dc == 2:
        return 1.0
    n, m = dv - 1, dc - 1
    x = _ldpc_x_bp(n, m)
    return x / (1.0 - (1.0 - x) ** m) ** n
