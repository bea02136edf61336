"""Uncoupled density-evolution recursion and BP-threshold bisection.

The recursion y_{t+1} = eps * (1 - (1 - y_t)^(dc-1))^(dv-1) is a descent step
of the LdpcBec potential: y_{t+1} - y_t = -dU/dy(y_t).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import LdpcBec

ZERO_CUTOFF = 1e-9
DEFAULT_MAX_ITER = 100_000


@dataclass
class DeTrajectory:
    eps: float
    dv: int
    dc: int
    iterates: np.ndarray
    converged: bool
    fixed_point: float


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
    y = y0
    converged = False
    for _ in range(max_iter):
        y_next = de_step(spec, y)
        iterates.append(y_next)
        if abs(y_next - y) < tol:
            converged = True
            y = y_next
            break
        y = y_next
    return DeTrajectory(
        eps=spec.epsilon,
        dv=spec.dv,
        dc=spec.dc,
        iterates=np.array(iterates),
        converged=converged,
        fixed_point=float(y),
    )


def _decays_to_zero(eps: float, dv: int, dc: int) -> bool:
    y = 1.0
    n = dv - 1
    m = dc - 1
    for _ in range(DEFAULT_MAX_ITER):
        y_next = eps * (1.0 - (1.0 - y) ** m) ** n
        if y_next < ZERO_CUTOFF:
            return True
        if abs(y_next - y) < 1e-14:
            return False
        y = y_next
    return False


def bp_threshold(dv: int, dc: int, tol: float = 1e-4) -> float:
    """Largest erasure probability from which the recursion decays to zero.

    Bisection on eps over [0, 1]; an eps counts as below threshold when the
    recursion from y0 = 1 drops under 1e-9 within DEFAULT_MAX_ITER steps.
    """
    if dv < 2 or dc < 2:
        raise ValueError(f"degrees must be >= 2, got dv={dv}, dc={dc}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _decays_to_zero(mid, dv, dc):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
