"""Uncoupled density-evolution recursion and its BP threshold.

The recursion y_{t+1} = eps * (1 - (1 - y_t)^(dc-1))^(dv-1) is a descent step
of the LdpcBec potential: y_{t+1} - y_t = -dU/dy(y_t), with g(y) =
1 - (1 - y)^(dc-1) from `potentials._ldpc_g`, relatively accurate near 0.
From y_0 = 1 it decays to zero exactly when eps is below the BP threshold
eps_BP, which `bp_threshold` reads, without running the recursion, from the
BP point (x_BP, eps_BP) of `potentials._ldpc_bp`.  `LdpcBec.stable_roots`
reads the same point: for dv, dc >= 3 it is bistable exactly when
eps > eps_BP, and its Newton solve for the stable root x+ never steps below
x_BP.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import LdpcBec, _check_degrees, _int_power, _ldpc_bp, _ldpc_g

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
    return spec.epsilon * _int_power(_ldpc_g(y, spec.dc - 1), spec.dv - 1)


def run_de(
    spec: LdpcBec,
    y0: float = 1.0,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = 1e-12,
) -> DeTrajectory:
    """Iterate the recursion from y0 until successive change < tol, a
    positive, finite tolerance."""
    if not 0.0 <= y0 <= 1.0:
        raise ValueError(f"y0 must be in [0, 1], got {y0}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    iterates = [y0]
    for _ in range(max_iter):
        iterates.append(de_step(spec, iterates[-1]))
        if abs(iterates[-1] - iterates[-2]) < tol:
            return DeTrajectory(np.array(iterates), True)
    return DeTrajectory(np.array(iterates), False)


def bp_threshold(dv: int, dc: int, tol: float = 1e-4) -> float:
    """Largest erasure probability from which the recursion decays to zero:
    eps_BP = min over x in (0, 1] of x / (1 - (1 - x)^(dc-1))^(dv-1)
    (Richardson & Urbanke, Modern Coding Theory, 2008), below which the map
    has no fixed point but 0, from the cached BP point of
    `potentials._ldpc_bp` (closed forms 1/(dc - 1) for dv = 2 and 1 for
    dc = 2).

    tol: a positive, finite tolerance in x, which the result always meets,
    since x_BP is solved to within 1e-14.
    """
    _check_degrees(dv, dc)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return _ldpc_bp(dv - 1, dc - 1)[1]
