"""Parameter sweeps over coupling strength and tilt, and the critical curve
separating pot-shaped from uniform outcomes when the boundary is pinned to a
metastable point."""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .pde import Grid
from .potentials import DoubleWell, find_stationary_points
from .stationary import OTHER, POT_SHAPED, UNIFORM, solve_stationary

UNRESOLVED = "Unresolved"

DEFAULT_T_CAP = 1e4


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


def _classify_cell(d: float, h: float, grid: Optional[Grid], t_cap: float) -> BifurcationCell:
    spec = DoubleWell(h)
    pts = find_stationary_points(spec)
    if not pts.is_bistable:
        return BifurcationCell(
            d=d,
            h=h,
            classification=None,
            t_exit=0.0,
            error=f"topology change: potential not bistable at h={h}",
        )
    sol = solve_stationary(spec, d, grid=grid, y0=pts.y_minus, t_cap=t_cap)
    if not sol.steady or sol.classification == OTHER:
        return BifurcationCell(d=d, h=h, classification=UNRESOLVED, t_exit=sol.t_exit)
    return BifurcationCell(d=d, h=h, classification=sol.classification, t_exit=sol.t_exit)


def sweep(
    d_values: Sequence[float],
    h_values: Sequence[float],
    grid: Optional[Grid] = None,
    t_cap: float = DEFAULT_T_CAP,
    jobs: int = 1,
) -> list[BifurcationCell]:
    """Classify every (d, h) cell of the DoubleWell(h) tilt plane, row-major
    in (d, h) order.

    The initial state is the smaller stable point of each cell's potential.
    Non-bistable cells are recorded with an error and the sweep continues.
    Cells are independent; with jobs > 1 they run on a process pool of at
    most one worker per cell, output order unchanged.
    """
    cells = [(float(d), float(h)) for d in d_values for h in h_values]
    workers = min(jobs, len(cells))
    if workers > 1:
        ds, hs = zip(*cells)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_classify_cell, ds, hs, repeat(grid), repeat(t_cap)))
    return [_classify_cell(d, h, grid, t_cap) for d, h in cells]


def critical_curve(
    d_values: Sequence[float],
    h_bracket: tuple[float, float] = (-0.3, -1e-3),
    tol: float = 1e-4,
    grid: Optional[Grid] = None,
    t_cap: float = DEFAULT_T_CAP,
) -> list[CurvePoint]:
    """Bisect the Uniform/PotShaped boundary in the DoubleWell tilt h for each
    coupling value.

    The bracket endpoints must classify differently; couplings where they do
    not (or where a probe stays unresolved) are reported with an error and
    the remaining couplings continue.  tol must be positive: bisection stalls
    once the bracket ends are adjacent floats.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    curve: list[CurvePoint] = []
    for d in d_values:
        d = float(d)
        cls_a = _classify_cell(d, h_bracket[0], grid, t_cap).classification
        cls_b = _classify_cell(d, h_bracket[1], grid, t_cap).classification
        if cls_a == cls_b or UNRESOLVED in (cls_a, cls_b) or None in (cls_a, cls_b):
            curve.append(
                CurvePoint(
                    d=d,
                    h_crit=float("nan"),
                    error=f"no classification change across bracket ({cls_a}, {cls_b})",
                )
            )
            continue
        h_pot = h_bracket[0] if cls_a == POT_SHAPED else h_bracket[1]
        h_uni = h_bracket[1] if cls_a == POT_SHAPED else h_bracket[0]
        failed = False
        while abs(h_pot - h_uni) > tol:
            mid = 0.5 * (h_pot + h_uni)
            cls_m = _classify_cell(d, mid, grid, t_cap).classification
            if cls_m == POT_SHAPED:
                h_pot = mid
            elif cls_m == UNIFORM:
                h_uni = mid
            else:
                curve.append(
                    CurvePoint(
                        d=d,
                        h_crit=float("nan"),
                        error=f"unresolved cell at h={mid} during bisection",
                    )
                )
                failed = True
                break
        if not failed:
            curve.append(CurvePoint(d=d, h_crit=0.5 * (h_pot + h_uni)))
    return curve
