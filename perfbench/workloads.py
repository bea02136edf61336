"""The benchmark's four workloads: inputs from a seed, one timed pass, and the
output checks that decide which tasks of a pass failed.

Each workload's pass always has the same number of tasks. Where a seed-wide
choice of inputs would change the amount of work a pass does (the bisection
and near-critical sweep cells slow down chaotically with their distance to
the fold), the seed only jitters the inputs by a small relative amount, so
every seed feeds different floating-point inputs at the same cost.
"""
from __future__ import annotations

import csv
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from coupled_dynamics import bifurcation, cli, de, pde, potentials, stationary

POT = stationary.POT_SHAPED
UNI = stationary.UNIFORM
UNRESOLVED = bifurcation.UNRESOLVED


@dataclass
class Tally:
    """Checked tasks of one pass. `fi_spread` is the first-integral spread of
    the fig-2 pot solution, 0 on workloads that do not compute it."""

    attempted: int = 0
    failed: int = 0
    unresolved: int = 0
    fi_spread: float = 0.0

    def add(self, ok: bool, unresolved: bool = False) -> None:
        self.attempted += 1
        self.failed += not ok
        self.unresolved += unresolved


def attempt(fn, *args, **kwargs):
    """Run one task; an exception is reported and returned as its result."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return exc


def failed(result) -> bool:
    return isinstance(result, Exception)


def jitter(rng: np.random.Generator, values, rel: float) -> list[float]:
    values = np.asarray(values, dtype=float)
    return [float(v) for v in values * (1.0 + rel * rng.uniform(-1.0, 1.0, values.shape))]


class Stationary:
    """Fig-2 pair on Grid(1, 201), first integral, quadrature rebuild, refine
    chain 401 -> 801 -> 1601, and a 27-cell no-pot-shape sweep on
    Grid(1, 101) at three seeded tilts (one per third of [0.02, 0.1])."""

    D = 0.01
    H_POT, H_UNI = -0.01, 0.01
    REFINE = (401, 801, 1601)
    THEOREM_D = (1e-3, 1e-2, 1e-1)
    THEOREM_CELLS = 9  # per tilt: 3 couplings x 3 default initial values

    def inputs(self, rng):
        edges = np.linspace(0.02, 0.1, 4)
        return [float(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]

    def run(self, tilts):
        grid = pde.Grid(1.0, 201)
        pot_spec = potentials.DoubleWell(self.H_POT)
        out = {
            "pot": attempt(stationary.solve_stationary, pot_spec, self.D, grid=grid),
            "uni": attempt(
                stationary.solve_stationary,
                potentials.DoubleWell(self.H_UNI),
                self.D,
                grid=grid,
            ),
        }
        pot = out["pot"]
        if not failed(pot):
            out["fi"] = attempt(stationary.first_integral, pot, pot_spec, self.D)
            out["quad"] = attempt(
                stationary.quadrature_reconstruct,
                pot_spec,
                self.D,
                pot.first_integral_constant,
                float(pot.profile.values[grid.n_points // 2]),
                grid=grid,
            )
            prev, chain = pot, []
            for n in self.REFINE:
                prev = attempt(
                    stationary.refine_profile, prev, pot_spec, self.D, pde.Grid(1.0, n)
                )
                chain.append(prev)
                if failed(prev):
                    break
            out["refine"] = chain
        out["theorem"] = [
            attempt(
                stationary.verify_no_pot_shape,
                potentials.DoubleWell(h),
                list(self.THEOREM_D),
                grid=pde.Grid(1.0, 101),
            )
            for h in tilts
        ]
        return out

    def check(self, tilts, out) -> Tally:
        t = Tally()
        pot, uni = out["pot"], out["uni"]
        pot_ok = not failed(pot) and pot.steady and pot.classification == POT
        if pot_ok:
            v = pot.profile.values
            pot_ok = float(np.max(np.abs(v - v[::-1]))) < 1e-8
        t.add(pot_ok, unresolved=not failed(pot) and not pot.steady)
        t.add(
            not failed(uni) and uni.steady and uni.classification == UNI,
            unresolved=not failed(uni) and not uni.steady,
        )
        fi = out.get("fi")
        fi_ok = fi is not None and not failed(fi) and bool(np.all(np.isfinite(fi)))
        t.add(fi_ok)
        if fi_ok:
            t.fi_spread = float(fi.max() - fi.min())
        quad = out.get("quad")
        t.add(
            quad is not None
            and not failed(quad)
            and float(np.max(np.abs(quad.values - pot.profile.values))) < 5e-3
        )
        chain = out.get("refine", [])
        for i in range(len(self.REFINE)):
            fine = chain[i] if i < len(chain) else None
            t.add(fine is not None and not failed(fine) and fine.classification == POT)
        for report in out["theorem"]:
            for i in range(self.THEOREM_CELLS):
                if failed(report) or i >= len(report.cells):
                    t.add(False)
                    continue
                # Every cell ends Uniform at the seed commit; Other (no
                # definite answer) fails like PotShaped.
                cls = report.cells[i].classification
                t.add(report.passed and cls == UNI, unresolved=cls == stationary.OTHER)
        return t


class Sweep:
    """`cdl bifurcation` in-process on a fixed 5 x 7 subset of the fig-3 box
    (default_sweep_box) at n = 101, jobs = 1, each value jittered by a
    relative 1e-4 from the seed. The h = 0 column is included: at n = 101 its
    cells with d <= 0.01 run to t_cap and end Unresolved, and this subset
    keeps the two cheapest of them. Those two may end Unresolved, but only
    after running to t_cap; any other Unresolved cell fails its check."""

    D_INDEX = (0, 1, 9, 11, 12)  # of logspace(-3, -1, 13)
    H_INDEX = (0, 1, 2, 4, 7, 10, 20)  # of -linspace(0, 0.1, 21)
    MAY_STAY_UNRESOLVED = {(0, 0), (1, 0)}  # (d index, h index)
    T_CAP = 1e4  # the sweep's default relaxation time cap
    # Rows with a known outcome at every negative tilt, by d index: d = 0.001
    # is PotShaped (acceptance criterion 09 finds it so at h = -1e-4), d = 0.1
    # Uniform (its critical tilt is about -0.12).
    ANCHOR_ROWS = {0: POT, 12: UNI}

    def inputs(self, rng):
        d = np.logspace(-3, -1, 13)[list(self.D_INDEX)]
        h = -np.linspace(0.0, 0.1, 21)[list(self.H_INDEX)]
        return jitter(rng, d, 1e-4), jitter(rng, h, 1e-4)

    def run(self, grid):
        d_values, h_values = grid
        out_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=output_dir()))
        try:
            argv = [
                "bifurcation",
                "--d=" + ",".join(repr(d) for d in d_values),
                "--h=" + ",".join(repr(h) for h in h_values),
                "--n", "101",
                "--jobs", "1",
                "--out", str(out_dir),
            ]
            code = attempt(cli.main, argv)
            csv_path = out_dir / "bifurcation_sweep.csv"
            rows = []
            if csv_path.exists():
                with open(csv_path) as fh:
                    rows = list(csv.DictReader(fh))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return code, rows

    def check(self, grid, out) -> Tally:
        d_values, h_values = grid
        code, rows = out
        t = Tally()
        expected = [(d, h) for d in d_values for h in h_values]
        if code != 0 or len(rows) != len(expected):
            for _ in expected:
                t.add(False)
            return t
        labels, t_exit = {}, {}
        for (d, h), row in zip(expected, rows):
            same_cell = float(row["d"]) == d and float(row["h"]) == h
            labels[d, h] = row["classification"] if same_cell else "mismatch"
            t_exit[d, h] = float(row["t_exit"])
        for i, d in enumerate(d_values):
            row = [labels[d, h] for h in h_values]
            # Tilts run from 0 down to -0.1: once a cell is PotShaped, every
            # more negative tilt must be too.
            resolved = [c for c in row if c in (POT, UNI)]
            first_pot = resolved.index(POT) if POT in resolved else len(resolved)
            monotone = all(c == POT for c in resolved[first_pot:])
            for j, (h, c) in enumerate(zip(h_values, row)):
                cell = self.D_INDEX[i], self.H_INDEX[j]
                want = self.ANCHOR_ROWS.get(cell[0]) if cell[1] else None
                if c == UNRESOLVED:
                    ok = cell in self.MAY_STAY_UNRESOLVED and t_exit[d, h] >= self.T_CAP
                else:
                    ok = c in (POT, UNI) and (want is None or c == want)
                t.add(monotone and ok, unresolved=c == UNRESOLVED)
        return t


class Curve:
    """critical_curve at one coupling near d = 0.05 (jittered by a relative
    1e-7 from the seed), tol = 1e-3, Grid(1, 101)."""

    D = 0.05
    TOL = 1e-3
    BRACKET = (-0.3, -1e-3)

    def inputs(self, rng):
        return jitter(rng, [self.D], 1e-7)[0]

    def run(self, d):
        return attempt(
            bifurcation.critical_curve,
            [d],
            h_bracket=self.BRACKET,
            tol=self.TOL,
            grid=pde.Grid(1.0, 101),
        )

    def check(self, d, out) -> Tally:
        t = Tally()
        point = None if failed(out) or len(out) != 1 else out[0]
        ok = (
            point is not None
            and point.error is None
            and self.BRACKET[0] < point.h_crit < self.BRACKET[1]
        )
        t.add(ok, unresolved=point is not None and point.error is not None)
        return t

    def final_check(self, d, out) -> bool:
        """Cells 2 tol either side of h_crit land on the expected sides."""
        if failed(out) or out[0].error is not None:
            return False
        h = out[0].h_crit
        cells = attempt(
            bifurcation.sweep,
            [d],
            [h - 2 * self.TOL, h + 2 * self.TOL],
            grid=pde.Grid(1.0, 101),
        )
        return not failed(cells) and [c.classification for c in cells] == [POT, UNI]


class Thresholds:
    """BP and equal-height thresholds of 60 regular LDPC ensembles ((3, 6)
    plus 59 seeded from dv in 3..8, dv < dc <= dv + 13) and the DoubleWell
    Maxwell point."""

    POOL = [(dv, dc) for dv in range(3, 9) for dc in range(dv + 1, dv + 14)]
    ANCHOR = (3, 6)
    N = 60
    BP_3_6 = 0.4294

    def inputs(self, rng):
        others = [p for p in self.POOL if p != self.ANCHOR]
        pick = rng.choice(len(others), self.N - 1, replace=False)
        ensembles = [self.ANCHOR] + [others[i] for i in pick]
        return [ensembles[i] for i in rng.permutation(self.N)]

    def run(self, ensembles):
        out = []
        for dv, dc in ensembles:
            bp = attempt(de.bp_threshold, dv, dc, tol=1e-6)
            eh = bp
            if not failed(bp):
                eh = attempt(
                    potentials.equal_height_parameter,
                    lambda eps, dv=dv, dc=dc: potentials.LdpcBec(eps, dv, dc),
                    (bp + 1e-3, dv / dc),
                )
            out.append((bp, eh))
        maxwell = attempt(potentials.equal_height_parameter, potentials.DoubleWell, (-0.1, 0.1))
        return out, maxwell

    def check(self, ensembles, out) -> Tally:
        pairs, maxwell = out
        t = Tally()
        for (dv, dc), (bp, eh) in zip(ensembles, pairs):
            ok = not failed(eh) and bp < eh < dv / dc
            if ok and (dv, dc) == self.ANCHOR:
                ok = abs(bp - self.BP_3_6) <= 2e-4
            t.add(ok)
        t.add(not failed(maxwell) and abs(maxwell) <= 1e-10)
        return t


WORKLOADS = {
    "stationary": Stationary(),
    "sweep": Sweep(),
    "curve": Curve(),
    "thresholds": Thresholds(),
}


def output_dir() -> Path:
    """Run outputs go under the benchmark's own ignored `out/` directory."""
    path = Path(__file__).resolve().parent / "out"
    path.mkdir(exist_ok=True)
    return path
