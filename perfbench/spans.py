"""Per-layer tracing of coupled_dynamics from outside the package.

A `Tracer` replaces the package's public functions with timing wrappers on
every module binding that refers to them (modules import each other's
functions with `from ... import`, so patching only the defining module would
miss most calls), and counts gradient evaluations on the potential classes.
Spans stay in memory; `metrics()` turns them into per-layer numbers and
`dump()` writes them out.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.linalg

# Public entry points that get a span, as (module, function). solve_banded is
# scipy's, but the span goes on the binding in `stationary`, the Newton polish's
# only caller.
SPANNED = (
    ("cli", "main"),
    ("bifurcation", "sweep"),
    ("bifurcation", "critical_curve"),
    ("stationary", "solve_stationary"),
    ("stationary", "refine_profile"),
    ("stationary", "quadrature_reconstruct"),
    ("stationary", "verify_no_pot_shape"),
    ("pde", "integrate"),
    ("potentials", "find_stationary_points"),
    ("potentials", "equal_height_parameter"),
    ("de", "bp_threshold"),
)
GRADIENT_CLASSES = ("DoubleWell", "LdpcBec", "ReflectedPotential")
GRADIENT_METHODS = ("gradient", "gradient_unchecked")

# Span record fields.
NAME, PARENT, START, END, GRADS, RESULT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._in_gradient = False
        self.gradient_calls = 0
        self.gradient_nodes = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import coupled_dynamics

        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "coupled_dynamics" or name.startswith("coupled_dynamics.")
        ]
        targets = [
            (f"{mod}.{fn}", getattr(getattr(coupled_dynamics, mod), fn))
            for mod, fn in SPANNED
        ]
        targets.append(("stationary.solve_banded", scipy.linalg.solve_banded))
        for name, original in targets:
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for cls_name in GRADIENT_CLASSES:
            cls = getattr(coupled_dynamics.potentials, cls_name)
            for meth in GRADIENT_METHODS:
                self._patch(cls, meth, self._gradient_wrapper(vars(cls)[meth]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, name, fn):
        """`fn` recording a span called `name` per call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, stack[-1] if stack else -1, perf_counter(), 0.0, 0, None]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = perf_counter()
            record[RESULT] = _summarize(name, result)
            return result

        return traced

    def _gradient_wrapper(self, fn):
        spans, stack = self.spans, self._stack

        def counted(spec, y):
            # Only the outermost call counts: ReflectedPotential delegates to
            # its base potential's gradient.
            if self._in_gradient:
                return fn(spec, y)
            self._in_gradient = True
            try:
                return fn(spec, y)
            finally:
                self._in_gradient = False
                self.gradient_calls += 1
                self.gradient_nodes += np.size(y)
                if stack:
                    spans[stack[-1]][GRADS] += 1

        return counted

    # -- reporting --------------------------------------------------------

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, with times in raw seconds."""
        spans = self.spans
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for s, own in zip(spans, self._self_times()):
            calls[s[NAME]] += 1
            self_s[s[NAME]] += own

        def under(i: int, name: str) -> bool:
            while i >= 0:
                if spans[i][NAME] == name:
                    return True
                i = spans[i][PARENT]
            return False

        integrate = [s for s in spans if s[NAME] == "pde.integrate"]
        relax_steady = {s[PARENT]: s[RESULT][1] for s in integrate}
        solves = [i for i, s in enumerate(spans) if s[NAME] == "stationary.solve_stationary"]
        unsteady = [i for i in solves if relax_steady.get(i) is False]
        banded = [s for s in spans if s[NAME] == "stationary.solve_banded"]
        m = {
            "pde.integrate.calls": len(integrate),
            "pde.integrate.self_s": self_s["pde.integrate"],
            "pde.integrate.sim_time": sum(s[RESULT][0] for s in integrate),
            "pde.integrate.steady_frac": (
                sum(s[RESULT][1] for s in integrate) / len(integrate) if integrate else 0.0
            ),
            "pde.gradient_calls": sum(s[GRADS] for s in integrate),
            "pde.first_integrate.gradient_calls": integrate[0][GRADS] if integrate else 0,
            "stationary.newton_iters": len(banded),
            "stationary.newton_s": sum(s[END] - s[START] for s in banded),
            "stationary.relax_unsteady": len(unsteady),
            "stationary.newton_rescued": sum(1 for i in unsteady if spans[i][RESULT]),
            "bifurcation.curve_probes": sum(
                1 for i in solves if under(i, "bifurcation.critical_curve")
            ),
            "bifurcation.cells": sum(
                s[RESULT] for s in spans if s[NAME] == "bifurcation.sweep"
            ),
            "potentials.gradient.calls": self.gradient_calls,
            "potentials.gradient.nodes": self.gradient_nodes,
        }
        for name in (
            "stationary.solve_stationary",
            "potentials.find_stationary_points",
            "potentials.equal_height_parameter",
            "de.bp_threshold",
        ):
            m[f"{name}.calls"] = calls[name]
        for name in (
            "stationary.solve_stationary",
            "stationary.refine_profile",
            "stationary.quadrature_reconstruct",
            "stationary.verify_no_pot_shape",
            "bifurcation.critical_curve",
            "bifurcation.sweep",
            "cli.main",
            "potentials.find_stationary_points",
            "potentials.equal_height_parameter",
            "de.bp_threshold",
        ):
            m[f"{name}.self_s"] = self_s[name]
        return m

    def dump(self, path) -> None:
        """Write every span with its self time (raw seconds) as one JSON list."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            {
                "id": i,
                "name": s[NAME],
                "parent": s[PARENT],
                "start_s": s[START] - t0,
                "end_s": s[END] - t0,
                "self_s": own,
                "gradient_calls": s[GRADS],
            }
            for i, (s, own) in enumerate(zip(self.spans, self._self_times()))
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _summarize(name: str, result):
    """The part of a traced call's result that the per-layer metrics use."""
    if name == "pde.integrate":
        return (result.t_final, bool(result.steady))
    if name == "stationary.solve_stationary":
        return bool(result.steady)
    if name == "bifurcation.sweep":
        return len(result)
    return None
