"""Command-line front end: `cdl` with subcommands de, simulate, stationary,
theorem1, bifurcation, threshold-sc.

Parameters may come from a flat JSON config (--config); explicit flags
override config values, and what neither gives takes the library's default.
All file output goes under --out.  Floats print with 17 significant digits,
so CSV output round-trips and identical configs give byte-identical files.
Exit codes: 0 success, 1 domain or numeric failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bifurcation as bif
from . import de as de_mod
from . import pde, potentials, stationary

_S = argparse.SUPPRESS


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(p: dict, name: str, header: str, rows) -> None:
    """Write the CSV `name` under the --out directory; without --out, return
    at once, leaving `rows` unread."""
    if not p.get("out"):
        return
    path = Path(p["out"]) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _floats(value) -> list[float]:
    """A comma-list flag or config value: "a,b", a JSON list, or one number;
    ValueError when it holds no number."""
    if isinstance(value, list):
        values = [float(v) for v in value]
    else:
        values = [float(tok) for tok in str(value).split(",") if tok != ""]
    if not values:
        raise ValueError(f"expected at least one number, got {value!r}")
    return values


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    params = dict(defaults)
    given = vars(args)
    config_path = given.pop("config", None)
    list_keys = given.pop("list_keys", frozenset())
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if isinstance(value, (list, dict)) and key not in list_keys:
                raise ValueError(f"config key {key!r} takes one value, got {value!r}")
            params[key] = value
    params.update(given)
    return params


def _integer(value) -> int:
    """An integer flag or config value: 101, 101.0 or "101"; ValueError for
    any other value, such as 101.5, which int() would truncate to 101."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, (float, str)) and float(value).is_integer():
        return int(float(value))
    raise ValueError(f"expected an integer, got {value!r}")


def _given(p: dict, **types) -> dict:
    """The keys of `types` that a flag or the config gave, each converted."""
    return {key: convert(p[key]) for key, convert in types.items() if key in p}


def _grid(p: dict) -> pde.Grid:
    """The grid of --xmax and --n, with `pde.Grid()`'s value for each left out."""
    default = pde.Grid()
    return pde.Grid(float(p.get("xmax", default.x_max)), _integer(p.get("n", default.n_points)))


def _h_bracket(value) -> tuple[float, float]:
    bracket = _floats(value)
    if len(bracket) != 2:
        raise ValueError(f"--h-bracket takes two values, got {len(bracket)}")
    return tuple(bracket)


# Defaults of the subcommands that relax one potential: the problem itself,
# with each subcommand's tilt h in its `_COMMANDS` row.
_SPEC_DEFAULTS = {"family": "dw", "d": 0.01}


def _family(p: dict):
    """The chosen family as a function of its one free parameter, and that
    parameter's key: h for dw, eps for ldpc (whose degrees come from p)."""
    family = p["family"]
    if family == "dw":
        return potentials.DoubleWell, "h"
    if family == "ldpc":
        def make(eps):
            return potentials.LdpcBec(epsilon=eps, dv=p["dv"], dc=p["dc"])
        return make, "eps"
    raise ValueError(f"unknown family {family!r} (expected 'dw' or 'ldpc')")


def _make_spec(p: dict) -> potentials.Potential:
    make, key = _family(p)
    return make(float(p[key]))


def _resolve_y0(token, pts: potentials.StationaryPointSet) -> float:
    if token == "minus":
        return pts.y_minus
    if token == "plus":
        return pts.y_plus
    return float(token)


def cmd_de(p: dict) -> int:
    dv, dc = p["dv"], p["dc"]
    if p.get("threshold"):
        value = de_mod.bp_threshold(dv, dc, **_given(p, tol=float))
        print(f"bp_threshold {_fmt(value)}")
        _write_csv(p, "threshold.csv", "dv,dc,threshold", [(dv, dc, value)])
        return 0
    if "eps" not in p:
        raise ValueError("either --eps or --threshold is required")
    eps = float(p["eps"])
    spec = potentials.LdpcBec(epsilon=eps, dv=dv, dc=dc)
    traj = de_mod.run_de(spec, **_given(p, y0=float, max_iter=_integer, tol=float))
    print(f"fixed_point {_fmt(traj.fixed_point)} after {len(traj.iterates) - 1} iterations"
          f" converged={traj.converged}")
    _write_csv(p, "de_trajectory.csv", "t,y", ((t, float(y)) for t, y in enumerate(traj.iterates)))
    return 0


def cmd_simulate(p: dict) -> int:
    spec = _make_spec(p)
    grid = _grid(p)
    pts = potentials.find_stationary_points(spec)
    y0 = _resolve_y0(p["y0"], pts)
    profile0 = pde.Profile.uniform(grid, y0, boundary_value=pts.y_plus)
    record = pde.integrate(
        profile0,
        spec,
        pde.ConstantCoupling(float(p["d"])),
        t_end=float(p["t_end"]),
        snapshot_every=_integer(p["snapshots"]),
        keep_snapshots=bool(p.get("out")),  # kept only to be written
    )
    # an unsteady end is Other whatever its shape, as in `solve_stationary`
    classification = (
        stationary.classify_profile(record.final) if record.steady else stationary.OTHER
    )
    print(f"classification {classification} residual {_fmt(record.residual)}"
          f" steady={record.steady} t={_fmt(record.t_final)}")
    for t, prof in record.snapshots:
        _write_csv(p, f"profile_t{t:.6f}.csv", "x,y", zip(prof.grid.x, prof.values))
    _write_csv(p, "energy.csv", "t,H", record.energies)
    return 0


def cmd_stationary(p: dict) -> int:
    spec = _make_spec(p)
    grid = _grid(p)
    given = _given(p, t_cap=float)
    if "y0" in p:
        given["y0"] = _resolve_y0(p["y0"], potentials.find_stationary_points(spec))
    sol = stationary.solve_stationary(spec, float(p["d"]), grid=grid, **given)
    print(
        f"classification {sol.classification} residual {_fmt(sol.residual)}"
        f" C {_fmt(sol.first_integral_constant)} steady={sol.steady}"
    )
    _write_csv(p, "stationary_profile.csv", "x,y", zip(sol.profile.grid.x, sol.profile.values))
    return 0


def cmd_theorem1(p: dict) -> int:
    spec = _make_spec(p)
    grid = _grid(p)
    d_list = _floats(p["d"])
    given = _given(p, t_cap=float)
    if "y0" in p:
        given["y0_list"] = _floats(p["y0"])
    report = stationary.verify_no_pot_shape(spec, d_list, grid=grid, **given)
    for cell in report.cells:
        print(
            f"d={_fmt(cell.d)} y0={_fmt(cell.y0)} {cell.classification}"
            f" residual={_fmt(cell.residual)}"
        )
    print(f"orientation {report.orientation} passed={report.passed}")
    rows = ((c.d, c.y0, c.classification, c.residual, c.first_integral_constant)
            for c in report.cells)
    _write_csv(p, "theorem1_report.csv", "d,y0,classification,residual,C", rows)
    return 0 if report.passed else 1


def cmd_bifurcation(p: dict) -> int:
    grid = _grid(p)
    d_default, h_default = bif.default_sweep_box()
    d_values = _floats(p["d"]) if "d" in p else list(d_default)
    curve = None
    if p.get("curve"):  # first: a bad tol or d fails before the sweep's work
        curve = bif.critical_curve(
            d_values, grid=grid, **_given(p, h_bracket=_h_bracket, tol=float)
        )
    if curve is None or "h" in p:  # with --curve, sweep only the tilts given
        h_values = _floats(p["h"]) if "h" in p else list(h_default)
        cells = bif.sweep(d_values, h_values, grid=grid, **_given(p, t_cap=float, jobs=_integer))
        rows = ((c.d, c.h, c.classification or c.error, c.t_exit) for c in cells)
        _write_csv(p, "bifurcation_sweep.csv", "d,h,classification,t_exit", rows)
        n_pot = sum(1 for c in cells if c.classification == stationary.POT_SHAPED)
        print(f"{len(cells)} cells, {n_pot} pot-shaped")
    if curve is not None:
        for pt in curve:
            print(f"d={_fmt(pt.d)} h_crit={_fmt(pt.h_crit)}"
                  + (f" error={pt.error}" if pt.error else ""))
        rows = ((pt.d, pt.h_crit) for pt in curve if pt.error is None)
        _write_csv(p, "critical_curve.csv", "d,h_crit", rows)
    return 0


def cmd_threshold_sc(p: dict) -> int:
    make, _ = _family(p)
    value = potentials.equal_height_parameter(
        make, _floats(p["bracket"]), **_given(p, tol=float)
    )
    print(f"threshold_sc {_fmt(value)}")
    _write_csv(p, "threshold_sc.csv", "family,value", [(p["family"], value)])
    return 0


# Every cdl flag once: its name (the option is "--" + name with "-" for "_")
# and its add_argument keywords.  Flags default to SUPPRESS so that a flag
# left out does not mask its config value.  "takes_list" is not an argparse
# keyword: it marks a key read through `_floats`, whose config value may be
# a JSON list; `build_parser` strips it.
_FLAGS = {
    "family": {"choices": ["dw", "ldpc"]},
    "h": {"type": float},
    "eps": {"type": float},
    "dv": {"type": int},
    "dc": {"type": int},
    "d": {"type": float},
    "xmax": {"type": float},
    "n": {"type": int},
    "y0": {"help": "minus | plus | numeric value"},
    "t_end": {"type": float},
    "t_cap": {"type": float},
    "snapshots": {"type": int, "help": "snapshot cadence in steps"},
    "tol": {"type": float},
    "max_iter": {"type": int},
    "threshold": {"action": "store_true"},
    "curve": {"action": "store_true"},
    "h_bracket": {"help": "comma pair", "takes_list": True},
    "jobs": {"type": int},
    "bracket": {"nargs": 2, "type": float, "required": True, "takes_list": True},
}
_COMMA_LIST = {"type": None, "help": "comma list", "takes_list": True}
_SPEC_FLAGS = "family h eps dv dc"

# Subcommand: handler, help, its flags in help order, per-subcommand
# overrides, and the values of the keys that neither a flag nor the config gives.
_COMMANDS = {
    "de": (cmd_de, "density-evolution recursion / BP threshold",
           "dv dc eps threshold tol y0 max_iter",
           {"dv": {"required": True}, "dc": {"required": True},
            "y0": {"type": float, "help": None}}, {}),
    "simulate": (cmd_simulate, "time integration of the coupled system",
                 f"{_SPEC_FLAGS} d xmax n y0 t_end snapshots", {},
                 {**_SPEC_DEFAULTS, "h": -0.01, "y0": "minus", "t_end": 2e4,
                  "snapshots": pde.DEFAULT_SNAPSHOT_EVERY}),
    "stationary": (cmd_stationary, "relax to a stationary solution and classify",
                   f"{_SPEC_FLAGS} d xmax n y0 t_cap", {}, {**_SPEC_DEFAULTS, "h": -0.01}),
    "theorem1": (cmd_theorem1, "no-pot-shape verification sweep",
                 f"{_SPEC_FLAGS} d y0 xmax n t_cap", {"d": _COMMA_LIST, "y0": _COMMA_LIST},
                 {**_SPEC_DEFAULTS, "h": 0.05, "d": "0.001,0.01,0.1"}),
    "bifurcation": (cmd_bifurcation, "(d, h) sweep and critical curve",
                    "d h curve h_bracket tol xmax n t_cap jobs",
                    {"d": _COMMA_LIST, "h": _COMMA_LIST}, {}),
    "threshold-sc": (cmd_threshold_sc, "equal-height (Maxwell) threshold",
                     "family dv dc bracket tol", {}, {"family": "dw"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdl",
        description="Spatially-coupled gradient-flow simulator and threshold analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, overrides, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="flat JSON config file")
        sp.add_argument("--out", default=_S, help="output directory for CSV files")
        list_keys = set()
        for flag in flags.split():
            kwargs = {"default": _S, **_FLAGS[flag], **overrides.get(flag, {})}
            if kwargs.pop("takes_list", False):
                list_keys.add(flag)
            sp.add_argument("--" + flag.replace("_", "-"), **kwargs)
        # Config keys that may hold a JSON list; `_merge` rejects one elsewhere.
        sp.set_defaults(list_keys=frozenset(list_keys))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    func, *_, defaults = _COMMANDS[args.command]
    del args.command
    # package failures subclass ValueError (input or domain) or RuntimeError (numeric run)
    try:
        return func(_merge(args, defaults))
    except (ValueError, RuntimeError, KeyError, FileNotFoundError) as exc:
        msg = f"missing required parameter {exc}" if isinstance(exc, KeyError) else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
