"""The package imports numpy alone and loads scipy.linalg on the first
relaxation or Newton polish: threshold and critical-curve runs, `cdl
bifurcation --curve` without --h among them, load no scipy and no
process-pool machinery (multiprocessing), and the threshold and refinement
paths load neither scipy.optimize nor scipy.interpolate."""
import os
import subprocess
import sys
from pathlib import Path

import coupled_dynamics

SRC = str(Path(coupled_dynamics.__file__).resolve().parents[1])

PROGRAM = """
import sys
import coupled_dynamics
from coupled_dynamics import DoubleWell, Grid, cli, refine_profile, solve_stationary

assert cli.main(["threshold-sc", "--family", "ldpc", "--dv", "3", "--dc", "6",
                 "--bracket", "0.43", "0.6"]) == 0
assert cli.main(["de", "--dv", "3", "--dc", "6", "--threshold"]) == 0
spec = DoubleWell(-0.01)
sol = solve_stationary(spec, 0.01, Grid(1.0, 201))
refine_profile(sol, spec, 0.01, Grid(1.0, 401))
loaded = [m for m in ("scipy.optimize", "scipy.interpolate") if m in sys.modules]
assert not loaded, loaded
"""

LAZY_LINALG_PROGRAM = """
import sys
import coupled_dynamics
from coupled_dynamics import (
    DoubleWell, Grid, cli, critical_curve, equal_height_parameter, solve_stationary,
)

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

assert cli.main(["de", "--dv", "3", "--dc", "6", "--threshold"]) == 0
assert cli.main(["threshold-sc", "--family", "ldpc", "--dv", "3", "--dc", "6",
                 "--bracket", "0.43", "0.6"]) == 0
assert all(p.error is None for p in critical_curve([0.05, 0.1], tol=1e-6))
assert cli.main(["bifurcation", "--curve", "--d=0.05,0.1"]) == 0
equal_height_parameter(DoubleWell, (-0.1, 0.1))
assert not scipy_modules(), scipy_modules()
pool_modules = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
assert not pool_modules, pool_modules
sol = solve_stationary(DoubleWell(-0.01), 0.01, Grid(1.0, 101))
assert sol.classification == "PotShaped", sol.classification
assert "scipy.linalg" in sys.modules
"""


def run_fresh(program: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True
    )


def test_no_optimize_or_interpolate_import():
    run = run_fresh(PROGRAM)
    assert run.returncode == 0, run.stderr


def test_scipy_loaded_only_by_the_first_relaxation():
    run = run_fresh(LAZY_LINALG_PROGRAM)
    assert run.returncode == 0, run.stderr
