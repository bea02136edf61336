"""The package runs on numpy and scipy.linalg alone: the threshold and
refinement paths load neither scipy.optimize nor scipy.interpolate."""
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


def test_no_optimize_or_interpolate_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
