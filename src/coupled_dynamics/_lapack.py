"""The package's only scipy bindings, imported by the solvers on their first
call so that runs that never solve a tridiagonal system never load scipy."""
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv, dstebz

__all__ = ["dgtsv", "dstebz", "solve_banded"]
