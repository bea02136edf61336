"""Phenomenological model of threshold improvement via spatial coupling:
scalar gradient flow in a multistable potential, its spatially-coupled PDE
with pinned boundaries, stationary-solution analysis, and threshold /
bifurcation computation."""

from .potentials import (
    BracketingError,
    DomainError,
    DoubleWell,
    LdpcBec,
    Potential,
    ReflectedPotential,
    StationaryPoint,
    StationaryPointSet,
    TopologyChangeError,
    equal_height_parameter,
    find_stationary_points,
)
from .de import DeTrajectory, bp_threshold, de_step, run_de
from .pde import (
    AffineCoupling,
    ConstantCoupling,
    Coupling,
    DivergenceError,
    Grid,
    Profile,
    TrajectoryRecord,
    energy,
    integrate,
    rhs,
    simulate_discrete_chain,
    stable_dt,
)
from .stationary import (
    HypothesisError,
    NoPotShapeReport,
    NotSteadyError,
    ReconstructionInfeasibleError,
    StationarySolution,
    classify_profile,
    first_integral,
    refine_profile,
    quadrature_reconstruct,
    solve_stationary,
    verify_no_pot_shape,
)
from .bifurcation import BifurcationCell, CurvePoint, critical_curve, default_sweep_box, sweep

__version__ = "0.1.0"
