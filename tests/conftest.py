import pytest

from coupled_dynamics.pde import simulate_discrete_chain
from coupled_dynamics.potentials import DoubleWell, find_stationary_points


@pytest.fixture(scope="session")
def fig2_pot_chain():
    """The 201-copy chain of the fig-2 pot problem (DoubleWell(-0.01),
    d = 0.01) run from y_minus to t_end = 2e4, once per session; read-only,
    since several tests share it."""
    spec = DoubleWell(-0.01)
    y_minus = find_stationary_points(spec).y_minus
    chain = simulate_discrete_chain(201, spec, 0.01, y_minus, t_end=2e4)
    chain.setflags(write=False)
    return chain
