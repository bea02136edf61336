"""Where the pot-shaped branch lives in the (coupling, tilt) plane.

Starting from the metastable state, the outcome depends on both the coupling
constant d and the tilt h of the double-well potential: strong coupling or a
weak tilt lets the pinned boundary pull the whole interior up (Uniform),
while weak coupling or a strong opposing tilt leaves a pot-shaped profile
behind.  The critical tilt separating the two grows with d and collapses
toward zero as d -> 0, like exp(-sqrt(2 / d)).  It is the fold of the
continuum pot branch, found from the time map of the first integral without
any relaxation, so it resolves tilts far below 1e-3; the sweep's n-point
grid has its own fold O(dx^2) away.

Run:  python3 demos/bifurcation_map.py   (about 1 second on a 2-core x86-64 VM)
"""
from coupled_dynamics import Grid
from coupled_dynamics.bifurcation import critical_curve, sweep

GRID = Grid(1.0, 101)
T_CAP = 1e4

d_values = [0.001, 0.01, 0.05, 0.1]
h_values = [-0.0001, -0.001, -0.01, -0.05, -0.1]

print("classification map (rows: d, columns: -h):")
cells = sweep(d_values, h_values, grid=GRID, t_cap=T_CAP)
header = "".join(f"{-h:>10g}" for h in h_values)
print(f"{'d':>8} {header}")
for i, d in enumerate(d_values):
    row = cells[i * len(h_values) : (i + 1) * len(h_values)]
    marks = "".join(f"{(c.classification or 'err')[:7]:>10}" for c in row)
    print(f"{d:>8g} {marks}")

print("\ncritical tilt, the continuum fold:")
for pt in critical_curve([0.01, 0.02, 0.05, 0.075, 0.1], h_bracket=(-0.3, -1e-9),
                         tol=1e-12, grid=GRID):
    if pt.error:
        print(f"  d={pt.d:<6g} unresolved ({pt.error})")
    else:
        print(f"  d={pt.d:<6g} -h_crit = {-pt.h_crit:.6e}")
