"""Where the pot-shaped branch lives in the (coupling, tilt) plane.

Starting from the metastable state, the outcome depends on both the coupling
constant d and the tilt h of the double-well potential: strong coupling or a
weak tilt lets the pinned boundary pull the whole interior up (Uniform),
while weak coupling or a strong opposing tilt leaves a pot-shaped profile
behind.  The critical tilt separating the two grows with d and collapses
toward zero as d -> 0; below d ~ 0.05 it is already smaller than 1e-3 and
the relaxation slows down critically, so the curve is bisected only on the
resolvable side.

Run:  python3 demos/bifurcation_map.py   (about 2 seconds on a 2-core x86-64 VM)
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

print("\ncritical tilt, bisected where resolvable:")
for pt in critical_curve([0.05, 0.075, 0.1], h_bracket=(-0.3, -1e-3), tol=1e-3,
                         grid=GRID, t_cap=T_CAP):
    if pt.error:
        print(f"  d={pt.d:<6g} unresolved ({pt.error})")
    else:
        print(f"  d={pt.d:<6g} -h_crit = {-pt.h_crit:.4f}")
