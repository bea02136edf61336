"""Decoding thresholds of regular LDPC ensembles over the erasure channel.

The uncoupled recursion y <- eps * (1 - (1-y)^(dc-1))^(dv-1) converges to
zero only below the BP threshold.  The second number is the equal-height
(Maxwell) point of LdpcBec, the potential whose descent step is that
recursion: the erasure probability where its two stable minima have the same
depth (0.46269 for (3,6)).  It is not the threshold of the spatially coupled
chain, which is close to the MAP threshold (about 0.4881 for (3,6); Kudekar,
Richardson & Urbanke, IEEE T-IT 57, 2011): that is the equal-height point of
a different potential (Yedla, Jian, Nguyen & Pfister, 2012).  This script
prints both numbers for a few regular ensembles.

Run:  python3 demos/thresholds.py
"""
from coupled_dynamics import LdpcBec, bp_threshold, equal_height_parameter, run_de

print(f"{'ensemble':>10} {'BP threshold':>14} {'equal-height':>14} {'gain':>8}")
for dv, dc in ((3, 6), (4, 8), (5, 10)):
    bp = bp_threshold(dv, dc)
    eh = equal_height_parameter(lambda e: LdpcBec(e, dv, dc), (bp + 1e-3, 0.75))
    print(f"  ({dv:2d},{dc:3d}) {bp:>14.5f} {eh:>14.5f} {eh - bp:>8.4f}")
print("(equal-height: of the descent-step potential LdpcBec; the coupled chain")
print(" decodes up to about the MAP threshold, ~0.4881 for (3,6).)")

print("\nRecursion trajectories for the (3,6) ensemble, started at y0 = 1:")
for eps in (0.40, 0.48):
    traj = run_de(LdpcBec(eps, 3, 6))
    tail = ", ".join(f"{y:.4f}" for y in traj.iterates[:6])
    print(
        f"  eps = {eps:.2f}: y = {tail}, ... -> fixed point"
        f" {traj.fixed_point:.6f} after {len(traj.iterates) - 1} iterations"
    )
print("(0.40 is below the BP threshold ~0.4294 and decays to zero;")
print(" 0.48 is above it and stalls at a nonzero fixed point.)")
