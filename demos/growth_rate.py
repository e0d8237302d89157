"""
Renewal growth rate, three ways
===============================

A population with birth kernel b(a) = 2 on ages [0, 1] and no mortality
grows like e^{r t}, where r solves 2 (1 - e^{-r}) / r = 1.  This script
finds that root by bisection, then recovers it from the semigroup pipeline
and from the direct characteristics stepper, using the log-norm slope
between t = 8 and t = 10.
"""

import math

import numpy as np

import kato_evolve as ke


def characteristic_gap(r):
    return 2.0 * (1.0 - math.exp(-r)) / r - 1.0


lo, hi = 0.5, 3.0
for _ in range(100):
    mid = 0.5 * (lo + hi)
    if characteristic_gap(mid) > 0.0:
        lo = mid
    else:
        hi = mid
r_star = 0.5 * (lo + hi)
print(f"bisection root of the characteristic equation: r* = {r_star:.10f}")

sc = ke.preset_scenario("SCAL0")
ages = sc.age_grid.nodes

# seed with the eigenprofile e^{-r* a}, which makes the growth clean
base = ke.make_profile(sc, "ones")
phi = base.with_values(np.exp(-r_star * ages)[:, None])

u8 = ke.apply_semigroup(sc, 0.0, 8.0, phi)
u10 = ke.apply_semigroup(sc, 0.0, 10.0, phi)
slope = (math.log(ke.state_norm(sc, u10)) - math.log(ke.state_norm(sc, u8))) / 2.0
print(f"semigroup pipeline slope:  {slope:.10f}  (off by {abs(slope - r_star) / r_star:.2%})")

traj = ke.solve_direct(sc, phi, 10.0)
k8 = sc.age_grid.index_of(8.0, "time")
k10 = sc.age_grid.index_of(10.0, "time")
slope = (math.log(traj.norms[k10]) - math.log(traj.norms[k8])) / 2.0
print(f"direct stepper slope:      {slope:.10f}  (off by {abs(slope - r_star) / r_star:.2%})")
