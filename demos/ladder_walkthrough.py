"""
The doubling ladder on a time-dependent diffusion
=================================================

For a field that actually depends on time the frozen-time semigroup is
only a building block: the evolution operator is the limit of products of
frozen semigroups over finer and finer time partitions.  This script walks
the ladder on the DIFF1 preset, prints the Cauchy gap at each partition
count (the gaps halve, first-order convergence), lets the solver pick its
own level for a requested tolerance, and closes with a splice check of the
two-parameter composition law.
"""

import kato_evolve as ke

sc = ke.preset_scenario("DIFF1")
phi = ke.make_profile(sc, "tilted")

print("partition count n, Cauchy gap to the previous level, log2 rate")
# "-" marks a row with no rate: the first row, and any row whose gap or
# previous gap sits at the rounding floor (n = 1 and 2 share their frozen
# samples up to rounding here, so the first gap is noise)
for n, gap, rate in ke.convergence_study(sc, 0.875, 0.0, phi):
    rate_txt = "   -" if rate != rate else f"{rate:5.2f}"
    print(f"  n = {n:3d}   gap = {gap:.3e}   rate = {rate_txt}")

result = ke.apply_evolution(sc, 0.875, 0.0, phi, tol=1e-5)
print(
    f"\nrequested tol 1e-5: accepted n = {result.n_used}, "
    f"gap {result.cauchy_gap:.3e}"
)

# the evolution family must compose: going 0 -> 0.5 -> 0.875 in two legs
# lands on the same state as going straight through
res = ke.evolution_cocycle_residual(sc, 0.0, 0.5, 0.875, phi, tol=3e-5)
print(f"composition residual through a splice at t = 0.5: {res:.3e}")
print(f"budget for that splice (3 tol |phi|): {3 * 3e-5 * ke.state_norm(sc, phi):.3e}")
