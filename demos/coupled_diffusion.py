"""
A population that feels its own size
====================================

In the quasilinear problem the diffusion strength depends on the current
profile: here the field is scaled by 1 + 0.05 |u|.  Picard iteration
freezes the trajectory, solves the linear problem it induces, and repeats.
The center profile carries a genuine spatial mode; a flat center would be
invisible to the diffusion and the iteration would converge in one step
for the wrong reason.
"""

import numpy as np

import kato_evolve as ke

sc = ke.preset_scenario("QDIFF")
ages = sc.age_grid.nodes
x = np.linspace(0.0, 1.0, sc.dim)
mode = np.outer(1.0 + 0.5 * np.sin(np.pi * ages / sc.age_grid.a_max), np.cos(np.pi * x))
base = ke.make_profile(sc, "ones")
center = base.with_values(base.values + 0.3 * mode)

problem = ke.norm_coupled_diffusion(sc, 0.05, 1.0, center=center)
lip = ke.check_lipschitz(problem, sc, samples=8, seed=0)
print(
    f"state sensitivity of the field: observed {lip.observed_l:.3f} "
    f"vs declared {lip.declared_l:.3f}"
)

trajectory, t_phi, report = ke.solve_quasilinear(sc, problem, tol=1e-3)
print(f"\ncontraction horizon t_phi = {t_phi} after {report.halvings} halvings")
print(f"iterate gaps: {[f'{g:.2e}' for g in report.sup_gaps]}")
estimate = ke.contraction_estimate(sc, problem, t_phi)
print(f"predicted contraction factor: {estimate['predicted_contraction']:.2f}")

residual = ke.fixed_point_residual(sc, problem, trajectory, tol=1e-3)
print(f"fixed point residual: {residual:.2e} (budget 2e-3)")

other, _, _ = ke.solve_quasilinear(sc, problem, tol=1e-3, initial="linear")
gap = ke.state_norm(
    sc, trajectory.final.with_values(trajectory.final.values - other.final.values)
)
print(f"gap between the two starting strategies: {gap:.2e} (budget 4e-3)")
