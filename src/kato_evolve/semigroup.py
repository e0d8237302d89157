"""Frozen-time population semigroup and its generator identities.

For a frozen time t the action on a profile phi after elapsed span s is,
nodewise: ages above s transport the initial data along characteristics,
ages at or below s carry propagated newborn values from the birth
trajectory.  The diagonal age = s is assigned to the newborn branch; for
balanced profiles the two branches agree there, for general profiles the
discrete jump is accepted.

On the aligned grid one age step of this action is one shift of the whole
profile through the frozen time's cached step maps (one scenario cache entry
per frozen time, see the propagator module) followed by one boundary solve
for node 0.  The evolved profile is built by the same shift loop the renewal
march runs, replaying the march's cached fluxes; no chain U_t(a_i, 0) is
cached.  The replay serves direct semigroup calls only, where one cached
trajectory serves many spans; products march without it.  Because the
birth trajectory is defined through the same quadrature and the same loop,
the semigroup law holds to rounding on the aligned grid (see renewal
module docstring), not merely to quadrature accuracy.
"""

from __future__ import annotations

import numpy as np

from .core import (
    StateVector,
    ValidationError,
    apply_generator,
    birth_quadrature,
    check_birth_balance,
    state_norm,
)
from .renewal import _boundary_solve, branch_values

__all__ = [
    "apply_semigroup",
    "semigroup_property_residual",
    "strong_continuity_gap",
    "generator_residual",
    "admissibility_residual",
    "enforce_birth_balance",
]


def apply_semigroup(scenario, t, s, phi):
    """Evolve phi by elapsed span s under the frozen-time dynamics at t.

    s must be a nonnegative node of the age-step lattice; s = 0 returns phi
    unchanged.
    """
    values = branch_values(scenario, t, phi, s)
    values.flags.writeable = False
    return StateVector(phi.grid, values)


def semigroup_property_residual(scenario, t, s1, s2, phi):
    """Norm gap between the one-shot and the two-stage evolution.

    Measures the state norm of applying spans s1 + s2 at once against
    applying s2 then s1.  On the aligned grid the discretization satisfies
    the law exactly, so this residual sits at rounding level and serves as a
    regression guard.
    """
    whole = apply_semigroup(scenario, t, s1 + s2, phi)
    staged = apply_semigroup(scenario, t, s1, apply_semigroup(scenario, t, s2, phi))
    return state_norm(scenario, whole.with_values(whole.values - staged.values))


def strong_continuity_gap(scenario, t, s, phi):
    """State-norm distance between the evolved and the initial profile."""
    moved = apply_semigroup(scenario, t, s, phi)
    return state_norm(scenario, moved.with_values(moved.values - phi.values))


def generator_residual(scenario, t, phi, s=None):
    """Difference-quotient consistency of the generator.

    Compares (evolve(s) - identity) / s against the discrete generator
    action.  First order in s for balanced profiles, plus a grid-resolution
    floor from the upwind derivative.
    """
    if s is None:
        s = scenario.age_grid.step
    moved = apply_semigroup(scenario, t, s, phi)
    quotient = (moved.values - phi.values) / s
    gen = apply_generator(scenario, t, phi)
    return state_norm(scenario, moved.with_values(quotient - gen.values))


def admissibility_residual(scenario, t, s, psi):
    """Residual of the age-derivative exchange identity.

    For a balanced profile psi, the age derivative of the evolved profile
    equals the operator term applied to the evolved profile minus the
    evolved image of the generator applied to psi, that is, the evolved
    image of the generator of psi equals the generator of the evolved
    profile.  The residual is the gap between those two, both formed with
    upwind differences; it decays at the discretization order under joint
    grid refinement.
    """
    ok, res = check_birth_balance(scenario, psi)
    if not ok:
        raise ValidationError(
            f"profile is not birth-balanced (residual {res:.3e}); "
            "apply enforce_birth_balance first"
        )
    moved = apply_semigroup(scenario, t, s, psi)
    moved_gen = apply_semigroup(scenario, t, s, apply_generator(scenario, t, psi))
    gap = moved_gen.values - apply_generator(scenario, t, moved).values
    return state_norm(scenario, moved.with_values(gap))


def enforce_birth_balance(scenario, phi):
    """Project a profile onto the birth-balance manifold.

    Only the age-zero node changes: it is set to the unique fixed point of
    the balance condition, which the boundary linear system solves exactly
    (the node-zero quadrature term is the only self-reference).  Profiles
    already balanced are returned unchanged up to rounding.
    """
    values = np.array(phi.values, dtype=float)
    values[0] = 0.0
    rhs = birth_quadrature(scenario, values)
    values[0] = _boundary_solve(scenario, rhs)
    values.flags.writeable = False
    return StateVector(phi.grid, values)
