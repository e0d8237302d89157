"""Discrete renewal (birth trajectory) solver.

For a frozen time t and initial profile phi, the newborn flux B(s) solves a
Volterra equation: the birth integral of the evolved profile, where ages
below s carry propagated newborn values U_t(a, 0) B(s - a) and ages above s
carry transported initial data U_t(a, a - s) phi(a - s).

Discretization: the age step equals the time step, so one step of the
frozen-time semigroup shifts the whole profile by one cell through the step
maps, u[i] <- U_t(a_i, a_{i-1}) u[i-1], and refills node 0 from the renewal
condition (Webb 1985; Iannelli 1995); the diagonal a = s is newborn.  The
condition is one composite trapezoid quadrature of the shifted profile, so
the discrete birth trajectory is EXACTLY the birth integral of the discrete
evolved profile, up to the per-step d x d solve with matrix
M = I - (h/2) b(0) for the unknown B(s_k) at the a = 0 endpoint.  The solve
takes the near-identity correction form x = rhs + K rhs, where K = M^{-1} - I
comes once per scenario from its kernel record (Higham 2002, ch. 12): as
accurate as an LU solve, with numpy alone, where a plain inverse M^{-1} rhs
is not.  One shift loop, ``_march``, marches from cold: it reads the
frozen time's step maps once and solves every step's flux; no chain is
formed.  The march also evolves product plans, each factor starting it from
the current profile.  The evolved profile of a kept trajectory comes from
``_replay``, which runs the same shift with the kept fluxes.  Each profile
keeps its longest trajectory in the frozen-time record of its time (see the
propagator module); a longer horizon marches again from cold.

The march is first order at the branch seam for incompatible data and second
order for balanced profiles; both refine under grid halving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ValidationError,
    _birth_quadrature,
    apply_generator,
    birth_quadrature,
    spatial_norm,
)
from .propagator import _frozen

__all__ = [
    "BirthTrajectory",
    "solve_birth",
    "birth_identity_residual",
    "birth_derivative_residual",
    "branch_values",
]


@dataclass(frozen=True)
class BirthTrajectory:
    """Newborn flux values B(k * step) for k = 0 .. K, shape (K+1, d)."""

    step: float
    values: np.ndarray

    @property
    def n_steps(self):
        return self.values.shape[0] - 1


def _boundary_solve(scenario, rhs):
    """Solve M x = rhs, M = I - (h/2) b(0), as x = rhs + K rhs.

    K = M^{-1} - I comes from the kernel record.  K is small when (h/2) b(0)
    is, so x stays within one ulp of an LU solve: only the final addition
    rounds at the size of x.  A plain inverse M^{-1} rhs rounds the whole of
    M^{-1} instead, and SCAL0's birth identity residual grows from 7e-15 to
    1e-10 with it.
    """
    return rhs + scenario._kernel.boundary_correction @ rhs


def _shift(steps, u):
    """Shift a profile one age cell in place, u[i] <- S_{i-1} u[i-1], i >= 1."""
    u[1:] = np.matmul(steps, u[:-1, :, None])[:, :, 0]


def _march(scenario, t, u, m):
    """Advance profile u in place by m age steps at frozen time t, from cold.

    u[0] is first set to u's own newborn flux; each step then shifts u one
    age cell through the step maps and refills u[0] with the flux that
    ``_boundary_solve`` gives.  Returns the m + 1 fluxes, u's own first.
    """
    steps = _frozen(scenario, t).steps
    fluxes = np.empty((m + 1, scenario.dim))
    fluxes[0] = u[0] = birth_quadrature(scenario, u)
    for k in range(1, m + 1):
        _shift(steps, u)
        u[0] = 0.0  # slot of the implicit unknown
        fluxes[k] = u[0] = _boundary_solve(scenario, _birth_quadrature(scenario, u))
    return fluxes


def _replay(scenario, t, phi_values, fluxes):
    """The profile evolved from phi over m = len(fluxes) - 1 age steps.

    ``fluxes`` are phi's kept fluxes, phi's own first; each step shifts the
    profile and refills node 0 with the next one.  Nodes i <= m carry
    fluxes[m - i] (the diagonal is newborn), nodes i > m carry transported
    phi.  Fluxes older than n_age steps have left the grid, so the replay
    starts from zeros at step m - n_age when that is positive.
    """
    n_age = scenario.age_grid.n_age
    start = max(0, len(fluxes) - 1 - n_age)
    if start == 0:
        u = np.array(phi_values, dtype=float)
    else:
        u = np.zeros((n_age + 1, scenario.dim))
    steps = _frozen(scenario, t).steps
    u[0] = fluxes[start]
    for flux in fluxes[start + 1:]:
        _shift(steps, u)
        u[0] = flux
    return u


def _march_plan(scenario, schedule, phi_values):
    """Profile evolved through (frozen time, steps) factors, first pair first.

    Each factor starts a cold march from the current profile; its fluxes
    are not kept.
    """
    u = np.array(phi_values, dtype=float)
    for t, m in schedule:
        if m > 0:
            _march(scenario, t, u, m)
    return u


def solve_birth(scenario, t, phi, s_max):
    """Newborn flux trajectory for initial profile phi at frozen time t.

    The frozen-time record at t keeps one trajectory per profile.  A kept
    trajectory at least as long is sliced; otherwise one cold march runs
    and its trajectory replaces the kept one.  ``s_max`` must be node
    aligned and at most ``scenario.s_max``, ten maximal ages.
    """
    g = scenario.age_grid
    if s_max < 0:
        raise ValidationError("s_max must be nonnegative")
    if s_max > scenario.s_max * (1 + 1e-12):
        raise ValidationError(
            f"s_max = {s_max!r} exceeds the trajectory cap {scenario.s_max!r} "
            "(ten maximal ages)"
        )
    n_steps = g.index_of(s_max, "trajectory horizon")
    trajectories = _frozen(scenario, t).trajectories
    key = phi.values.tobytes()
    kept = trajectories.get(key)
    if kept is not None and kept.n_steps >= n_steps:
        if kept.n_steps == n_steps:
            return kept
        return BirthTrajectory(g.step, kept.values[: n_steps + 1])
    values = _march(scenario, t, np.array(phi.values, dtype=float), n_steps)
    values.flags.writeable = False
    trajectories[key] = traj = BirthTrajectory(g.step, values)
    return traj


def branch_values(scenario, t, phi, s):
    """Node values of the evolved profile after elapsed span s (aligned).

    Ages at or below s carry propagated newborn values, ages above s carry
    transported initial data; s = 0 returns the profile unchanged.
    """
    if scenario.age_grid.index_of(s, "elapsed span") == 0:
        return np.array(phi.values, dtype=float)
    return _replay(scenario, t, phi.values, solve_birth(scenario, t, phi, s).values)


def birth_identity_residual(scenario, t, phi, s):
    """Gap between B(s) and the birth integral of the evolved profile.

    Both sides are assembled from the same cached discrete objects through
    the same quadrature helper, so the residual measures only the per-step
    boundary solve.
    """
    g = scenario.age_grid
    m = g.index_of(s, "elapsed span")
    traj = solve_birth(scenario, t, phi, s)
    values = branch_values(scenario, t, phi, s)
    integral = birth_quadrature(scenario, values)
    return spatial_norm(traj.values[m] - integral, scenario.norm)


def birth_derivative_residual(scenario, t, phi, s):
    """Residual of the derivative identity for the birth trajectory.

    The s-derivative of the newborn flux of phi equals the newborn flux of
    the generator applied to phi.  The left side uses a centered difference
    over one grid step on each side; the identity requires a balanced
    profile and the residual decays first order in the grid.
    """
    g = scenario.age_grid
    h = g.step
    m = g.index_of(s, "elapsed span")
    if m < 1:
        raise ValidationError("derivative stencil leaves the trajectory")
    traj = solve_birth(scenario, t, phi, s + h)
    lhs = (traj.values[m + 1] - traj.values[m - 1]) / (2 * h)
    gen_traj = solve_birth(scenario, t, apply_generator(scenario, t, phi), s)
    return spatial_norm(lhs - gen_traj.values[m], scenario.norm)
