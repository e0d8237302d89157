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
evolved profile, up to the per-step d x d solve with matrix I - (h/2) b(0)
for the unknown B(s_k) at the a = 0 endpoint.  One shift loop, ``_march``,
does every step: it replays fluxes already known (a warm restart, the
evolved profile) and solves for the rest; no chain is formed.  The march
also evolves product plans, each factor restarting it from the current
profile, with no replay.

The march is first order at the branch seam for incompatible data and second
order for balanced profiles; both refine under grid halving.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

from .core import (
    ValidationError,
    apply_generator,
    birth_quadrature,
    spatial_norm,
)
from .propagator import _frozen_maps

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

    frozen_time: float
    step: float
    values: np.ndarray

    @property
    def n_steps(self):
        return self.values.shape[0] - 1


def _boundary_solve(scenario, rhs):
    """Solve (I - (h/2) b(0)) x = rhs; the LU factorization is cached."""
    lu = scenario.caches.get("boundary_lu")
    if lu is None:
        h = scenario.age_grid.step
        mat = np.eye(scenario.dim) - 0.5 * h * scenario.birth_matrices()[0]
        singular = ValidationError(
            "boundary system is singular: step * b(0) / 2 has eigenvalue 1; "
            "refine the age grid or rescale the birth kernel"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                lu = lu_factor(mat)
            except np.linalg.LinAlgError as exc:
                raise singular from exc
        tiny = np.finfo(float).eps * max(1.0, float(np.max(np.abs(mat))))
        if not np.all(np.isfinite(lu[0])) or np.min(np.abs(np.diag(lu[0]))) < tiny:
            raise singular
        scenario.caches["boundary_lu"] = lu
    return dgetrs(*lu, rhs)[0]


def _shift(steps, u):
    """Shift a profile one age cell in place, u[i] <- S_{i-1} u[i-1], i >= 1."""
    u[1:] = np.matmul(steps, u[:-1, :, None])[:, :, 0]


def _march(scenario, t, u, fluxes, known=0):
    """Advance profile u in place by len(fluxes) age steps at frozen time t.

    Each step shifts u one age cell through the step maps and refills u[0]
    with the newborn flux: the first ``known`` steps replay ``fluxes`` as
    given, the rest solve the boundary system and store the flux there.
    """
    steps = _frozen_maps(scenario, t)
    for k in range(len(fluxes)):
        _shift(steps, u)
        if k >= known:
            u[0] = 0.0  # slot of the implicit unknown
            fluxes[k] = _boundary_solve(scenario, birth_quadrature(scenario, u))
        u[0] = fluxes[k]


def _profile_at(scenario, t, phi_values, fluxes, known):
    """The profile evolved from phi over m = len(fluxes) - 1 age steps.

    ``fluxes[0]`` is phi's newborn flux; fluxes 1 .. known are replayed as
    given and the rest are solved in place.  Nodes i <= m carry
    fluxes[m - i] (the diagonal is newborn), nodes i > m carry transported
    phi.  Fluxes older than n_age steps have left the grid, so the replay
    starts from zeros at step known - n_age when that is positive.
    """
    start = max(0, known - scenario.age_grid.n_age)
    if start == 0:
        u = np.array(phi_values, dtype=float)
    else:
        u = np.zeros((scenario.age_grid.n_age + 1, scenario.dim))
    u[0] = fluxes[start]
    _march(scenario, t, u, fluxes[start + 1:], known - start)
    return u


def _march_plan(scenario, schedule, phi_values):
    """Profile evolved through (frozen time, steps) factors, first pair first.

    Each factor starts a cold march from the current profile; its fluxes
    are not kept.
    """
    u = np.array(phi_values, dtype=float)
    for t, m in schedule:
        if m > 0:
            u[0] = birth_quadrature(scenario, u)
            _march(scenario, t, u, np.empty((m, scenario.dim)))
    return u


def solve_birth(scenario, t, phi, s_max):
    """Newborn flux trajectory for initial profile phi at frozen time t.

    Trajectories are cached per (frozen time, profile) and extended in place
    when a longer horizon is requested later.  ``s_max`` must be node
    aligned and below the scenario's configured trajectory cap.
    """
    g = scenario.age_grid
    if s_max < 0:
        raise ValidationError("s_max must be nonnegative")
    if s_max > scenario.s_max * (1 + 1e-12):
        raise ValidationError(
            f"s_max = {s_max!r} exceeds the configured cap {scenario.s_max!r} "
            "(raise s_max_factor in the scenario)"
        )
    n_steps = g.index_of(s_max, "trajectory horizon")
    key = ("birth", t, phi.values.tobytes())
    cached = scenario.caches.get(key)
    if cached is not None and cached.n_steps >= n_steps:
        if cached.n_steps == n_steps:
            return cached
        return BirthTrajectory(t, g.step, cached.values[: n_steps + 1])
    values = np.empty((n_steps + 1, scenario.dim))
    if cached is None:
        known = 0
        values[0] = birth_quadrature(scenario, phi.values)
    else:  # warm restart: replay the cached fluxes and march on
        known = cached.n_steps
        values[: known + 1] = cached.values
    _profile_at(scenario, t, phi.values, values, known)
    values.flags.writeable = False
    traj = BirthTrajectory(t, g.step, values)
    scenario.caches[key] = traj
    return traj


def branch_values(scenario, t, phi, s):
    """Node values of the evolved profile after elapsed span s (aligned).

    Ages at or below s carry propagated newborn values, ages above s carry
    transported initial data; s = 0 returns the profile unchanged.
    """
    m = scenario.age_grid.index_of(s, "elapsed span")
    if m == 0:
        return np.array(phi.values, dtype=float)
    traj = solve_birth(scenario, t, phi, s)
    return _profile_at(scenario, t, phi.values, traj.values, m)


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
