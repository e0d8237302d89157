"""Discrete renewal (birth trajectory) solver.

For a frozen time t and initial profile phi, the newborn flux B(s) solves a
Volterra equation: the birth integral of the evolved profile, where ages
below s carry propagated newborn values U_t(a, 0) B(s - a) and ages above s
carry transported initial data U_t(a, a - s) phi(a - s).

Discretization: one composite trapezoid quadrature over the full age
interval, applied to the two-branch integrand, with the diagonal node a = s
assigned to the newborn branch.  Writing the equation this way (rather than
as two separate trapezoid sums meeting at the diagonal) makes the discrete
birth trajectory EXACTLY the birth integral of the discrete evolved profile,
so the consistency residual is limited only by the per-step linear solve.
The unknown B(s_k) enters through the a = 0 quadrature endpoint where
U_t(0, 0) is the identity, leaving a d x d solve per step with matrix
I - (h/2) b(0).

The march is first order at the branch seam for incompatible data and second
order for balanced profiles; both refine under grid halving.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .core import (
    StateVector,
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
    "transported_rows",
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

    def at_index(self, k):
        return self.values[k]


def _boundary_solver(scenario):
    """LU factorization of I - (h/2) b(0), cached on the scenario."""
    key = "boundary_lu"
    cached = scenario.caches.get(key)
    if cached is not None:
        return cached
    h = scenario.age_grid.step
    b0 = scenario.birth_matrices()[0]
    mat = np.eye(scenario.dim) - 0.5 * h * b0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            lu = lu_factor(mat)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(
                "boundary system is singular: step * b(0) / 2 has eigenvalue 1; "
                "refine the age grid or rescale the birth kernel"
            ) from exc
    tiny = np.finfo(float).eps * max(1.0, float(np.max(np.abs(mat))))
    if not np.all(np.isfinite(lu[0])) or np.min(np.abs(np.diag(lu[0]))) < tiny:
        raise ValidationError(
            "boundary system is singular: step * b(0) / 2 has eigenvalue 1; "
            "refine the age grid or rescale the birth kernel"
        )
    scenario.caches[key] = lu
    return lu


def _row_products(mats, rows):
    """Row-wise products mats[i] @ rows[i] for stacks (m, d, d) and (m, d)."""
    return np.matmul(mats, rows[:, :, None])[:, :, 0]


def _transport(steps, rows, level):
    """Advance rows 0 .. n_age - level by one cell each, in place.

    Row j moves through the step map of cell j + level - 1; applying levels
    1, 2, ... in turn carries phi(a_j) to age a_{j + level}.
    """
    n = steps.shape[0]
    rows[: n - level + 1] = _row_products(steps[level - 1 :], rows[: n - level + 1])


def _newborn_rows(chain, values, k, top):
    """Rows U_t(a_i, 0) values[k - i] for i = 1 .. top."""
    return _row_products(chain[1 : top + 1], values[k - top : k][::-1])


def transported_rows(scenario, t, phi_values, level):
    """Rows U_t(a_{j+level}, a_j) phi(a_j) for j = 0 .. n_age - level.

    Each level advances every surviving row through its cell's map from the
    frozen time's step-map stack, one batched product per level; the renewal
    march below uses the identical update, so recomputed rows agree bitwise
    with the march's internal values.
    """
    n = scenario.age_grid.n_age
    if level > n:
        raise ValidationError("transport level exceeds the age grid")
    steps, _ = _frozen_maps(scenario, t)
    rows = np.array(phi_values, dtype=float)
    for k in range(1, level + 1):
        _transport(steps, rows, k)
    return rows[: n - level + 1]


def _march(scenario, t, phi_values, n_steps, warm=None):
    """Run the renewal march for ``n_steps`` steps, optionally extending.

    Step k transports the initial-data rows by one level and forms the
    newborn branch from the chain stack, each as one batched product over
    the age nodes, then solves the boundary system for B(s_k).  ``warm``
    may hold a previous value array with at least n_age steps; past that
    point the transported-initial-data branch is empty and the march
    continues from newborn history alone.
    """
    n = scenario.age_grid.n_age
    steps, chain = _frozen_maps(scenario, t)
    lu = _boundary_solver(scenario)
    d = scenario.dim

    if warm is not None and warm.shape[0] - 1 >= n:
        start = warm.shape[0]
        B = np.empty((n_steps + 1, d))
        B[:start] = warm
    else:
        start = 1
        B = np.empty((n_steps + 1, d))
        B[0] = birth_quadrature(scenario, phi_values)
    if n_steps + 1 <= start:
        return B[: n_steps + 1]

    moving = np.array(phi_values, dtype=float)  # row j: transported phi(a_j)
    branch = np.empty((n + 1, d))
    for k in range(start if start > n else 1, n_steps + 1):
        if k <= n:
            _transport(steps, moving, k)
        if k < start:
            continue
        top = min(k, n)
        branch[0] = 0.0  # slot of the implicit unknown
        branch[1 : top + 1] = _newborn_rows(chain, B, k, top)
        if k < n:
            branch[k + 1 :] = moving[1 : n - k + 1]
        B[k] = lu_solve(lu, birth_quadrature(scenario, branch))
    return B


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
    warm = cached.values if cached is not None else None
    values = _march(scenario, t, phi.values, n_steps, warm=warm)
    values.flags.writeable = False
    traj = BirthTrajectory(t, g.step, values)
    scenario.caches[key] = traj
    return traj


def branch_values(scenario, t, phi, s):
    """Node values of the evolved profile after elapsed span s (aligned).

    Ages at or below s carry propagated newborn values, ages above s carry
    transported initial data; s = 0 returns the profile unchanged.
    """
    g = scenario.age_grid
    m = g.index_of(s, "elapsed span")
    if m == 0:
        return np.array(phi.values, dtype=float)
    traj = solve_birth(scenario, t, phi, s)
    _, chain = _frozen_maps(scenario, t)
    n = g.n_age
    out = np.empty((n + 1, scenario.dim))
    top = min(m, n)
    out[0] = traj.values[m]  # U_t(0, 0) is the identity
    out[1 : top + 1] = _newborn_rows(chain, traj.values, m, top)
    if m < n:
        out[m + 1 :] = transported_rows(scenario, t, phi.values, m)[1:]
    return out


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


def birth_derivative_residual(scenario, t, phi, s, dstep=None):
    """Residual of the derivative identity for the birth trajectory.

    The s-derivative of the newborn flux of phi equals the newborn flux of
    the generator applied to phi.  The left side uses a centered difference
    with span ``dstep`` (default one grid step); the identity requires a
    balanced profile and the residual decays first order in the grid.
    """
    g = scenario.age_grid
    h = g.step
    if dstep is None:
        dstep = h
    k = g.index_of(dstep, "derivative step")
    if k < 1:
        raise ValidationError("derivative step must be at least one grid step")
    m = g.index_of(s, "elapsed span")
    if m - k < 0:
        raise ValidationError("derivative stencil leaves the trajectory")
    traj = solve_birth(scenario, t, phi, s + k * h)
    lhs = (traj.values[m + k] - traj.values[m - k]) / (2 * k * h)
    gen_traj = solve_birth(scenario, t, apply_generator(scenario, t, phi), s)
    return spatial_norm(lhs - gen_traj.values[m], scenario.norm)
