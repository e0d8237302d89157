"""Direct characteristics stepper used to cross-validate the evolution pipeline.

This solver never touches the renewal construction or the approximant
products.  It marches the transport equation on the aligned grid with a
first-order split: exact shift along characteristics, one implicit step of
the reaction/diffusion field at every node, then the boundary node is
refilled from the birth quadrature of the profile as it stands (so the
boundary enters with a one-step lag, the main first-order error source).
The implicit step samples the field over the whole age grid, scales the
sample into one matrix buffer kept for the run and takes one batched
solve; it caches nothing, so every field takes the same path.  A run keeps
the state norm of every step and the final state only, so its memory does
not grow with the number of steps.
Agreement with the evolution pipeline under joint refinement is the
strongest end-to-end evidence the package produces.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    StateVector,
    ValidationError,
    _check_count,
    _check_profile_shape,
    _state_distance,
    birth_quadrature,
    refine_scenario,
    state_norm,
)
from .evolution import apply_evolution

__all__ = [
    "CompareRow",
    "OracleTrajectory",
    "compare",
    "solve_direct",
]


@dataclass(frozen=True)
class OracleTrajectory:
    """What a direct run keeps: its step times, the state norm at each, the last state.

    ``times`` and ``norms`` run over every multiple of the age step from 0
    to t_end, ``norms[k]`` being :func:`state_norm` of the state at
    ``times[k]``; ``final`` is the state at t_end (phi itself for a run of
    no steps).  The intermediate states are not kept.
    """

    times: tuple
    norms: tuple
    final: StateVector


def solve_direct(scenario, phi, t_end):
    """March the population equation directly up to t_end.

    One step per age step: shift every node up one slot (the boundary slot
    keeps its previous value), apply the implicit operator step at every
    node as one batched solve with I - step * A(t_new, a_i), then overwrite
    the boundary node with the birth quadrature of the profile.  The field
    sample is scaled into one matrix buffer and the shifted profile written
    into one right-hand-side buffer, both reused at every step.  Returns the step
    times, the state norm at each of them and the final state; a non-finite
    state raises ValidationError at the step that makes it.
    """
    g = scenario.age_grid
    horizon = scenario.time_grid.horizon
    if not (np.isfinite(t_end) and 0 <= t_end <= horizon * (1 + 1e-12)):
        raise ValidationError(f"t_end must lie in [0, horizon], got {t_end!r}")
    n_steps = g.index_of(t_end, "end time")
    _check_profile_shape(scenario, phi.values)
    step = g.step
    nodes = g.nodes
    eye = np.eye(scenario.dim)
    implicit = np.empty((len(nodes), scenario.dim, scenario.dim))
    shifted = np.empty((len(nodes), scenario.dim, 1))
    state = phi
    times = [0.0]
    norms = [state_norm(scenario, phi)]
    for k in range(1, n_steps + 1):
        t_new = k * step
        shifted[1:, :, 0] = state.values[:-1]
        shifted[0, :, 0] = state.values[0]
        np.multiply(scenario.operator.sample(t_new, nodes), -step, out=implicit)
        implicit += eye
        values = np.linalg.solve(implicit, shifted)[:, :, 0]
        values[0] = birth_quadrature(scenario, values)
        state = StateVector(g, values)
        times.append(t_new)
        norms.append(state_norm(scenario, state))
    return OracleTrajectory(tuple(times), tuple(norms), state)


@dataclass(frozen=True)
class CompareRow:
    """One refinement level of the oracle/evolution comparison."""

    delta: float
    discrepancy: float
    order: float


def _resample(scenario, phi):
    """Linear resampling of a profile onto a scenario's (finer) age grid."""
    g = scenario.age_grid
    if phi.grid.n_age == g.n_age:
        return StateVector(g, phi.values)
    values = np.column_stack(
        [np.interp(g.nodes, phi.grid.nodes, phi.values[:, j]) for j in range(phi.values.shape[1])]
    )
    return StateVector(g, values)


def compare(scenario, phi, t_end, refinements, tol=1e-6):
    """Discrepancy table between the direct solver and the evolution system.

    Runs both pipelines on the scenario and on dyadically refined copies,
    resampling the profile each time, and reports (age step, state-norm
    discrepancy at t_end, observed order between consecutive levels).  The
    evolution tolerance is tightened with the grid so the table reflects
    the direct solver's first-order error.
    """
    _check_count(refinements, 2, "refinements")
    rows = []
    prev = None
    for r in range(refinements):
        scen = scenario if r == 0 else refine_scenario(scenario, 2**r)
        fine_phi = _resample(scen, phi)
        direct = solve_direct(scen, fine_phi, t_end).final
        evolved = apply_evolution(scen, t_end, 0.0, fine_phi, tol=tol * 0.5**r).value
        gap = _state_distance(scen, direct, evolved)
        if prev is not None and prev > 0 and gap > 0:
            order = math.log2(prev / gap)
        else:
            order = float("nan")
        rows.append(CompareRow(scen.age_grid.step, gap, order))
        prev = gap
    return rows
