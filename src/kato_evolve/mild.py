"""Mild solutions of the forced linear problem.

The trajectory follows the variation-of-constants representation with a
composite trapezoid quadrature of the transported forcing over the time
grid.  Each step applies the accepted piecewise-frozen approximant to the
running state plus half a step of forcing on either side,

    u_j = U_n(t_j, t_{j-1})(u_{j-1} + (dt/2) f_{j-1}) + (dt/2) f_j,

which unrolls to the full trapezoid sum because approximant composition is
exact to rounding.  The march therefore matches the direct quadrature while
costing one approximant application per time step.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    StateVector,
    ValidationError,
    _align_index,
    make_profile,
    state_norm,
)
from .evolution import apply_approximant, apply_evolution
from .propagator import default_constants

FORCING_NAMES = ("constant", "pulse", "sinusoid")


@dataclass(frozen=True)
class ForcedTrajectory:
    """States of a forced solve at the time-grid nodes up to t_end."""

    times: tuple
    states: tuple
    n_used: int
    step: float

    @property
    def final(self):
        return self.states[-1]


def _eval_forcing(scenario, forcing, sigma):
    try:
        raw = forcing(sigma)
    except Exception as exc:
        raise ValidationError(
            f"forcing evaluation failed at sigma={sigma!r}: {exc}"
        ) from exc
    values = raw.values if isinstance(raw, StateVector) else np.asarray(raw, dtype=float)
    expected = (scenario.age_grid.n_age + 1, scenario.dim)
    if values.shape != expected:
        raise ValidationError(
            f"forcing at sigma={sigma!r} has shape {values.shape}, expected {expected}"
        )
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"forcing at sigma={sigma!r} is not finite")
    return np.array(values, dtype=float)


def _march(scenario, phi, times, n, forcing=None):
    """States at each node of ``times``; ``forcing`` adds the half-steps above."""
    half = 0.5 * (times[1] - times[0])
    f = None if forcing is None else [_eval_forcing(scenario, forcing, t) for t in times]
    states = [phi]
    current = phi
    for j in range(1, len(times)):
        if f is not None:
            current = current.with_values(current.values + half * f[j - 1])
        current = apply_approximant(scenario, n, times[j], times[j - 1], current)
        if f is not None:
            current = current.with_values(current.values + half * f[j])
        states.append(current)
    return states


def solve_forced(scenario, phi, forcing, t_end, tol=1e-6, n_max=None):
    """Solve u' = A(t)u + f with initial profile phi up to t_end.

    The partition count is fixed by one doubling ladder on the homogeneous
    part (or on the forcing profile when phi vanishes), then the whole
    trajectory is marched at that count.  Returns the states at every
    time-grid node in [0, t_end], with u(0) = phi exactly.
    """
    tg = scenario.time_grid
    if not (np.isfinite(t_end) and 0 <= t_end <= tg.horizon * (1 + 1e-12)):
        raise ValidationError(f"t_end must lie in [0, horizon], got {t_end!r}")
    m = _align_index(t_end, tg.step, tg.n_time, "end time")
    dt = tg.step
    if m == 0:
        return ForcedTrajectory((0.0,), (phi,), 1, dt)
    probe = phi
    if state_norm(scenario, probe) == 0.0:
        mid = (m // 2) * dt
        probe = phi.with_values(_eval_forcing(scenario, forcing, mid))
    if state_norm(scenario, probe) == 0.0:
        n = 1
    else:
        n = apply_evolution(scenario, t_end, 0.0, probe, tol=tol, n_max=n_max).n_used
    times = tuple(j * dt for j in range(m + 1))
    states = _march(scenario, phi, times, n, forcing)
    return ForcedTrajectory(times, tuple(states), n, dt)


def duhamel_residual(scenario, trajectory, phi, forcing):
    """Self-consistency gap of a forced solve against a half-step re-solve.

    Re-runs the march at half the quadrature step with the same partition
    count and returns the largest state-norm discrepancy over the shared
    time nodes.  The half step must land on the age lattice; choose n_time
    so that the time step is an even multiple of the age step.
    """
    if not trajectory.states:
        raise ValidationError("trajectory is empty")
    first = trajectory.states[0]
    if not np.allclose(first.values, phi.values, rtol=0.0, atol=0.0):
        raise ValidationError("trajectory does not start at the given profile")
    m = len(trajectory.times) - 1
    if m == 0:
        return 0.0
    half_dt = 0.5 * trajectory.step
    scenario.age_grid.index_of(half_dt, "half quadrature step")
    times = tuple(j * half_dt for j in range(2 * m + 1))
    refined = _march(scenario, phi, times, trajectory.n_used, forcing)
    worst = 0.0
    for j, state in enumerate(trajectory.states):
        twin = refined[2 * j]
        gap = state_norm(scenario, state.with_values(state.values - twin.values))
        worst = max(worst, gap)
    return worst


def forced_bound_margin(scenario, trajectory, phi, forcing, constants=None, slack=0.0):
    """Margin of the a-priori growth bound along a forced trajectory.

    Checks ||u(t)|| <= M0 e^{(omega0 + M0 |b|) t} (||phi|| + integral of
    ||f||) at every trajectory node, with the forcing integral accumulated
    by trapezoid quadrature on the same nodes.  Returns the smallest slack
    (nonnegative means the bound holds everywhere).
    """
    if constants is None:
        constants = default_constants(scenario)
    rate = constants.omega0 + constants.m0 * scenario.birth_norm(0)
    phi_norm = state_norm(scenario, phi)
    f_norms = [
        state_norm(scenario, phi.with_values(_eval_forcing(scenario, forcing, t)))
        for t in trajectory.times
    ]
    margin = np.inf
    accumulated = 0.0
    for j, (t, state) in enumerate(zip(trajectory.times, trajectory.states)):
        if j > 0:
            dt = trajectory.times[j] - trajectory.times[j - 1]
            accumulated += 0.5 * dt * (f_norms[j - 1] + f_norms[j])
        bound = constants.m0 * np.exp(rate * t) * (phi_norm + accumulated)
        margin = min(margin, bound * (1.0 + slack) - state_norm(scenario, state))
    return float(margin)


def forcing_preset(scenario, name, seed=0, amplitude=1.0):
    """Named forcing routine (t -> StateVector) for demos and the CLI.

    constant: a flat profile, fixed in time.
    pulse: an age bump modulated by a Gaussian window in time.
    sinusoid: a smooth random profile modulated by one sine period.
    """
    horizon = scenario.time_grid.horizon
    if name == "constant":
        base = make_profile(scenario, "ones")

        def forcing(t):
            return base.with_values(amplitude * base.values)

    elif name == "pulse":
        base = make_profile(scenario, "age_bump")
        center = 0.3 * horizon
        width = 0.1 * horizon

        def forcing(t):
            factor = amplitude * np.exp(-(((t - center) / width) ** 2))
            return base.with_values(factor * base.values)

    elif name == "sinusoid":
        base = make_profile(scenario, "smooth_random", seed=seed)

        def forcing(t):
            factor = amplitude * np.sin(2.0 * np.pi * t / horizon)
            return base.with_values(factor * base.values)

    else:
        raise ConfigError(
            f"unknown forcing {name!r}; available: {', '.join(FORCING_NAMES)}"
        )
    return forcing
