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
    _state_distance,
    make_profile,
    state_norm,
)
from .evolution import _check_tol, apply_approximant, apply_evolution
from .propagator import growth_bound

__all__ = [
    "FORCING_NAMES",
    "ForcedTrajectory",
    "duhamel_residual",
    "forced_bound_margin",
    "forcing_preset",
    "solve_forced",
]

# name -> (make_profile name, time factor f(t, T) over the horizon T)
_FORCINGS = {
    "constant": ("ones", lambda t, T: 1.0),
    "pulse": ("age_bump", lambda t, T: np.exp(-(((t - 0.3 * T) / (0.1 * T)) ** 2))),
    "sinusoid": ("smooth_random", lambda t, T: np.sin(2.0 * np.pi * t / T)),
}
FORCING_NAMES = tuple(_FORCINGS)


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
    return values


def _march(scenario, phi, times, n, forcing=None):
    """States at each node of ``times``; ``forcing`` adds the half-steps above,
    read once per node in time order: only the next step's kick is kept."""
    half = 0.5 * (times[1] - times[0]) if len(times) > 1 else 0.0  # one node: no step
    kick = None if forcing is None else half * _eval_forcing(scenario, forcing, times[0])
    states = [phi]
    current = phi
    for t_prev, t in zip(times, times[1:]):
        if kick is not None:
            current = current.with_values(current.values + kick)
        current = apply_approximant(scenario, n, t, t_prev, current)
        if kick is not None:
            kick = half * _eval_forcing(scenario, forcing, t)
            current = current.with_values(current.values + kick)
        states.append(current)
    return states


def solve_forced(scenario, phi, forcing, t_end, tol=1e-6):
    """Solve u' = A(t)u + f with initial profile phi up to t_end.

    The partition count is fixed by one doubling ladder on the homogeneous
    part (or on the forcing profile when phi vanishes), then the whole
    trajectory is marched at that count.  Returns the states at every
    time-grid node in [0, t_end], with u(0) = phi exactly.
    """
    _check_tol(tol)
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
        n = apply_evolution(scenario, t_end, 0.0, probe, tol=tol).n_used
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
        gap = _state_distance(scenario, state, twin)
        worst = max(worst, gap)
    return worst


def forced_bound_margin(scenario, trajectory, phi, forcing, slack=0.0):
    """Margin of the a-priori growth bound along a forced trajectory.

    Checks ||u(t)|| <= M0 e^{rate t} (||phi|| + integral of ||f||) at every
    trajectory node, with M0 and the rate from ``growth_bound(scenario, 0)``
    and the forcing integral accumulated by trapezoid quadrature on the same
    nodes.  Returns the smallest slack (nonnegative means the bound holds
    everywhere).
    """
    m0, rate = growth_bound(scenario, 0)
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
        bound = m0 * np.exp(rate * t) * (phi_norm + accumulated)
        margin = min(margin, bound * (1.0 + slack) - state_norm(scenario, state))
    return float(margin)


def forcing_preset(scenario, name, seed=0, amplitude=1.0):
    """Named forcing routine (t -> StateVector) for demos and the CLI.

    The forcing at t is amplitude times a time factor times a fixed profile.
    constant: a flat profile, fixed in time (factor 1).
    pulse: an age bump modulated by a Gaussian window in time.
    sinusoid: a smooth random profile modulated by one sine period.
    """
    if name not in _FORCINGS:
        raise ConfigError(
            f"unknown forcing {name!r}; available: {', '.join(FORCING_NAMES)}"
        )
    profile, factor = _FORCINGS[name]
    base = make_profile(scenario, profile, seed=seed)
    horizon = scenario.time_grid.horizon

    def forcing(t):
        return base.with_values(amplitude * factor(t, horizon) * base.values)

    return forcing
