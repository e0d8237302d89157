"""Picard solver for state-coupled operator fields on a shrinking horizon.

Each iterate freezes the previous trajectory inside the operator field,
solves the resulting linear problem, and measures the sup-in-time gap to
the previous iterate.  The horizon is halved whenever an iterate leaves
the trust ball around the initial profile or the gap ratio stops looking
like a contraction, which mirrors how the underlying fixed-point argument
trades horizon length for contraction strength.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConvergenceError,
    OperatorField,
    StateVector,
    ValidationError,
    _check_count,
    _check_lipschitz_t,
    _matrix_norms,
    _state_distance,
    graph_state_norm,
    make_profile,
    state_norm,
)
from .evolution import _check_tol, apply_evolution, eta_constant
from .mild import _march
from .propagator import _share_frozen, growth_bound

__all__ = [
    "IteratesReport",
    "LipschitzReport",
    "QuasilinearProblem",
    "QuasilinearTrajectory",
    "check_lipschitz",
    "continuous_dependence_gap",
    "contraction_estimate",
    "fixed_point_residual",
    "norm_coupled_diffusion",
    "solve_quasilinear",
]


@dataclass(frozen=True)
class QuasilinearProblem:
    """State-coupled operator family with its declared contraction data.

    ``operator_of_state(v, t, ages)`` returns the (len(ages), d, d) stack of
    generator matrices felt over the 1-d age array ``ages`` at time t by a
    population whose current profile is v: the contract of
    ``OperatorField.evaluate`` with the state in front.  ``lipschitz_l``
    bounds the state sensitivity of that map in the base norm, and
    ``ball_radius`` and ``ball_center`` fix the trust ball, the state-norm
    ball that every iterate must stay in.  ``lipschitz_t``, when declared,
    bounds the time sensitivity t -> A(v, t) in the operator norm at any
    fixed state of the ball; a frozen trajectory's field adds the state
    drift to it, and 0.0 on a constant iterate lets the evolution ladder
    stop at one level.  None (the default) declares nothing and every
    iterate runs the ladder.
    """

    operator_of_state: object
    lipschitz_l: float
    ball_radius: float
    ball_center: StateVector
    lipschitz_t: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.lipschitz_l) and self.lipschitz_l > 0):
            raise ValidationError("lipschitz_l must be a positive real")
        if not (np.isfinite(self.ball_radius) and self.ball_radius > 0):
            raise ValidationError("ball_radius must be a positive real")
        _check_lipschitz_t(self.lipschitz_t)
        if not isinstance(self.ball_center, StateVector):
            raise ValidationError("ball_center must be a StateVector")


@dataclass(frozen=True)
class LipschitzReport:
    """Worst sampled state sensitivity against the declared constant."""

    observed_l: float
    declared_l: float
    exceeded: bool


@dataclass(frozen=True)
class QuasilinearTrajectory:
    """Fixed-point trajectory, one state per node; a solved one lends the residual its maps."""

    times: tuple
    states: tuple
    n_used: int
    _producer: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (1 <= len(self.states) == len(self.times)
                and all(isinstance(s, StateVector) for s in self.states)):
            raise ValidationError("a trajectory needs one StateVector per time, at least one")

    def __reduce__(self):  # the producing step holds closures; a copy rebuilds its maps
        return QuasilinearTrajectory, (self.times, self.states, self.n_used)

    @property
    def final(self):
        return self.states[-1]


@dataclass(frozen=True)
class IteratesReport:
    """Per-iteration record of the accepted Picard run.

    The contraction factor it predicts is :func:`contraction_estimate`'s.
    """

    t_phi: float
    halvings: int
    sup_gaps: tuple
    integral_gaps: tuple
    n_used: int

    def as_dict(self):
        return {
            "t_phi": self.t_phi,
            "halvings": self.halvings,
            "sup_gaps": list(self.sup_gaps),
            "integral_gaps": list(self.integral_gaps),
            "n_used": self.n_used,
        }


def check_lipschitz(problem, scenario, samples=8, seed=0):
    """Sampled state-sensitivity of the operator family inside the ball.

    Draws pairs in the trust ball, evaluates the field difference at a
    random time over every age node, and returns the worst ratio against
    the declared constant.  A coincident pair is skipped, not redrawn, so it
    contributes no ratio and uses up one of the ``samples`` draws.
    """
    _check_count(samples, 1, "samples")
    rng = np.random.default_rng(seed)
    nodes = scenario.age_grid.nodes
    center = problem.ball_center
    horizon = scenario.time_grid.horizon
    observed = 0.0
    for _ in range(samples):
        v1 = _ball_sample(scenario, problem, rng)
        v2 = _ball_sample(scenario, problem, rng)
        dv = _state_distance(scenario, v1, v2)
        if dv == 0.0:
            continue
        t = float(rng.uniform(0.0, horizon))
        gaps = (np.asarray(problem.operator_of_state(v1, t, nodes))
                - np.asarray(problem.operator_of_state(v2, t, nodes)))
        worst = float(np.max(_matrix_norms(gaps, scenario.norm)))
        observed = max(observed, worst / dv)
    exceeded = observed > problem.lipschitz_l * (1 + 1e-9)
    return LipschitzReport(float(observed), problem.lipschitz_l, exceeded)


def _ball_sample(scenario, problem, rng):
    g = scenario.age_grid
    raw = rng.standard_normal((g.n_age + 1, scenario.dim))
    scale = state_norm(scenario, problem.ball_center.with_values(raw))
    if scale == 0.0:
        return problem.ball_center
    radius = problem.ball_radius * float(rng.uniform(0.1, 1.0))
    return problem.ball_center.with_values(
        problem.ball_center.values + (radius / scale) * raw
    )


def _eta_and_r(scenario):
    """The evolution bound's rate eta and prefactor R = M0 M1."""
    return eta_constant(scenario), growth_bound(scenario, 0)[0] * growth_bound(scenario, 1)[0]


def contraction_estimate(scenario, problem, t_phi):
    """Predicted Picard contraction factor L R e^{eta t_phi} |phi|_graph t_phi.

    Returns a dict of that factor, ``eta``, ``r_constant`` (R = M0 M1) and
    ``phi_graph_norm`` (of the ball center), from :func:`default_constants`.
    """
    eta, r_constant = _eta_and_r(scenario)
    phi_graph = graph_state_norm(scenario, problem.ball_center)
    return {
        "predicted_contraction": (
            problem.lipschitz_l * r_constant * math.exp(eta * t_phi) * phi_graph * t_phi
        ),
        "eta": eta,
        "r_constant": r_constant,
        "phi_graph_norm": phi_graph,
    }


def continuous_dependence_gap(scenario, a1, a2, phi, s, t, tol=1e-6):
    """Evolution gap for two operator fields against its a-priori bound.

    Returns (lhs, rhs): the state-norm distance of the two evolved
    profiles, and R e^{eta (t-s)} |phi|_graph times the time integral of
    the worst-in-age matrix-norm field difference.
    """
    u1 = apply_evolution(scenario._with_operator(a1), t, s, phi, tol=tol).value
    u2 = apply_evolution(scenario._with_operator(a2), t, s, phi, tol=tol).value
    lhs = _state_distance(scenario, u1, u2)
    taus = np.linspace(s, t, 65)
    nodes = scenario.age_grid.nodes
    sep = [
        np.max(_matrix_norms(a1.sample(tau, nodes) - a2.sample(tau, nodes), scenario.norm))
        for tau in taus
    ]
    integral = float(np.trapezoid(sep, taus)) if t > s else 0.0
    eta, r_constant = _eta_and_r(scenario)
    rhs = r_constant * math.exp(eta * (t - s)) * graph_state_norm(scenario, phi) * integral
    return float(lhs), float(rhs)


def _blend(times, values, t):
    """``values`` at ``times`` interpolated linearly at t, held at the end values outside."""
    if len(times) == 1:
        return values[0]
    x = min(max((t - times[0]) / (times[1] - times[0]), 0.0), len(times) - 1)
    j = min(int(x), len(times) - 2)
    w = x - j
    return (1.0 - w) * values[j] + w * values[j + 1]


def _trajectory_field(scenario, problem, times, states):
    """Operator field obtained by freezing a trajectory inside the family.

    Each sample of the field takes the trajectory's :func:`_blend` at its
    frozen time once and hands it with the whole age array to
    ``operator_of_state``, so two fields of one problem whose blends at t
    are byte-equal sample bit-equal generators there.  The field's declared
    time-Lipschitz constant is the problem's ``lipschitz_t`` plus
    ``lipschitz_l`` times the interpolant's own Lipschitz constant, the
    largest node-to-node state gap over dt: exactly 0.0 for a constant
    trajectory on a time-independent family, and None when the problem
    declares no time constant.
    """
    values = [s.values for s in states]
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    lipschitz_t = None
    if problem.lipschitz_t is not None:
        drift = max(
            (_state_distance(scenario, b, a) for a, b in zip(states, states[1:])),
            default=0.0,
        )
        lipschitz_t = problem.lipschitz_t + problem.lipschitz_l * drift / dt

    def evaluate(t, ages):
        blended = _blend(times, values, t)
        return problem.operator_of_state(StateVector(scenario.age_grid, blended), t, ages)

    return OperatorField(scenario.dim, evaluate, lipschitz_t=lipschitz_t)


@dataclass(frozen=True, eq=False)
class _PicardStep:
    """A Picard step: its problem, the trajectory it froze and the scenario frozen on it."""

    problem: QuasilinearProblem
    times: tuple
    values: tuple
    scenario: object


def _freeze(scenario, problem, times, states, prev):
    """The Picard step frozen on a trajectory, with ``prev``'s maps where its blend is equal."""
    step = _PicardStep(problem, times, tuple(s.values for s in states),
                       scenario._with_operator(_trajectory_field(scenario, problem, times, states)))
    if prev is not None and prev.problem is problem:
        _share_frozen(prev.scenario, step.scenario,
                      lambda t: _blend(prev.times, prev.values, t).tobytes()  # -0.0 is not 0.0
                      == _blend(times, step.values, t).tobytes())
    return step


def _picard_step(step, tol):
    phi = step.problem.ball_center
    n = apply_evolution(step.scenario, step.times[-1], 0.0, phi, tol=tol).n_used
    return tuple(_march(step.scenario, phi, step.times, n)), n


def _trajectory_gap(scenario, new_states, old_states, times):
    gaps = [_state_distance(scenario, a, b) for a, b in zip(new_states, old_states)]
    return max(gaps), float(np.trapezoid(gaps, times))


def _confined(scenario, problem, states):
    """Whether every state stays in the trust ball."""
    phi = problem.ball_center
    return not any(_state_distance(scenario, s, phi) > problem.ball_radius * (1 + 1e-12)
                   for s in states)


def solve_quasilinear(scenario, problem, tol=1e-6, max_iter=25, initial="center"):
    """Fixed-point trajectory of the state-coupled problem.

    Returns (trajectory, t_phi, report).  The Picard loop starts from the
    constant-in-time center profile (or from the first linear solve when
    initial="linear"), accepts when the sup-in-time gap between iterates
    drops to tol, and halves the horizon on ball exit or on a gap ratio
    above 0.9, restarting the loop.  Running out of ``max_iter``
    iterations at one horizon, or the horizon underflowing one time step,
    raises a convergence error carrying that horizon's sup gaps.  No
    stability constant is estimated: see :func:`contraction_estimate`.
    """
    _check_tol(tol)
    _check_count(max_iter, 1, "max_iter")
    if initial not in ("center", "linear"):
        raise ValidationError("initial must be 'center' or 'linear'")
    phi = problem.ball_center
    if phi.grid != scenario.age_grid:
        raise ValidationError("ball_center lives on a different age grid")
    dt = scenario.time_grid.step
    n_time = scenario.time_grid.n_time
    step = None  # rebound before each march, so no step outlives the next one's handoff
    for halvings in range(n_time.bit_length()):
        times = tuple(j * dt for j in range((n_time >> halvings) + 1))
        states = (phi,) * len(times)
        sup_gaps, integral_gaps = [], []
        if initial == "linear":
            step = _freeze(scenario, problem, times, states, step)
            states, _ = _picard_step(step, tol)
            if not _confined(scenario, problem, states):
                continue
        for _ in range(max_iter):
            step = _freeze(scenario, problem, times, states, step)
            new_states, n_used = _picard_step(step, tol)
            gap, integral = _trajectory_gap(scenario, new_states, states, times)
            sup_gaps.append(gap)
            integral_gaps.append(integral)
            if not _confined(scenario, problem, new_states):
                break
            if gap <= tol:
                report = IteratesReport(times[-1], halvings, tuple(sup_gaps),
                                        tuple(integral_gaps), n_used)
                return QuasilinearTrajectory(times, new_states, n_used, step), times[-1], report
            if len(sup_gaps) >= 2 and sup_gaps[-2] > 0 and gap / sup_gaps[-2] > 0.9:
                break  # stalled: no contraction at this horizon
            states = new_states
        else:
            raise ConvergenceError(
                f"no fixed point within {max_iter} iterations at horizon "
                f"{times[-1]!r}; sup gaps: {[float(x) for x in sup_gaps]}",
                history=sup_gaps,
            )
    raise ConvergenceError(
        "contraction horizon fell below one time step; weaken the state "
        "coupling, enlarge the ball, or refine the time grid",
        history=sup_gaps,
    )


def fixed_point_residual(scenario, problem, trajectory, tol=1e-6):
    """Gap between a trajectory and one more linear solve driven by it.

    Returns the sup-in-time state-norm distance, the quantity the accepted
    fixed point promises to keep below twice the Picard tolerance.  A solve's
    trajectory lends its last step's maps, for this problem object on a scenario
    sharing its kernel record, at the frozen times where the fields are bit-equal.
    """
    step = _freeze(scenario, problem, trajectory.times, trajectory.states, trajectory._producer)
    states, _ = _picard_step(step, tol)
    gap, _ = _trajectory_gap(scenario, states, trajectory.states, trajectory.times)
    return gap


def norm_coupled_diffusion(scenario, epsilon, radius, center=None):
    """Coupling family scaling the scenario field by 1 + epsilon |v|.

    The declared Lipschitz constant is epsilon times the largest field
    matrix norm sampled on the grid, which is exact for this family since
    the field difference between two states is the norm difference times
    the same matrix.  The declared time constant is the base field's
    ``lipschitz_t`` times the largest scale in the ball, 1 + epsilon
    (|center| + radius): 0.0 on a time-independent base, None when the base
    declares none.
    """
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValidationError("epsilon must be a nonnegative real")
    phi = center if center is not None else make_profile(scenario, "ones")
    times = scenario.time_grid.nodes
    if scenario.operator.time_independent:
        times = times[:1]
    nodes = scenario.age_grid.nodes
    peak = max(
        float(np.max(_matrix_norms(scenario.operator.sample(t, nodes), scenario.norm)))
        for t in times
    )

    def operator_of_state(v, t, ages):
        stack = scenario.operator.sample(t, ages)
        stack *= 1.0 + epsilon * state_norm(scenario, v)
        return stack

    base_t = scenario.operator.lipschitz_t
    if base_t is not None:
        base_t = (1.0 + epsilon * (state_norm(scenario, phi) + radius)) * base_t
    return QuasilinearProblem(
        operator_of_state=operator_of_state,
        lipschitz_l=max(epsilon * peak, 1e-12),
        ball_radius=radius,
        ball_center=phi,
        lipschitz_t=base_t,
    )
