"""Picard solver for state-coupled operator fields on a shrinking horizon.

Each iterate freezes the previous trajectory inside the operator field,
solves the resulting linear problem, and measures the sup-in-time gap to
the previous iterate.  The horizon is halved whenever an iterate leaves
the trust ball around the initial profile or the gap ratio stops looking
like a contraction, which mirrors how the underlying fixed-point argument
trades horizon length for contraction strength.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    OperatorField,
    StateVector,
    ValidationError,
    graph_state_norm,
    lp_age_norm,
    make_profile,
    matrix_norm,
    state_norm,
)
from .evolution import apply_evolution, eta_constant
from .mild import _march
from .propagator import default_constants


@dataclass(frozen=True)
class QuasilinearProblem:
    """State-coupled operator family with its declared contraction data.

    ``operator_of_state(v, t, ages)`` returns the (len(ages), d, d) stack of
    generator matrices felt over the 1-d age array ``ages`` at time t by a
    population whose current profile is v: the contract of
    ``OperatorField.evaluate`` with the state in front.  ``lipschitz_l``
    bounds the state sensitivity of that map in the base norm,
    ``ball_radius`` and ``ball_center`` fix the trust ball, and ``lp_mode``
    (p, n_zero), when set, additionally confines iterates in the discrete
    L_p-in-age norm.
    """

    operator_of_state: object
    lipschitz_l: float
    ball_radius: float
    ball_center: StateVector
    lp_mode: tuple = None

    def __post_init__(self):
        if not (np.isfinite(self.lipschitz_l) and self.lipschitz_l > 0):
            raise ValidationError("lipschitz_l must be a positive real")
        if not (np.isfinite(self.ball_radius) and self.ball_radius > 0):
            raise ValidationError("ball_radius must be a positive real")
        if self.lp_mode is not None:
            if len(self.lp_mode) != 2:
                raise ValidationError("lp_mode must be a (p, n_zero) pair")
            p, n_zero = self.lp_mode
            if not (np.isfinite(p) and p > 1):
                raise ValidationError("lp_mode exponent must exceed 1")
            if not (np.isfinite(n_zero) and n_zero > 0):
                raise ValidationError("lp_mode n_zero must be positive")


@dataclass(frozen=True)
class LipschitzReport:
    observed_l: float
    declared_l: float
    exceeded: bool


@dataclass(frozen=True)
class QuasilinearTrajectory:
    """Accepted fixed-point trajectory on the time-grid nodes."""

    times: tuple
    states: tuple
    n_used: int

    @property
    def final(self):
        return self.states[-1]


@dataclass(frozen=True)
class IteratesReport:
    """Per-iteration record of the accepted Picard run."""

    t_phi: float
    halvings: int
    sup_gaps: tuple
    integral_gaps: tuple
    predicted_contraction: float
    n_used: int
    eta: float
    r_constant: float
    phi_graph_norm: float

    def as_dict(self):
        return {
            "t_phi": self.t_phi,
            "halvings": self.halvings,
            "sup_gaps": list(self.sup_gaps),
            "integral_gaps": list(self.integral_gaps),
            "predicted_contraction": self.predicted_contraction,
            "n_used": self.n_used,
            "eta": self.eta,
            "r_constant": self.r_constant,
            "phi_graph_norm": self.phi_graph_norm,
        }


def check_lipschitz(problem, scenario, samples=8, seed=0):
    """Sampled state-sensitivity of the operator family inside the ball.

    Draws pairs in the trust ball, evaluates the field difference at a
    random time over every age node, and returns the worst ratio against
    the declared constant.  Coincident pairs are redrawn.
    """
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    nodes = scenario.age_grid.nodes
    center = problem.ball_center
    horizon = scenario.time_grid.horizon
    observed = 0.0
    for _ in range(samples):
        v1 = _ball_sample(scenario, problem, rng)
        v2 = _ball_sample(scenario, problem, rng)
        diff = v1.with_values(v1.values - v2.values)
        dv = state_norm(scenario, diff)
        if dv == 0.0:
            continue
        t = float(rng.uniform(0.0, horizon))
        gaps = (np.asarray(problem.operator_of_state(v1, t, nodes))
                - np.asarray(problem.operator_of_state(v2, t, nodes)))
        worst = max(matrix_norm(m, scenario.norm) for m in gaps)
        observed = max(observed, worst / dv)
    exceeded = observed > problem.lipschitz_l * (1 + 1e-9)
    return LipschitzReport(float(observed), problem.lipschitz_l, exceeded)


def _ball_sample(scenario, problem, rng):
    g = scenario.age_grid
    raw = rng.standard_normal((g.n_age + 1, scenario.dim))
    probe = problem.ball_center.with_values(raw)
    scale = state_norm(scenario, probe.with_values(raw))
    if scale == 0.0:
        return problem.ball_center
    radius = problem.ball_radius * float(rng.uniform(0.1, 1.0))
    return problem.ball_center.with_values(
        problem.ball_center.values + (radius / scale) * raw
    )


def continuous_dependence_gap(scenario, a1, a2, phi, s, t, tol=1e-6, constants=None):
    """Evolution gap for two operator fields against its a-priori bound.

    Returns (lhs, rhs): the state-norm distance of the two evolved
    profiles, and R e^{eta (t-s)} |phi|_graph times the time integral of
    the worst-in-age matrix-norm field difference.
    """
    if constants is None:
        constants = default_constants(scenario)
    u1 = apply_evolution(scenario._with_operator(a1), t, s, phi, tol=tol).value
    u2 = apply_evolution(scenario._with_operator(a2), t, s, phi, tol=tol).value
    lhs = state_norm(scenario, u1.with_values(u1.values - u2.values))
    taus = np.linspace(s, t, 65)
    nodes = scenario.age_grid.nodes
    sep = [
        max(matrix_norm(m, scenario.norm) for m in a1.sample(tau, nodes) - a2.sample(tau, nodes))
        for tau in taus
    ]
    integral = float(np.trapezoid(sep, taus)) if t > s else 0.0
    eta = eta_constant(scenario, constants)
    r_constant = constants.m0 * constants.m1
    rhs = r_constant * math.exp(eta * (t - s)) * graph_state_norm(scenario, phi) * integral
    return float(lhs), float(rhs)


def _trajectory_field(scenario, problem, times, states):
    """Operator field obtained by freezing a trajectory inside the family.

    The trajectory is interpolated linearly in time.  Each sample of the
    field blends the state at its frozen time once and hands the whole age
    array to ``operator_of_state`` in one call.
    """
    values = [s.values for s in states]
    n_nodes = len(times)
    dt = times[1] - times[0] if n_nodes > 1 else 1.0

    def evaluate(t, ages):
        if n_nodes == 1:
            blended = values[0]
        else:
            x = (t - times[0]) / dt
            x = min(max(x, 0.0), n_nodes - 1)
            j = min(int(x), n_nodes - 2)
            w = x - j
            blended = (1.0 - w) * values[j] + w * values[j + 1]
        return problem.operator_of_state(StateVector(scenario.age_grid, blended), t, ages)

    return OperatorField(scenario.dim, evaluate, lipschitz_t=None, label="state-coupled")


def _picard_step(scenario, problem, times, states, tol):
    field = _trajectory_field(scenario, problem, times, states)
    scen = scenario._with_operator(field)
    phi = problem.ball_center
    n = apply_evolution(scen, times[-1], 0.0, phi, tol=tol).n_used
    return tuple(_march(scen, phi, times, n)), n


def _trajectory_gap(scenario, new_states, old_states, times):
    gaps = [
        state_norm(scenario, a.with_values(a.values - b.values))
        for a, b in zip(new_states, old_states)
    ]
    return max(gaps), float(np.trapezoid(gaps, times))


def _confinement_violation(scenario, problem, states):
    phi = problem.ball_center
    for state in states:
        drift = state_norm(scenario, state.with_values(state.values - phi.values))
        if drift > problem.ball_radius * (1 + 1e-12):
            return f"iterate left the ball: drift {drift:.6g} > {problem.ball_radius}"
    if problem.lp_mode is not None:
        p, n_zero = problem.lp_mode
        cap = (n_zero + problem.ball_radius) * lp_age_norm(scenario, phi, p)
        for state in states:
            size = lp_age_norm(scenario, state, p)
            if size > cap * (1 + 1e-12):
                return f"iterate left the L_p ball: {size:.6g} > {cap:.6g}"
    return None


def solve_quasilinear(scenario, problem, tol=1e-6, max_iter=25, initial="center"):
    """Fixed-point trajectory of the state-coupled problem.

    Returns (trajectory, t_phi, report).  The Picard loop starts from the
    constant-in-time center profile (or from the first linear solve when
    initial="linear"), accepts when the sup-in-time gap between iterates
    drops to tol, and halves the horizon on ball exit or on a gap ratio
    above 0.9, restarting the loop.  The horizon underflowing one time
    step raises a convergence error suggesting weaker coupling.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")
    if initial not in ("center", "linear"):
        raise ValidationError("initial must be 'center' or 'linear'")
    phi = problem.ball_center
    if phi.grid != scenario.age_grid:
        raise ValidationError("ball_center lives on a different age grid")
    if problem.lp_mode is not None:
        p, n_zero = problem.lp_mode
        if n_zero + problem.ball_radius < 1.0:
            raise ValidationError(
                "lp_mode cannot confine the center profile: n_zero + radius < 1"
            )
    constants = default_constants(scenario)
    eta = eta_constant(scenario, constants)
    r_constant = constants.m0 * constants.m1
    phi_graph = graph_state_norm(scenario, phi)
    dt = scenario.time_grid.step
    m = scenario.time_grid.n_time
    halvings = 0
    last_history = []
    while m >= 1:
        times = tuple(j * dt for j in range(m + 1))
        outcome = _attempt(scenario, problem, times, tol, max_iter, initial)
        status, states, n_used, sup_gaps, integral_gaps = outcome
        last_history = sup_gaps
        if status == "converged":
            t_phi = times[-1]
            report = IteratesReport(
                t_phi=t_phi,
                halvings=halvings,
                sup_gaps=tuple(sup_gaps),
                integral_gaps=tuple(integral_gaps),
                predicted_contraction=problem.lipschitz_l
                * r_constant
                * math.exp(eta * t_phi)
                * phi_graph
                * t_phi,
                n_used=n_used,
                eta=eta,
                r_constant=r_constant,
                phi_graph_norm=phi_graph,
            )
            return QuasilinearTrajectory(times, states, n_used), t_phi, report
        if status == "max_iter":
            raise ConvergenceError(
                f"no fixed point within {max_iter} iterations at horizon "
                f"{times[-1]!r}; sup gaps: {[float(x) for x in sup_gaps]}",
                history=list(sup_gaps),
            )
        m //= 2
        halvings += 1
    raise ConvergenceError(
        "contraction horizon fell below one time step; weaken the state "
        "coupling, enlarge the ball, or refine the time grid",
        history=list(last_history),
    )


def _attempt(scenario, problem, times, tol, max_iter, initial):
    phi = problem.ball_center
    states = tuple([phi] * len(times))
    n_used = 1
    if initial == "linear":
        states, n_used = _picard_step(scenario, problem, times, states, tol)
        why = _confinement_violation(scenario, problem, states)
        if why is not None:
            return "ball", states, n_used, [], []
    sup_gaps = []
    integral_gaps = []
    prev = states
    for _ in range(max_iter):
        new_states, n_used = _picard_step(scenario, problem, times, prev, tol)
        gap, integral = _trajectory_gap(scenario, new_states, prev, times)
        sup_gaps.append(gap)
        integral_gaps.append(integral)
        why = _confinement_violation(scenario, problem, new_states)
        if why is not None:
            return "ball", new_states, n_used, sup_gaps, integral_gaps
        if gap <= tol:
            return "converged", new_states, n_used, sup_gaps, integral_gaps
        if len(sup_gaps) >= 2 and sup_gaps[-2] > 0 and gap / sup_gaps[-2] > 0.9:
            return "stalled", new_states, n_used, sup_gaps, integral_gaps
        prev = new_states
    return "max_iter", prev, n_used, sup_gaps, integral_gaps


def fixed_point_residual(scenario, problem, trajectory, tol=1e-6):
    """Gap between a trajectory and one fresh linear solve driven by it.

    Rebuilds the frozen-trajectory field from scratch (empty caches) and
    returns the sup-in-time state-norm distance, the quantity the accepted
    fixed point promises to keep below twice the Picard tolerance.
    """
    states, _ = _picard_step(scenario, problem, trajectory.times, trajectory.states, tol)
    gap, _ = _trajectory_gap(scenario, states, trajectory.states, trajectory.times)
    return gap


def norm_coupled_diffusion(scenario, epsilon, radius, center=None, lp_mode=None):
    """Coupling family scaling the scenario field by 1 + epsilon |v|.

    The declared Lipschitz constant is epsilon times the largest field
    matrix norm sampled on the grid, which is exact for this family since
    the field difference between two states is the norm difference times
    the same matrix.
    """
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValidationError("epsilon must be a nonnegative real")
    phi = center if center is not None else make_profile(scenario, "ones")
    times = scenario.time_grid.nodes
    if scenario.operator.time_independent:
        times = times[:1]
    peak = max(
        matrix_norm(m, scenario.norm)
        for t in times
        for m in scenario.operator.sample(t, scenario.age_grid.nodes)
    )

    def operator_of_state(v, t, ages):
        stack = scenario.operator.sample(t, ages)
        stack *= 1.0 + epsilon * state_norm(scenario, v)
        return stack

    return QuasilinearProblem(
        operator_of_state=operator_of_state,
        lipschitz_l=max(epsilon * peak, 1e-12),
        ball_radius=radius,
        ball_center=phi,
        lp_mode=lp_mode,
    )
