"""Piecewise-frozen approximants and the limit evolution system.

The time interval is split into n equal cells; within each cell the
generator is frozen at the cell's left endpoint, and the approximant is the
resulting product of frozen-time semigroup factors.  Doubling n and watching
the gap between consecutive levels realizes the limit object: evolution of
the full non-autonomous problem.

Partition counts are powers of two whose cell length is a whole number of
age steps, so every approximant is an integer cell schedule on the age
lattice and the doubling ladder is free of interpolation noise.  Gaps
sitting at the rounding floor get one extra probe level before being
trusted: a coefficient field can alias between two partition levels (equal
samples at the coarse breakpoints) without being time-independent, and the
probe tells the two situations apart.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    GridAlignmentError,
    StateVector,
    ValidationError,
    _state_distance,
    apply_generator,
    state_norm,
)
from .products import ProductPlan
from .propagator import growth_bound
from .renewal import _march_plan

__all__ = [
    "EvolutionResult",
    "allowed_partitions",
    "approximant_plan",
    "apply_approximant",
    "apply_evolution",
    "evolution_cocycle_residual",
    "evolution_bound_margin",
    "right_derivative_residual",
    "s_derivative_residual",
    "convergence_study",
    "eta_constant",
]

# Gaps below this multiple of the evolved scale are rounding noise, not
# discretization signal; see the aliasing discussion in the module docstring.
FLOOR_FACTOR = 1e-12


@dataclass(frozen=True)
class EvolutionResult:
    """Accepted evolution value with its convergence metadata.

    ``n_used`` names the partition level of ``value``.  ``cauchy_gap`` is the
    gap that triggered acceptance, measured between consecutive levels; when
    the gap sat at the rounding floor the coarse level is returned, otherwise
    the finer one.  ``gaps`` collects (n, gap) pairs in evaluation order.  A
    value built by Richardson extrapolation of the accepted pair is labeled
    by ``extrapolated``.
    """

    value: StateVector
    n_used: int
    cauchy_gap: float
    gaps: tuple = ()
    extrapolated: bool = False


def _base_steps(scenario):
    """Number of age steps making up the full time horizon."""
    return scenario.age_grid.index_of(scenario.time_grid.horizon, "time horizon")


def allowed_partitions(scenario):
    """Power-of-two partition counts whose cells are whole age steps."""
    base = _base_steps(scenario)
    out = []
    n = 1
    while base % n == 0:
        out.append(n)
        n *= 2
    return out


def _cells(scenario, n, t, s):
    """Cell schedule of the n-cell approximant between times s and t.

    One (frozen time, age steps) pair per partition cell met by [s, t]:
    the frozen time is the cell's left endpoint and the steps count the
    part of [s, t] inside the cell, so every breakpoint is a lattice node.
    """
    g = scenario.age_grid
    base = _base_steps(scenario)
    if not (isinstance(n, numbers.Integral) and n >= 1 and base % n == 0):
        compatible = ", ".join(str(m) for m in allowed_partitions(scenario))
        raise GridAlignmentError(
            f"partition count {n} does not split the horizon into whole age "
            f"steps; compatible counts: {compatible}"
        )
    cell = base // n
    i_s = g.index_of(s, "start time")
    i_t = g.index_of(t, "end time")
    if not 0 <= i_s <= i_t <= base:
        raise ValidationError(f"need 0 <= s <= t <= horizon, got s={s!r}, t={t!r}")
    h = g.step
    l = min(i_s // cell, n - 1)
    k = max(l, min((i_t - 1) // cell, n - 1))  # cell containing (t - dt, t]
    return tuple((j * cell * h, min((j + 1) * cell, i_t) - max(j * cell, i_s))
                 for j in range(l, k + 1))


def approximant_plan(scenario, n, t, s):
    """Product plan of the n-cell approximant between times s and t.

    Frozen times are the left endpoints of the partition cells met by
    [s, t]; each duration is a whole number of age steps, so the plan is
    exactly aligned.
    """
    h = scenario.age_grid.step
    cells = _cells(scenario, n, t, s)
    return ProductPlan(tuple(tf for tf, _ in cells), tuple(m * h for _, m in cells))


def apply_approximant(scenario, n, t, s, phi):
    """Apply the n-cell piecewise-frozen approximant between s and t."""
    values = _march_plan(scenario, _cells(scenario, n, t, s), phi.values)
    values.flags.writeable = False
    return phi.with_values(values)


def eta_constant(scenario):
    """Growth rate of the evolution bound: the worse of the two norms' rates."""
    return float(max(growth_bound(scenario, 0)[1], growth_bound(scenario, 1)[1]))


def _pairs(scenario, t, s, phi, ns):
    """(coarse, fine, gap, floor) for each consecutive pair of levels ns.

    Level n is the n-cell approximant of phi from s to t, built once, when
    the first pair that reaches it is evaluated.  The floor is
    ``FLOOR_FACTOR`` times the largest norm of phi and of the pair.
    """
    if len(ns) < 2:
        return
    phi_norm = state_norm(scenario, phi)
    fine = apply_approximant(scenario, ns[0], t, s, phi)
    for n in ns[1:]:
        coarse, fine = fine, apply_approximant(scenario, n, t, s, phi)
        gap = _state_distance(scenario, coarse, fine)
        norms = (phi_norm, state_norm(scenario, coarse), state_norm(scenario, fine))
        yield coarse, fine, gap, FLOOR_FACTOR * max(norms)


def _check_tol(tol):
    """Reject a convergence tolerance that is not finite and positive."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be finite and positive, got {tol!r}")


def apply_evolution(scenario, t, s, phi, tol=1e-6, extrapolate=False, confirm=0):
    """Evolve phi from time s to t, doubling the partition until Cauchy.

    Accepts when the gap between consecutive levels drops to tol times the
    profile norm, returning the finer level.  Partition levels whose cell
    schedule is identical to the previous level's are skipped while finer
    distinct schedules remain: a short span sits inside a single coarse cell
    for several doublings, so those levels repeat the same product and their
    zero gaps carry no convergence information.  Once no finer distinct
    schedule exists the repetition works the other way: the remaining pair
    gaps are structurally zero, so the last distinct level is terminal and
    is accepted with a zero gap.  A gap at the rounding floor between
    genuinely distinct schedules is probed one level further before being
    trusted: if the probe gap also sits at the floor, or no pair is left to
    probe it, the coarse level is accepted and reported (genuine
    convergence, as when the field variation does not touch the profile),
    otherwise the first gap was coincidental (field samples aliasing across
    coarse breakpoints) and the ladder goes on with the probe as an
    ordinary pair.
    Raises a convergence error carrying the gap history when the distinct
    schedules run out at the finest allowed level without meeting the
    tolerance.

    With ``extrapolate`` the returned value is the Richardson combination of
    the accepted pair (the gap decays at first order, so doubling kills the
    leading error term); the result is labeled and the reported gap is still
    the raw pair gap.  ``confirm`` asks for that many additional consecutive
    sub-threshold pairs before accepting: a single pair gap can dip under
    the threshold by coincidence when the field samples at two levels
    happen to nearly agree, while the distance to the limit is still
    governed by the unrefined part of the plan.
    """
    _check_tol(tol)
    phi_norm = state_norm(scenario, phi)
    allowed = allowed_partitions(scenario)
    schedules = [_cells(scenario, n, t, s) for n in allowed]
    ns = [n for n, cur, prev in zip(allowed, schedules, [None] + schedules) if cur != prev]
    if phi_norm == 0.0:
        return EvolutionResult(scenario.zero_state(), 1, 0.0)
    if scenario.operator.time_independent or len(ns) == 1:
        # every level gives the same product (ns[0] is 1): a one-point ladder
        return EvolutionResult(apply_approximant(scenario, 1, t, s, phi), 1, 0.0)

    threshold = tol * phi_norm
    history = []
    streak = 0
    probe = None  # (level, n, gap) of the previous pair when it sat at the floor
    for i, (coarse, fine, gap, floor) in enumerate(_pairs(scenario, t, s, phi, ns)):
        history.append((ns[i], gap))
        if gap <= floor:
            # the pair already agrees to rounding, nothing to extrapolate: the
            # coarse level of the first floor pair is trusted once its probe
            # sits at the floor too, or when no probe is left
            if probe is None and i + 2 < len(ns):
                probe, streak = (coarse, ns[i], gap), 0
                continue
            value, n_used, gap = probe or (coarse, ns[i], gap)
            return EvolutionResult(value, n_used, gap, tuple(history))
        probe = None
        streak = streak + 1 if gap <= threshold else 0
        if streak > confirm:
            value = (fine.with_values(2.0 * fine.values - coarse.values)
                     if extrapolate else fine)
            return EvolutionResult(value, ns[i + 1], gap, tuple(history), bool(extrapolate))
    if ns[-1] < allowed[-1]:
        # every remaining level repeats the last distinct schedule, so the
        # next pair gap is structurally zero and the value is terminal
        history.append((ns[-1], 0.0))
        return EvolutionResult(fine, ns[-1], 0.0, tuple(history))
    raise ConvergenceError(
        f"no Cauchy acceptance at tol={tol!r} within partition counts "
        f"{ns}; gaps: {[(n, float(g)) for n, g in history]}",
        history=history,
    )


def evolution_cocycle_residual(scenario, s, r, t, phi, tol=1e-6):
    """Composition-law residual of the evolution at matched tolerances.

    Each of the three evaluations spends an absolute budget of tol times
    the original profile norm; the second splice leg runs relative to its
    own (possibly decayed) input, so its tolerance is rescaled to keep the
    budgets matched.  The legs run with one confirming pair and Richardson
    extrapolation so each lands well inside its budget, keeping the spliced
    and whole evaluations within 3 tol |phi| of each other.
    """
    if not s <= r <= t:
        raise ValidationError(f"need s <= r <= t, got {s!r}, {r!r}, {t!r}")
    phi_norm = state_norm(scenario, phi)
    whole = apply_evolution(scenario, t, s, phi, tol, extrapolate=True, confirm=1)
    inner = apply_evolution(scenario, r, s, phi, tol, extrapolate=True, confirm=1)
    mid_norm = state_norm(scenario, inner.value)
    outer_tol = tol if mid_norm == 0.0 else tol * phi_norm / mid_norm
    outer = apply_evolution(
        scenario, t, r, inner.value, outer_tol, extrapolate=True, confirm=1
    )
    return _state_distance(scenario, whole.value, outer.value)


def evolution_bound_margin(scenario, t, s, phi, tol=1e-6, slack=0.0):
    """Margin of the exponential growth bound on the evolved state."""
    m0, rate = growth_bound(scenario, 0)
    result = apply_evolution(scenario, t, s, phi, tol)
    bound = (
        m0
        * np.exp(rate * (t - s))
        * (1.0 + slack)
        * state_norm(scenario, phi)
    )
    return float(bound - state_norm(scenario, result.value))


def right_derivative_residual(scenario, s, psi, h, tol=1e-6):
    """Residual of the forward time derivative at the diagonal.

    Compares (evolve(s+h, s) - identity)/h against the generator at time s.
    Decays first order in h down to the spatial discretization floor; the
    profile must be birth-balanced for the identity to hold.
    """
    moved = apply_evolution(scenario, s + h, s, psi, tol)
    quotient = (moved.value.values - psi.values) / h
    gen = apply_generator(scenario, s, psi, require_balance=True)
    return state_norm(scenario, psi.with_values(quotient - gen.values))


def s_derivative_residual(scenario, t, s, psi, h, tol=1e-6):
    """Residual of the derivative in the starting time.

    Compares (evolve(t, s+h) - evolve(t, s))/h against minus the evolved
    image of the generator at s.  Same decay regime as the forward
    derivative at the diagonal.
    """
    gen = apply_generator(scenario, s, psi, require_balance=True)
    late = apply_evolution(scenario, t, s + h, psi, tol)
    early = apply_evolution(scenario, t, s, psi, tol)
    moved_gen = apply_evolution(scenario, t, s, gen, tol)
    quotient = (late.value.values - early.value.values) / h
    return state_norm(scenario, psi.with_values(quotient + moved_gen.value.values))


def convergence_study(scenario, t, s, phi):
    """Gap table of the doubling ladder: rows (n, gap to the next level, rate).

    n runs over :func:`allowed_partitions` but the last, so a horizon of
    one partition cell, with no pair of levels to compare, gives no rows
    (s and t are still checked).  The rate column holds log2 of the
    previous gap over the current one (nan for the first row and wherever
    either gap sits at the ladder's rounding floor: ``FLOOR_FACTOR`` times
    the largest norm of phi and of the pair, as in :func:`apply_evolution`).
    For fields Lipschitz in time the gaps decay at first order, rate near 1.
    """
    _cells(scenario, 1, t, s)  # checks s and t when no level is built
    ns = allowed_partitions(scenario)
    rows = []
    prev_signal = None
    for n, (_, _, gap, floor) in zip(ns, _pairs(scenario, t, s, phi, ns)):
        signal = gap if gap > floor else None
        if prev_signal is not None and signal is not None:
            rate = float(np.log2(prev_signal / signal))
        else:
            rate = float("nan")
        rows.append((n, gap, rate))
        prev_signal = signal
    return rows
