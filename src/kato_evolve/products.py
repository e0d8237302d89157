"""Finite products of frozen-time semigroups and their growth bounds.

A product plan is a nondecreasing list of frozen times with one grid-aligned
duration each.  The product can be evaluated two ways: marching the factors
in one pass, or through the closed-form casework that reads off, per
age node, which factor's birth trajectory seeds the value and which
propagator chains carry it up the age axis.  Agreement of the two paths is
the module's central check.

The bound helpers compute margins of the exponential stability estimates for
such products: prefactor times exp(rate times total duration), in the base
norm, the graph norm, and the L_p-in-age norm.  A nonnegative margin means
the bound holds; slack inflates the bound to absorb discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ValidationError,
    graph_pair_norm,
    graph_state_norm,
    lp_age_norm,
    spatial_norm,
    state_norm,
)
from .propagator import growth_bound, propagate_indices
from .renewal import _march_plan, solve_birth
from .semigroup import apply_semigroup

__all__ = [
    "ProductPlan",
    "parse_plan",
    "apply_product_sequential",
    "apply_product_direct",
    "stability_margin",
    "birth_chain_margin",
    "lp_stability_margin",
]


@dataclass(frozen=True)
class ProductPlan:
    """Frozen times (nondecreasing) and durations (nonnegative) of a product.

    Entry j is applied j-th: the factor at times[0] acts first.  Durations
    must sit on the age-step lattice of the scenario they are used with;
    that alignment is checked at application time.
    """

    times: tuple
    durations: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        durations = tuple(float(s) for s in self.durations)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "durations", durations)
        if len(times) != len(durations) or not times:
            raise ValidationError("plan needs equal, nonempty times and durations")
        if not all(np.isfinite(times)) or not all(np.isfinite(durations)):
            raise ValidationError("plan entries must be finite")
        if any(s < 0 for s in durations):
            raise ValidationError("plan durations must be nonnegative")
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValidationError("plan times must be nondecreasing")

    @property
    def n_factors(self):
        return len(self.times)

    @property
    def total_duration(self):
        return float(sum(self.durations))


def parse_plan(text):
    """Parse 't1:s1,t2:s2,...' into a ProductPlan."""
    times, durations = [], []
    for part in text.split(","):
        piece = part.strip()
        if not piece:
            continue
        try:
            t_str, s_str = piece.split(":")
            times.append(float(t_str))
            durations.append(float(s_str))
        except ValueError as exc:
            raise ValidationError(
                f"plan entry {piece!r} is not of the form time:duration"
            ) from exc
    if not times:
        raise ValidationError("empty plan")
    return ProductPlan(tuple(times), tuple(durations))


def _plan_steps(scenario, plan):
    """Integer duration steps, with range and alignment checks."""
    horizon = scenario.time_grid.horizon
    for t in plan.times:
        if t < 0 or t > horizon * (1 + 1e-12):
            raise ValidationError(
                f"plan time {t!r} outside the scenario horizon [0, {horizon!r}]"
            )
    g = scenario.age_grid
    return [g.index_of(s, "plan duration") for s in plan.durations]


def apply_product_sequential(scenario, plan, phi):
    """March the factors in order (first entry acts first) in one pass."""
    steps = _plan_steps(scenario, plan)
    values = _march_plan(scenario, zip(plan.times, steps), phi.values)
    values.flags.writeable = False
    return phi.with_values(values)


def apply_product_direct(scenario, plan, phi):
    """Evaluate the product through its closed-form nodewise casework.

    With suffix sums S_k of the duration steps, an age node i above S_1
    carries the initial profile transported through every factor's age
    window.  Otherwise the node belongs to the newborn region of the factor
    k picked as the largest index with i <= S_k (so boundary ties go to the
    later factor, and zero-duration factors never claim a node); its value
    seeds from the birth trajectory of the preceding partial product at
    elapsed span S_k - i, then rides the remaining factors' windows, each
    truncated at age zero.
    """
    steps = _plan_steps(scenario, plan)
    n = plan.n_factors
    g = scenario.age_grid
    h = g.step
    suffix = [0] * (n + 2)
    for j in range(n, 0, -1):
        suffix[j] = suffix[j + 1] + steps[j - 1]
    if suffix[1] == 0:
        return phi

    prefixes = [phi]
    for j in range(n - 1):
        prefixes.append(
            apply_semigroup(scenario, plan.times[j], plan.durations[j], prefixes[-1])
        )
    trajectories = {}

    out = np.empty_like(phi.values)
    for i in range(g.n_age + 1):
        if i > suffix[1]:
            v = np.array(phi.values[i - suffix[1]], dtype=float)
            for j in range(1, n + 1):
                v = propagate_indices(
                    scenario, plan.times[j - 1], i - suffix[j], i - suffix[j + 1], v
                )
        else:
            k = max(j for j in range(1, n + 1) if i <= suffix[j])
            if k not in trajectories:
                trajectories[k] = solve_birth(
                    scenario, plan.times[k - 1], prefixes[k - 1], h * suffix[k]
                )
            v = np.array(trajectories[k].values[suffix[k] - i], dtype=float)
            for j in range(k, n + 1):
                v = propagate_indices(
                    scenario,
                    plan.times[j - 1],
                    max(i - suffix[j], 0),
                    i - suffix[j + 1],
                    v,
                )
        out[i] = v
    out.flags.writeable = False
    return phi.with_values(out)


def _ell_state_norm(scenario, phi, ell):
    return state_norm(scenario, phi) if ell == 0 else graph_state_norm(scenario, phi)


def stability_margin(scenario, plan, phi, constants, ell, slack=0.0):
    """Bound margin for the product norm.

    Returns prefactor * exp(rate * total duration) * (1 + slack) * norm(phi)
    minus the norm of the evaluated product; nonnegative means the stability
    bound holds on this plan.  A negative value reports a violation, it does
    not raise.
    """
    m, rate = growth_bound(scenario, ell, constants)
    product = apply_product_sequential(scenario, plan, phi)
    bound = (
        m
        * np.exp(rate * plan.total_duration)
        * (1.0 + slack)
        * _ell_state_norm(scenario, phi, ell)
    )
    return float(bound - _ell_state_norm(scenario, product, ell))


def birth_chain_margin(scenario, plan, phi, constants, ell, slack=0.0):
    """Bound margin for the newborn flux of a partial product.

    The last plan entry names the frozen time of the trajectory; the earlier
    entries form the partial product whose flux is bounded.  The bound grows
    with the trajectory span s plus the partial product's total duration;
    the minimum margin over s = 0, a_max / 2 and a_max is returned.
    """
    m, rate = growth_bound(scenario, ell, constants)
    bnorm = scenario.birth_norm(ell)
    g = scenario.age_grid
    s_values = (0.0, g.a_max / 2, g.a_max)
    prefix_plan_total = float(sum(plan.durations[:-1]))
    state = phi
    if plan.n_factors > 1:
        state = apply_product_sequential(
            scenario,
            ProductPlan(plan.times[:-1], plan.durations[:-1]),
            phi,
        )
    traj = solve_birth(scenario, plan.times[-1], state, g.a_max)
    phi_norm = _ell_state_norm(scenario, phi, ell)
    ref = scenario.reference_operator
    margin = np.inf
    for s in s_values:
        idx = g.index_of(s, "trajectory span")
        value = traj.values[idx]
        vnorm = (
            spatial_norm(value, scenario.norm)
            if ell == 0
            else graph_pair_norm(value, ref, scenario.norm)
        )
        bound = (
            bnorm
            * m
            * np.exp(rate * (s + prefix_plan_total))
            * (1.0 + slack)
            * phi_norm
        )
        margin = min(margin, bound - vnorm)
    return float(margin)


def lp_stability_margin(scenario, plan, phi, p, constants, ell, slack=0.0):
    """Bound margin for the product in the L_p-in-age norm.

    The constants follow from the base bound: prefactor
    N = ((1/p) |b|^(p-1) m^(2p-1) + m^p)^(1/p) and the rate of
    :func:`growth_bound`.  The right side takes the larger of the initial
    profile's L_p and L_1 norms.
    """
    if not p > 1:
        raise ValidationError("p must exceed 1")
    m, rate = growth_bound(scenario, ell, constants)
    bnorm = scenario.birth_norm(ell)
    product = apply_product_sequential(scenario, plan, phi)
    prefactor = ((bnorm ** (p - 1)) * m ** (2 * p - 1) / p + m**p) ** (1.0 / p)
    bound = (
        prefactor
        * np.exp(rate * plan.total_duration)
        * (1.0 + slack)
        * max(lp_age_norm(scenario, phi, p, ell), _ell_state_norm(scenario, phi, ell))
    )
    return float(bound - lp_age_norm(scenario, product, p, ell))
