"""Deterministic invariant battery behind the ``verify`` subcommand.

The battery runs a fixed list of checks against one scenario, drawing all
randomness from a single seeded generator so that identical invocations
produce byte-identical reports.  Each check yields a pass/fail/skip status
plus the margin by which the tested inequality held.  Skips are
deterministic too: a check that needs grid or size properties the scenario
lacks records why instead of running.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    _state_distance,
    check_birth_balance,
    make_profile,
    state_norm,
)
from .evolution import (
    allowed_partitions,
    apply_evolution,
    evolution_bound_margin,
    evolution_cocycle_residual,
)
from .mild import forced_bound_margin, forcing_preset, solve_forced
from .oracle import solve_direct
from .products import (
    ProductPlan,
    apply_product_direct,
    apply_product_sequential,
    birth_chain_margin,
    lp_stability_margin,
    stability_margin,
)
from .quasilinear import (
    check_lipschitz,
    fixed_point_residual,
    norm_coupled_diffusion,
    solve_quasilinear,
)
from .renewal import birth_identity_residual
from .semigroup import enforce_birth_balance, semigroup_property_residual

__all__ = [
    "CheckResult",
    "VerificationReport",
    "run_verification",
]

SLACK = 0.05


@dataclass(frozen=True)
class CheckResult:
    """One check's status and the margin by which its inequality held."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    margin: float
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """All checks of one battery run; ``as_dict`` is what ``verify`` prints."""

    label: str
    seed: int
    tol: float
    checks: tuple

    @property
    def failures(self):
        return sum(1 for c in self.checks if c.status == "fail")

    def as_dict(self):
        return {
            "scenario": self.label,
            "seed": self.seed,
            "tol": self.tol,
            "failures": self.failures,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "margin": None if np.isnan(c.margin) else float(c.margin),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _verdict(name, leg):
    """The check ``leg()`` reports: (passed, margin, detail), or a skip reason.

    Every check goes through here, so a tolerance the doubling ladder or the
    Picard solve cannot reach fails its check with the error's message
    instead of raising.
    """
    try:
        outcome = leg()
    except ConvergenceError as exc:
        return CheckResult(name, "fail", float("-inf"), str(exc))
    if isinstance(outcome, str):
        return CheckResult(name, "skip", float("nan"), outcome)
    passed, margin, detail = outcome
    return CheckResult(name, "pass" if passed else "fail", float(margin), detail)


def _random_plan(scenario, rng, n_factors):
    g = scenario.age_grid
    steps = g.n_age
    times = np.sort(rng.uniform(0.0, scenario.time_grid.horizon, size=n_factors))
    times = np.round(times / g.step) * g.step
    times = np.minimum(times, scenario.time_grid.horizon)
    durations = rng.integers(0, steps // 2 + 1, size=n_factors) * g.step
    return ProductPlan(tuple(float(t) for t in np.sort(times)), tuple(float(s) for s in durations))


def run_verification(scenario, seed=0, tol=1e-3):
    """Run the whole battery on one scenario and collect the report."""
    rng = np.random.default_rng(seed)
    g = scenario.age_grid
    h = g.step
    horizon = scenario.time_grid.horizon
    base = g.index_of(horizon, "horizon")
    # every random input, drawn up front in one fixed order
    spans = [
        (
            float(rng.uniform(0.0, horizon)),
            int(rng.integers(0, base // 2 + 1)) * h,
            int(rng.integers(0, base // 2 + 1)) * h,
        )
        for _ in range(4)
    ]
    product_plans = [_random_plan(scenario, rng, int(rng.integers(1, 5))) for _ in range(5)]
    bound_plans = [_random_plan(scenario, rng, int(rng.integers(1, 4))) for _ in range(8)]

    phi = make_profile(scenario, "smooth_random", seed=seed)
    phi_norm = state_norm(scenario, phi)
    t_hi = (3 * base // 4) * h
    t_mid = (base // 4) * h
    t_end = (scenario.time_grid.n_time // 2) * scenario.time_grid.step
    t_oracle = min(g.a_max, horizon)
    too_large = "time grid too large for the battery"
    problem = None
    if scenario.time_grid.n_time <= 32:
        problem = norm_coupled_diffusion(scenario, 0.05, 1.0)
    checks = {}

    def within(worst, bound, detail):
        return worst <= bound, bound - worst, detail

    def worst_margin(margin_of, *args, detail="8 random plans, 5% slack"):
        margins = [margin_of(scenario, plan, phi, *args, slack=SLACK) for plan in bound_plans]
        margin = np.min(margins)
        return margin >= 0, margin, detail

    def balance():
        ok, residual = check_birth_balance(scenario, enforce_birth_balance(scenario, phi))
        return (
            ok,
            scenario.tolerances.membership - residual,
            f"residual {residual:.3e} after enforcement",
        )

    def semigroup_law():
        worst = np.max([semigroup_property_residual(scenario, *span, phi) for span in spans])
        return within(
            worst,
            scenario.tolerances.semigroup * phi_norm,
            f"max staged-vs-whole residual {worst:.3e} over 4 random pairs",
        )

    def birth_identity():
        # longest first: the shorter offsets slice its kept trajectory
        offsets = [(k * base // 6) * h for k in range(5, 0, -1)]
        worst = np.max([birth_identity_residual(scenario, 0.0, phi, s) for s in offsets])
        return within(
            worst,
            scenario.tolerances.volterra,
            f"max quadrature-vs-trajectory residual {worst:.3e} at 5 offsets",
        )

    def product_equivalence():
        gaps = [
            _state_distance(
                scenario,
                apply_product_direct(scenario, plan, phi),
                apply_product_sequential(scenario, plan, phi),
            )
            for plan in product_plans
        ]
        worst = np.max(gaps)
        return within(
            worst,
            scenario.tolerances.composition * phi_norm,
            f"max direct-vs-sequential gap {worst:.3e} over 5 random plans",
        )

    def ladder():
        moved = apply_evolution(scenario, t_hi, 0.0, phi, tol=tol)
        n_cap = allowed_partitions(scenario)[-1]
        return (
            True,
            float(n_cap - moved.n_used),
            f"accepted n = {moved.n_used}, gap {moved.cauchy_gap:.3e}",
        )

    def cocycle():
        if checks["evolution_ladder"].status == "fail":
            return "evolution ladder failed"
        # time-dependent fields need a desk-scale splice budget: partition
        # counts compatible with the age lattice top out before rough
        # profiles push the pair gaps much below a few parts per thousand
        cocycle_tol = tol if scenario.operator.time_independent else max(tol, 5e-3)
        res = evolution_cocycle_residual(scenario, 0.0, t_mid, t_hi, phi, tol=cocycle_tol)
        return within(
            res,
            3 * cocycle_tol * phi_norm,
            f"splice at {t_mid:g} on [0, {t_hi:g}], residual {res:.3e} "
            f"at tol {cocycle_tol:g}",
        )

    def bound_margin():
        if checks["evolution_ladder"].status == "fail":
            return "evolution ladder failed"
        margin = evolution_bound_margin(scenario, t_hi, 0.0, phi, tol=tol, slack=SLACK)
        return margin >= 0, margin, "5% slack"

    def forced():
        if t_end <= 0:
            return "horizon too short"
        forcing = forcing_preset(scenario, "constant", amplitude=0.5)
        trajectory = solve_forced(scenario, phi, forcing, t_end, tol=tol)
        margin = forced_bound_margin(scenario, trajectory, phi, forcing, slack=SLACK)
        return margin >= 0, margin, f"constant forcing to t = {t_end:g}, 5% slack"

    def oracle():
        direct = solve_direct(scenario, phi, t_oracle).final
        evolved = apply_evolution(scenario, t_oracle, 0.0, phi, tol=tol).value
        gap = _state_distance(scenario, direct, evolved)
        return within(
            gap,
            0.5 * phi_norm,
            f"first-order stepper vs evolution at t = {t_oracle:g}: gap {gap:.3e}",
        )

    def positivity():
        bump = make_profile(scenario, "age_bump")
        low = float(np.min(solve_direct(scenario, bump, t_oracle).final.values))
        return low >= -1e-10, low + 1e-10, f"min node value {low:.3e} from nonnegative data"

    def picard():
        if problem is None:
            return too_large
        trajectory, _, report = solve_quasilinear(scenario, problem, tol=tol)
        res = fixed_point_residual(scenario, problem, trajectory, tol=tol)
        return within(
            res, 2 * tol, f"residual {res:.3e} after {len(report.sup_gaps)} iterations"
        )

    def lipschitz():
        if problem is None:
            return too_large
        lip = check_lipschitz(problem, scenario, samples=6, seed=seed)
        return (
            not lip.exceeded,
            lip.declared_l - lip.observed_l,
            f"observed {lip.observed_l:.3e} vs declared {lip.declared_l:.3e}",
        )

    legs = {
        "birth_balance_enforcement": balance,
        "semigroup_law": semigroup_law,
        "birth_identity": birth_identity,
        "product_equivalence": product_equivalence,
        "transport_bound_margin": lambda: worst_margin(stability_margin),
        "birth_chain_margin": lambda: worst_margin(birth_chain_margin),
        "lp_bound_margin": lambda: worst_margin(
            lp_stability_margin, 2.0, detail="p = 2, 8 random plans, 5% slack"
        ),
        "evolution_ladder": ladder,
        "cocycle_residual": cocycle,
        "evolution_bound_margin": bound_margin,
        "forced_bound_margin": forced,
        "oracle_agreement": oracle,
        "oracle_positivity": positivity,
        "quasilinear_fixed_point": picard,
        "lipschitz_spot_check": lipschitz,
    }
    for name, leg in legs.items():
        checks[name] = _verdict(name, leg)
    return VerificationReport(scenario.label, seed, tol, tuple(checks.values()))
