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
from .propagator import default_constants
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


def _result(name, passed, margin, detail):
    return CheckResult(name, "pass" if passed else "fail", float(margin), detail)


def _skip(name, detail):
    return CheckResult(name, "skip", float("nan"), detail)


def _failed(name, exc):
    """A check that could not finish: failed, carrying the error's message."""
    return _result(name, False, float("-inf"), str(exc))


def _converged(name, leg):
    """The check from ``leg()``'s (passed, margin, detail), or a failed one.

    Every leg that runs the doubling ladder or the Picard solve goes through
    here, so a tolerance they cannot reach is reported, not raised.
    """
    try:
        passed, margin, detail = leg()
    except ConvergenceError as exc:
        return _failed(name, exc)
    return _result(name, passed, margin, detail)


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
    base = g.index_of(scenario.time_grid.horizon, "horizon")
    checks = []

    phi = make_profile(scenario, "smooth_random", seed=seed)
    phi_norm = state_norm(scenario, phi)
    balanced = enforce_birth_balance(scenario, phi)

    ok, residual = check_birth_balance(scenario, balanced)
    checks.append(
        _result(
            "birth_balance_enforcement",
            ok,
            scenario.tolerances.membership - residual,
            f"residual {residual:.3e} after enforcement",
        )
    )

    worst = 0.0
    for _ in range(4):
        t = float(rng.uniform(0.0, scenario.time_grid.horizon))
        s1 = int(rng.integers(0, base // 2 + 1)) * h
        s2 = int(rng.integers(0, base // 2 + 1)) * h
        worst = max(worst, semigroup_property_residual(scenario, t, s1, s2, phi))
    bound = scenario.tolerances.semigroup * phi_norm
    checks.append(
        _result(
            "semigroup_law",
            worst <= bound,
            bound - worst,
            f"max staged-vs-whole residual {worst:.3e} over 4 random pairs",
        )
    )

    worst = 0.0
    for k in range(1, 6):
        s = (k * base // 6) * h
        worst = max(worst, birth_identity_residual(scenario, 0.0, phi, s))
    checks.append(
        _result(
            "birth_identity",
            worst <= scenario.tolerances.volterra,
            scenario.tolerances.volterra - worst,
            f"max quadrature-vs-trajectory residual {worst:.3e} at 5 offsets",
        )
    )

    worst = 0.0
    for _ in range(5):
        plan = _random_plan(scenario, rng, int(rng.integers(1, 5)))
        direct = apply_product_direct(scenario, plan, phi)
        seq = apply_product_sequential(scenario, plan, phi)
        gap = state_norm(scenario, direct.with_values(direct.values - seq.values))
        worst = max(worst, gap)
    bound = scenario.tolerances.composition * phi_norm
    checks.append(
        _result(
            "product_equivalence",
            worst <= bound,
            bound - worst,
            f"max direct-vs-sequential gap {worst:.3e} over 5 random plans",
        )
    )

    constants = default_constants(scenario)
    m31 = np.inf
    m33 = np.inf
    m34 = np.inf
    for _ in range(8):
        plan = _random_plan(scenario, rng, int(rng.integers(1, 4)))
        m31 = min(m31, stability_margin(scenario, plan, phi, constants, 0, slack=SLACK))
        m33 = min(
            m33, birth_chain_margin(scenario, plan, phi, constants, 0, slack=SLACK)
        )
        m34 = min(
            m34,
            lp_stability_margin(scenario, plan, phi, 2.0, constants, 0, slack=SLACK),
        )
    checks.append(
        _result("transport_bound_margin", m31 >= 0, m31, "8 random plans, 5% slack")
    )
    checks.append(
        _result("birth_chain_margin", m33 >= 0, m33, "8 random plans, 5% slack")
    )
    checks.append(
        _result("lp_bound_margin", m34 >= 0, m34, "p = 2, 8 random plans, 5% slack")
    )

    t_hi = (3 * base // 4) * h
    t_mid = (base // 4) * h

    def ladder():
        moved = apply_evolution(scenario, t_hi, 0.0, phi, tol=tol)
        n_cap = allowed_partitions(scenario)[-1]
        return (
            True,
            float(n_cap - moved.n_used),
            f"accepted n = {moved.n_used}, gap {moved.cauchy_gap:.3e}",
        )

    checks.append(_converged("evolution_ladder", ladder))
    if checks[-1].status == "fail":
        checks.append(_skip("cocycle_residual", "evolution ladder failed"))
        checks.append(_skip("evolution_bound_margin", "evolution ladder failed"))
    else:
        # time-dependent fields need a desk-scale splice budget: partition
        # counts compatible with the age lattice top out before rough
        # profiles push the pair gaps much below a few parts per thousand
        cocycle_tol = tol if scenario.operator.time_independent else max(tol, 5e-3)

        def cocycle():
            res = evolution_cocycle_residual(
                scenario, 0.0, t_mid, t_hi, phi, tol=cocycle_tol
            )
            bound = 3 * cocycle_tol * phi_norm
            return (
                res <= bound,
                bound - res,
                f"splice at {t_mid:g} on [0, {t_hi:g}], residual {res:.3e} "
                f"at tol {cocycle_tol:g}",
            )

        def bound_margin():
            margin = evolution_bound_margin(
                scenario, t_hi, 0.0, phi, tol=tol, slack=SLACK
            )
            return margin >= 0, margin, "5% slack"

        checks.append(_converged("cocycle_residual", cocycle))
        checks.append(_converged("evolution_bound_margin", bound_margin))

    t_end = (base // 2) * h

    def forced():
        forcing = forcing_preset(scenario, "constant", amplitude=0.5)
        trajectory = solve_forced(scenario, phi, forcing, t_end, tol=tol)
        margin = forced_bound_margin(scenario, trajectory, phi, forcing, slack=SLACK)
        return margin >= 0, margin, f"constant forcing to t = {t_end:g}, 5% slack"

    if t_end <= 0:
        checks.append(_skip("forced_bound_margin", "horizon too short"))
    else:
        checks.append(_converged("forced_bound_margin", forced))

    t_oracle = min(g.a_max, scenario.time_grid.horizon)

    def oracle():
        direct = solve_direct(scenario, phi, t_oracle).final
        evolved = apply_evolution(scenario, t_oracle, 0.0, phi, tol=tol).value
        gap = state_norm(scenario, direct.with_values(direct.values - evolved.values))
        bound = 0.5 * phi_norm
        return (
            gap <= bound,
            bound - gap,
            f"first-order stepper vs evolution at t = {t_oracle:g}: gap {gap:.3e}",
        )

    checks.append(_converged("oracle_agreement", oracle))

    bump = make_profile(scenario, "age_bump")
    front = solve_direct(scenario, bump, t_oracle).final
    low = float(np.min(front.values))
    checks.append(
        _result(
            "oracle_positivity",
            low >= -1e-10,
            low + 1e-10,
            f"min node value {low:.3e} from nonnegative data",
        )
    )

    if scenario.time_grid.n_time > 32:
        checks.append(
            _skip("quasilinear_fixed_point", "time grid too large for the battery")
        )
        checks.append(
            _skip("lipschitz_spot_check", "time grid too large for the battery")
        )
    else:
        problem = norm_coupled_diffusion(scenario, 0.05, 1.0)

        def picard():
            trajectory, _, report = solve_quasilinear(scenario, problem, tol=tol)
            res = fixed_point_residual(scenario, problem, trajectory, tol=tol)
            return (
                res <= 2 * tol,
                2 * tol - res,
                f"residual {res:.3e} after {len(report.sup_gaps)} iterations",
            )

        checks.append(_converged("quasilinear_fixed_point", picard))
        lip = check_lipschitz(problem, scenario, samples=6, seed=seed)
        checks.append(
            _result(
                "lipschitz_spot_check",
                not lip.exceeded,
                lip.declared_l - lip.observed_l,
                f"observed {lip.observed_l:.3e} vs declared {lip.declared_l:.3e}",
            )
        )

    return VerificationReport(scenario.label, seed, tol, tuple(checks))
