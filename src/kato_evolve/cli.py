"""Command line surface: scenario runs, error tables, and the verify suite.

Every subcommand prints one JSON document to stdout (stable key order,
shortest-repr floats) and, with --out DIR, additionally writes that report
plus command-specific CSV files into DIR.  All randomness flows through
--seed, so identical invocations produce byte-identical output.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import (
    PRESET_NAMES,
    PROFILE_NAMES,
    ConfigError,
    ConvergenceError,
    GridAlignmentError,
    ValidationError,
    _state_distance,
    build_scenario,
    make_profile,
    state_norm,
)
from .evolution import apply_evolution, convergence_study, eta_constant
from .mild import (
    FORCING_NAMES,
    duhamel_residual,
    forced_bound_margin,
    forcing_preset,
    solve_forced,
)
from .oracle import compare, solve_direct
from .products import (
    apply_product_direct,
    apply_product_sequential,
    birth_chain_margin,
    lp_stability_margin,
    parse_plan,
    stability_margin,
)
from .quasilinear import (
    check_lipschitz,
    contraction_estimate,
    fixed_point_residual,
    norm_coupled_diffusion,
    solve_quasilinear,
)
from .renewal import birth_identity_residual, solve_birth
from .semigroup import apply_semigroup, semigroup_property_residual
from .verify import run_verification

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="kato-evolve",
        description="Age-structured population semigroups, evolution systems, "
        "and their verification suite.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p, tol_default=None, profile=True):
        """Scenario, seed and output flags; --tol only where the handler reads
        it, --profile only where the handler evolves the profile."""
        group = p.add_mutually_exclusive_group()
        group.add_argument("--preset", choices=PRESET_NAMES, help="named scenario")
        group.add_argument("--scenario", metavar="FILE", help="scenario JSON file")
        p.add_argument("--seed", type=int, default=0, help="seed for random inputs")
        if tol_default is not None:
            p.add_argument("--tol", type=float, default=tol_default, help="tolerance")
        p.add_argument("--out", metavar="DIR", help="directory for report and CSVs")
        if profile:
            p.add_argument(
                "--profile",
                choices=PROFILE_NAMES,
                default="tilted",
                help="initial age profile",
            )

    p = sub.add_parser("semigroup", help="apply the frozen-time semigroup")
    common(p)
    p.add_argument("--t", type=float, default=0.0, help="frozen time")
    p.add_argument("--s", type=float, required=True, help="elapsed span (age aligned)")

    p = sub.add_parser("birth", help="newborn flux trajectory")
    common(p)
    p.add_argument("--t", type=float, default=0.0, help="frozen time")
    p.add_argument("--s-max", type=float, default=None, help="trajectory horizon")

    p = sub.add_parser("product", help="time-ordered semigroup product")
    common(p)
    p.add_argument(
        "--plan",
        required=True,
        help="comma list of t:s factors, e.g. '0:0.1,0.5:0.25'",
    )

    p = sub.add_parser("evolve", help="evolution system via the doubling ladder")
    common(p, 1e-6)
    p.add_argument("--t", type=float, required=True, help="end time")
    p.add_argument("--s", type=float, default=0.0, help="start time")

    p = sub.add_parser("convergence-study", help="gap table of the doubling ladder")
    common(p)
    p.add_argument("--t", type=float, required=True, help="end time")
    p.add_argument("--s", type=float, default=0.0, help="start time")

    p = sub.add_parser("forced", help="mild solution with forcing")
    common(p, 1e-6)
    p.add_argument("--t-end", type=float, required=True, help="final time")
    p.add_argument("--forcing", choices=FORCING_NAMES, default="constant")
    p.add_argument("--amplitude", type=float, default=1.0)

    p = sub.add_parser("quasilinear", help="Picard solve of the coupled problem")
    common(p, 1e-3)
    p.add_argument("--epsilon", type=float, default=0.05, help="coupling strength")
    p.add_argument("--radius", type=float, default=1.0, help="trust ball radius")
    p.add_argument("--max-iter", type=int, default=25)

    p = sub.add_parser("oracle", help="direct characteristics stepper")
    common(p)
    p.add_argument("--t-end", type=float, required=True, help="final time")

    p = sub.add_parser("compare", help="oracle vs evolution error table")
    common(p, 1e-6)
    p.add_argument("--t-end", type=float, required=True, help="final time")
    p.add_argument("--refinements", type=int, default=3)

    p = sub.add_parser("verify", help="deterministic invariant battery")
    common(p, 1e-3, profile=False)  # the battery draws its own profiles from --seed

    return parser


def _load_scenario(args):
    if args.scenario is not None:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        return build_scenario(config)
    return build_scenario({"preset": args.preset or "SCAL0"})


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _json_clean(obj):
    """obj with numpy scalars as Python numbers and non-finite floats as None."""
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else None
    return obj


def _state_rows(state):
    return [
        (a, *state.values[i]) for i, a in enumerate(state.grid.nodes)
    ]


def _state_header(d):
    return ["age"] + [f"c{j}" for j in range(d)]


def _cmd_semigroup(args, scenario, phi):
    moved = apply_semigroup(scenario, args.t, args.s, phi)
    half = (scenario.age_grid.index_of(args.s, "elapsed span") // 2) * scenario.age_grid.step
    residual = semigroup_property_residual(scenario, args.t, half, args.s - half, phi)
    payload = {
        "t": args.t,
        "s": args.s,
        "norm_in": state_norm(scenario, phi),
        "norm_out": state_norm(scenario, moved),
        "law_residual": residual,
    }
    files = [("semigroup_state.csv", _state_header(scenario.dim), _state_rows(moved))]
    return payload, files


def _cmd_birth(args, scenario, phi):
    s_max = args.s_max if args.s_max is not None else scenario.age_grid.a_max
    traj = solve_birth(scenario, args.t, phi, s_max)
    offsets = [(k * traj.n_steps // 5) * traj.step for k in range(1, 6) if traj.n_steps >= 5]
    worst = max(
        (birth_identity_residual(scenario, args.t, phi, s) for s in offsets),
        default=0.0,
    )
    payload = {
        "t": args.t,
        "s_max": s_max,
        "steps": traj.n_steps,
        "max_component": float(np.max(np.abs(traj.values))),
        "identity_residual_max": worst,
    }
    rows = [(k * traj.step, *traj.values[k]) for k in range(traj.n_steps + 1)]
    header = ["s"] + [f"b{j}" for j in range(scenario.dim)]
    files = [("birth_trajectory.csv", header, rows)]
    return payload, files


def _cmd_product(args, scenario, phi):
    plan = parse_plan(args.plan)
    direct = apply_product_direct(scenario, plan, phi)
    seq = apply_product_sequential(scenario, plan, phi)
    gap = _state_distance(scenario, direct, seq)
    payload = {
        "plan": [[t, s] for t, s in zip(plan.times, plan.durations)],
        "direct_vs_sequential_gap": gap,
        "norm_out": state_norm(scenario, direct),
        "transport_bound_margin": stability_margin(scenario, plan, phi),
        "birth_chain_margin": birth_chain_margin(scenario, plan, phi),
        "lp_bound_margin": lp_stability_margin(scenario, plan, phi, 2.0),
    }
    files = [("product_state.csv", _state_header(scenario.dim), _state_rows(direct))]
    return payload, files


def _cmd_evolve(args, scenario, phi):
    result = apply_evolution(scenario, args.t, args.s, phi, tol=args.tol)
    payload = {
        "t": args.t,
        "s": args.s,
        "tol": args.tol,
        "n_used": result.n_used,
        "cauchy_gap": result.cauchy_gap,
        "eta": eta_constant(scenario),
        "gaps": [[n, g] for n, g in result.gaps],
        "norm_out": state_norm(scenario, result.value),
    }
    files = [
        ("evolve_state.csv", _state_header(scenario.dim), _state_rows(result.value))
    ]
    return payload, files


def _cmd_convergence_study(args, scenario, phi):
    rows = convergence_study(scenario, args.t, args.s, phi)
    payload = {
        "t": args.t,
        "s": args.s,
        "rows": [[n, gap, rate] for n, gap, rate in rows],
    }
    files = [("convergence_study.csv", ["n", "gap", "rate"], rows)]
    return payload, files


def _cmd_forced(args, scenario, phi):
    forcing = forcing_preset(scenario, args.forcing, seed=args.seed, amplitude=args.amplitude)
    trajectory = solve_forced(scenario, phi, forcing, args.t_end, tol=args.tol)
    margin = forced_bound_margin(scenario, trajectory, phi, forcing)
    half = 0.5 * trajectory.step
    try:
        scenario.age_grid.index_of(half, "half step")
        residual = duhamel_residual(scenario, trajectory, phi, forcing)
    except GridAlignmentError:
        residual = None
    payload = {
        "t_end": args.t_end,
        "forcing": args.forcing,
        "amplitude": args.amplitude,
        "n_used": trajectory.n_used,
        "final_norm": state_norm(scenario, trajectory.final),
        "bound_margin": margin,
        "duhamel_residual": residual,
    }
    norm_rows = [
        (t, state_norm(scenario, u)) for t, u in zip(trajectory.times, trajectory.states)
    ]
    files = [
        ("forced_trajectory.csv", ["t", "norm"], norm_rows),
        (
            "forced_state.csv",
            _state_header(scenario.dim),
            _state_rows(trajectory.final),
        ),
    ]
    return payload, files


def _cmd_quasilinear(args, scenario, phi):
    problem = norm_coupled_diffusion(scenario, args.epsilon, args.radius, center=phi)
    trajectory, t_phi, report = solve_quasilinear(
        scenario, problem, tol=args.tol, max_iter=args.max_iter
    )
    residual = fixed_point_residual(scenario, problem, trajectory, tol=args.tol)
    lip = check_lipschitz(problem, scenario, samples=6, seed=args.seed)
    payload = {
        "epsilon": args.epsilon,
        "radius": args.radius,
        "t_phi": t_phi,
        "fixed_point_residual": residual,
        "observed_lipschitz": lip.observed_l,
        "declared_lipschitz": lip.declared_l,
        "report": {**report.as_dict(), **contraction_estimate(scenario, problem, t_phi)},
    }
    center = problem.ball_center
    rows = [
        (
            t,
            state_norm(scenario, u),
            _state_distance(scenario, u, center),
        )
        for t, u in zip(trajectory.times, trajectory.states)
    ]
    files = [
        ("quasilinear_trajectory.csv", ["t", "norm", "drift"], rows),
        (
            "quasilinear_state.csv",
            _state_header(scenario.dim),
            _state_rows(trajectory.final),
        ),
    ]
    return payload, files


def _cmd_oracle(args, scenario, phi):
    trajectory = solve_direct(scenario, phi, args.t_end)
    payload = {
        "t_end": args.t_end,
        "steps": len(trajectory.times) - 1,
        "final_norm": state_norm(scenario, trajectory.final),
        "min_value": float(np.min(trajectory.final.values)),
    }
    rows = list(zip(trajectory.times, trajectory.norms))
    files = [
        ("oracle_trajectory.csv", ["t", "norm"], rows),
        (
            "oracle_state.csv",
            _state_header(scenario.dim),
            _state_rows(trajectory.final),
        ),
    ]
    return payload, files


def _cmd_compare(args, scenario, phi):
    rows = compare(scenario, phi, args.t_end, args.refinements, tol=args.tol)
    payload = {
        "t_end": args.t_end,
        "refinements": args.refinements,
        "rows": [[r.delta, r.discrepancy, r.order] for r in rows],
    }
    table = [(r.delta, r.discrepancy, r.order) for r in rows]
    files = [("compare_table.csv", ["delta", "discrepancy", "order"], table)]
    return payload, files


def _cmd_verify(args, scenario, phi):
    report = run_verification(scenario, seed=args.seed, tol=args.tol)
    return report.as_dict(), []


_HANDLERS = {
    "semigroup": _cmd_semigroup,
    "birth": _cmd_birth,
    "product": _cmd_product,
    "evolve": _cmd_evolve,
    "convergence-study": _cmd_convergence_study,
    "forced": _cmd_forced,
    "quasilinear": _cmd_quasilinear,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        scenario = _load_scenario(args)
        phi = make_profile(scenario, args.profile, seed=args.seed) if "profile" in args else None
        payload, files = _HANDLERS[args.command](args, scenario, phi)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(str(exc), file=sys.stderr)
        return 1
    except (
        ConfigError,
        ValidationError,
        GridAlignmentError,
        ConvergenceError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    payload = {"command": args.command, "scenario": scenario.label, **payload}
    document = json.dumps(_json_clean(payload), sort_keys=True, indent=2, allow_nan=False)
    print(document)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = args.command.replace("-", "_")
        with open(
            os.path.join(args.out, f"{stem}_report.json"), "w", encoding="utf-8"
        ) as fh:
            fh.write(document + "\n")
        for name, header, rows in files:
            path = os.path.join(args.out, name)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(x) for x in row) + "\n")
    if args.command == "verify" and payload["failures"] > 0:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
