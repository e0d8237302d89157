"""Acceptance battery: one test per advertised guarantee, one verdict line each.

Every test prints a single PASS/FAIL line (visible with pytest -s or on
failure) and then asserts, so the suite both documents and enforces the
package's end-to-end claims at their stated tolerances.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import kato_evolve as ke
from kato_evolve.quasilinear import _trajectory_field


def verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {name}{tail}"


def aligned_plan(sc, rng, n_factors):
    g = sc.age_grid
    times = np.sort(rng.uniform(0.0, sc.time_grid.horizon, size=n_factors))
    times = np.minimum(np.round(times / g.step) * g.step, sc.time_grid.horizon)
    durations = rng.integers(0, g.n_age // 2 + 1, size=n_factors) * g.step
    return ke.ProductPlan(
        tuple(float(t) for t in times), tuple(float(s) for s in durations)
    )


def lotka_root():
    def f(r):
        return 2.0 * (1.0 - math.exp(-r)) / r - 1.0

    lo, hi = 0.5, 3.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_01_semigroup_law(scal0, diff1):
    start = time.perf_counter()
    worst = 0.0
    for sc in (scal0, diff1):
        rng = np.random.default_rng(101)
        base = sc.age_grid.index_of(sc.time_grid.horizon, "horizon")
        h = sc.age_grid.step
        for _ in range(20):
            phi = ke.make_profile(sc, "smooth_random", seed=int(rng.integers(2**31)))
            t = float(rng.uniform(0.0, sc.time_grid.horizon))
            s1 = int(rng.integers(0, base // 2 + 1)) * h
            s2 = int(rng.integers(0, base // 2 + 1)) * h
            res = ke.semigroup_property_residual(sc, t, s1, s2, phi)
            worst = max(worst, res / ke.state_norm(sc, phi))
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "semigroup law",
        worst <= 1e-6 and elapsed < 30.0,
        f"worst relative residual {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_birth_identity(scal0, diff1, mort1, qdiff):
    worst = 0.0
    for sc in (scal0, diff1, mort1, qdiff):
        phi = ke.make_profile(sc, "smooth_random", seed=1)
        base = sc.age_grid.index_of(sc.time_grid.horizon, "horizon")
        h = sc.age_grid.step
        for k in range(1, 11):
            s = k * max(base // 12, 1) * h
            worst = max(worst, ke.birth_identity_residual(sc, 0.0, phi, s))
    verdict(2, "birth identity", worst <= 1e-8, f"worst residual {worst:.3e}")


def test_criterion_03_growth_rate(scal0):
    r_star = lotka_root()
    ages = scal0.age_grid.nodes
    base = ke.make_profile(scal0, "ones")
    phi = base.with_values(np.exp(-r_star * ages)[:, None])

    u8 = ke.apply_semigroup(scal0, 0.0, 8.0, phi)
    u10 = ke.apply_semigroup(scal0, 0.0, 10.0, phi)
    slope_semi = (
        math.log(ke.state_norm(scal0, u10)) - math.log(ke.state_norm(scal0, u8))
    ) / 2.0

    traj = ke.solve_direct(scal0, phi, 10.0)
    k8 = scal0.age_grid.index_of(8.0, "time")
    k10 = scal0.age_grid.index_of(10.0, "time")
    slope_oracle = (
        math.log(ke.state_norm(scal0, traj.states[k10]))
        - math.log(ke.state_norm(scal0, traj.states[k8]))
    ) / 2.0

    err_semi = abs(slope_semi - r_star) / r_star
    err_oracle = abs(slope_oracle - r_star) / r_star
    verdict(
        3,
        "growth rate",
        err_semi <= 0.01 and err_oracle <= 0.01,
        f"r* {r_star:.6f}, semigroup off {err_semi:.2%}, oracle off {err_oracle:.2%}",
    )


def test_criterion_04_product_equivalence(scal0, diff1):
    worst = 0.0
    for sc in (scal0, diff1):
        rng = np.random.default_rng(404)
        for _ in range(20):
            phi = ke.make_profile(sc, "smooth_random", seed=int(rng.integers(2**31)))
            plan = aligned_plan(sc, rng, int(rng.integers(1, 6)))
            direct = ke.apply_product_direct(sc, plan, phi)
            seq = ke.apply_product_sequential(sc, plan, phi)
            gap = ke.state_norm(sc, direct.with_values(direct.values - seq.values))
            worst = max(worst, gap / ke.state_norm(sc, phi))
    verdict(4, "product equivalence", worst <= 1e-8, f"worst relative gap {worst:.3e}")


def test_criterion_05_stability_margins(scal0, diff1, mort1, qdiff):
    low = math.inf
    for sc in (scal0, diff1, mort1, qdiff):
        phi = ke.make_profile(sc, "smooth_random", seed=5)
        rng = np.random.default_rng(505)
        for _ in range(50):
            plan = aligned_plan(sc, rng, int(rng.integers(1, 4)))
            low = min(low, ke.stability_margin(sc, plan, phi, slack=0.05))
            low = min(low, ke.birth_chain_margin(sc, plan, phi, slack=0.05))
            low = min(low, ke.lp_stability_margin(sc, plan, phi, 2.0, slack=0.05))
    verdict(5, "stability margins", low >= 0.0, f"lowest margin {low:.3e}")


def test_criterion_06_ladder_convergence(diff1):
    phi = ke.make_profile(diff1, "tilted")
    rows = ke.convergence_study(diff1, 0.875, 0.0, phi)
    gaps = {n: gap for n, gap, _ in rows}
    ratios = [gaps[n] / gaps[2 * n] for n in (4, 8, 16)]
    ratios_ok = all(1.6 <= r <= 2.4 for r in ratios)
    result = ke.apply_evolution(diff1, 0.875, 0.0, phi, tol=1e-5)
    verdict(
        6,
        "ladder convergence",
        ratios_ok and result.n_used <= 64,
        f"gap ratios {[f'{r:.2f}' for r in ratios]}, accepted n = {result.n_used}",
    )


def test_criterion_07_evolution_axioms(scal0, diff1):
    worst_ratio = 0.0
    low_margin = math.inf

    phi = ke.make_profile(diff1, "tilted")
    phi_norm = ke.state_norm(diff1, phi)
    h = diff1.age_grid.step
    rng = np.random.default_rng(2024)
    tol = 3e-5
    for _ in range(20):
        cells = np.sort(rng.integers(0, 17, size=3)) * 4
        s, r, t = (float(c) * h for c in cells)
        res = ke.evolution_cocycle_residual(diff1, s, r, t, phi, tol=tol)
        worst_ratio = max(worst_ratio, res / (3 * tol * phi_norm))
        if t > s:
            low_margin = min(
                low_margin,
                ke.evolution_bound_margin(diff1, t, s, phi, tol=tol, slack=0.05),
            )

    phi0 = ke.make_profile(scal0, "smooth_random", seed=7)
    phi0_norm = ke.state_norm(scal0, phi0)
    h0 = scal0.age_grid.step
    base0 = scal0.age_grid.index_of(scal0.time_grid.horizon, "horizon")
    for _ in range(20):
        cells = np.sort(rng.integers(0, base0 + 1, size=3))
        s, r, t = (float(c) * h0 for c in cells)
        res = ke.evolution_cocycle_residual(scal0, s, r, t, phi0, tol=1e-6)
        worst_ratio = max(worst_ratio, res / (3 * 1e-6 * phi0_norm))
        if t > s:
            low_margin = min(
                low_margin,
                ke.evolution_bound_margin(scal0, t, s, phi0, tol=1e-6, slack=0.05),
            )

    verdict(
        7,
        "evolution axioms",
        worst_ratio <= 1.0 and low_margin >= 0.0,
        f"worst cocycle fraction {worst_ratio:.2f}, lowest bound margin {low_margin:.3e}",
    )


def test_criterion_08_derivative_residuals():
    sc = ke.build_scenario({"preset": "MORT1", "n_age": 80, "n_time": 160})
    psi = ke.enforce_birth_balance(sc, ke.make_profile(sc, "age_bump"))
    h_floor = sc.age_grid.step
    steps = (0.1, 0.05, 0.025)

    right = [ke.right_derivative_residual(sc, 0.0, psi, h) for h in steps]
    right_floor = ke.right_derivative_residual(sc, 0.0, psi, h_floor)
    right_ok = (
        right[0] > right[1] > right[2]
        and 2 * right[2] - right[1] <= 2 * right_floor
    )

    sres = [ke.s_derivative_residual(sc, 1.0, 0.0, psi, h) for h in steps]
    s_floor = ke.s_derivative_residual(sc, 1.0, 0.0, psi, h_floor)
    s_ok = sres[0] > sres[1] > sres[2] and 2 * sres[2] - sres[1] <= 2 * s_floor

    verdict(
        8,
        "derivative residuals",
        right_ok and s_ok,
        f"forward {right[0]:.3f}>{right[1]:.3f}>{right[2]:.3f} floor {right_floor:.3f}, "
        f"start {sres[0]:.3f}>{sres[1]:.3f}>{sres[2]:.3f} floor {s_floor:.3f}",
    )


def test_criterion_09_oracle_equivalence(scal0, diff1):
    rows0 = ke.compare(scal0, ke.make_profile(scal0, "age_bump"), 1.0, refinements=4)
    rows1 = ke.compare(
        diff1,
        ke.make_profile(diff1, "smooth_random", seed=0),
        0.75,
        refinements=4,
        tol=5e-3,
    )
    orders = [row.order for row in rows0[1:]] + [row.order for row in rows1[1:]]
    verdict(
        9,
        "oracle equivalence",
        all(o >= 0.8 for o in orders),
        "orders " + ", ".join(f"{o:.2f}" for o in orders),
    )


def test_criterion_10_quasilinear(qdiff):
    tol = 1e-3
    ages = qdiff.age_grid.nodes
    x = np.linspace(0.0, 1.0, qdiff.dim)
    mode = np.outer(
        1.0 + 0.5 * np.sin(np.pi * ages / qdiff.age_grid.a_max), np.cos(np.pi * x)
    )
    base = ke.make_profile(qdiff, "ones")
    center = base.with_values(base.values + 0.3 * mode)
    problem = ke.norm_coupled_diffusion(qdiff, 0.05, 1.0, center=center)

    traj, t_phi, report = ke.solve_quasilinear(qdiff, problem, tol=tol)
    gaps = report.sup_gaps
    cap = 1.2 * ke.contraction_estimate(qdiff, problem, t_phi)["predicted_contraction"]
    geometric = all(b / a <= cap for a, b in zip(gaps, gaps[1:]) if a > 0)
    residual = ke.fixed_point_residual(qdiff, problem, traj, tol=tol)
    inside = all(
        ke.state_norm(qdiff, s.with_values(s.values - center.values))
        <= problem.ball_radius
        for s in traj.states
    )

    other, _, _ = ke.solve_quasilinear(qdiff, problem, tol=tol, initial="linear")
    start_gap = ke.state_norm(
        qdiff, traj.final.with_values(traj.final.values - other.final.values)
    )

    f1 = _trajectory_field(qdiff, problem, traj.times, traj.states)
    f0 = _trajectory_field(
        qdiff, problem, traj.times, tuple([center] * len(traj.times))
    )
    lhs, rhs = ke.continuous_dependence_gap(qdiff, f1, f0, center, 0.0, t_phi, tol=tol)

    verdict(
        10,
        "quasilinear solver",
        geometric
        and residual <= 2 * tol
        and inside
        and start_gap <= 4 * tol
        and lhs <= 1.05 * rhs,
        f"gaps {[f'{g:.1e}' for g in gaps]}, residual {residual:.1e}, "
        f"start gap {start_gap:.1e}, dependence {lhs:.2e} vs {rhs:.2e}",
    )


def test_criterion_11_determinism():
    cmd = [
        sys.executable,
        "-m",
        "kato_evolve.cli",
        "verify",
        "--preset",
        "DIFF1",
        "--seed",
        "7",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    verdict(
        11,
        "determinism",
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout,
        f"exit {first.returncode}, {len(first.stdout)} bytes each",
    )
