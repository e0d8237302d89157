"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Every operation runs on a fresh copy of the scenario built in set-up (empty
caches), so operations within a workload do identical work.  The seed only
changes values the work does not depend on: the initial profile of a
scalar march, the scale and mirror image of a linear diffusion profile, or
the shape of a fixed-size tilt that leaves the Picard iteration count alone.
"""

import dataclasses
import math

import numpy as np

from kato_evolve import (
    QuasilinearTrajectory,
    StateVector,
    apply_evolution,
    apply_semigroup,
    build_scenario,
    fixed_point_residual,
    norm_coupled_diffusion,
    refine_scenario,
    solve_birth,
    solve_direct,
    solve_quasilinear,
    state_norm,
)

import reference


def fresh(scenario):
    """The same scenario with empty caches, as a new caller would build it."""
    return dataclasses.replace(scenario, caches={})


def _check(name, value, limit, ok=None):
    """One correctness check: its measured value, its limit, and the verdict."""
    return {"name": name, "value": float(value), "limit": float(limit),
            "ok": bool(value <= limit) if ok is None else bool(ok)}


class Workload:
    """Scenario preset, seeded profile, one operation, and its checks.

    ``beta`` is the preset's constant birth rate, restated here so the
    reference computations do not read it back from the library.
    ``epsilon``, ``radius`` and ``picard_tol`` are the quasilinear
    subcommand's defaults; every workload's per-layer Picard step uses them.
    ``layer_tol`` is the ladder tolerance of the per-layer timings and
    ``picard_cells`` the time cells of their Picard step.  ``mem_passes``
    is the number of tracemalloc passes whose median peak is reported: a
    small peak moves by a few KB from pass to pass with numpy's allocation
    cache, so cheap operations take three passes.
    """

    name = ""
    preset = ""
    beta = 0.0
    epsilon = 0.05
    radius = 1.0
    picard_tol = 1e-3
    layer_tol = 1e-6
    picard_cells = 8
    mem_passes = 3

    def __init__(self, seed):
        self.seed = seed
        self.scenario = build_scenario({"preset": self.preset})
        self.profile = self.make_profile(self.scenario)

    @property
    def march_t(self):
        """Horizon of the per-layer march: the scenario's time horizon."""
        return self.scenario.time_grid.horizon

    @property
    def evolve_t(self):
        """Horizon of the per-layer ladder and oracle: at most one maximal age."""
        return min(self.march_t, self.scenario.age_grid.a_max)

    def problem(self, scenario):
        """The norm-coupled diffusion problem centred on the profile."""
        return norm_coupled_diffusion(scenario, self.epsilon, self.radius, center=self.profile)

    def make_profile(self, scenario):
        raise NotImplementedError

    def run(self, scenario):
        """One operation on ``scenario``; returns the outputs to check."""
        raise NotImplementedError

    def checks(self, out):
        raise NotImplementedError

    def scenarios_of(self, out):
        """The scenarios an operation ran on, for reading their caches."""
        return [out["scenario"]]

    def oracle_steps(self, out):
        return 0

    def picard_report(self, out):
        return None


class RenewalScalar(Workload):
    """SCAL0: a cold newborn flux to s = 10, then the semigroup at six spans."""

    name = "renewal-scalar"
    preset = "SCAL0"
    beta = 2.0
    horizon = 10.0
    spans = (0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

    def make_profile(self, scenario):
        rng = np.random.default_rng(self.seed)
        g = scenario.age_grid
        ages = g.nodes / g.a_max
        values = np.ones(g.n_age + 1)
        for k in (1, 2, 3):
            values += rng.uniform(-0.3, 0.3) / k * np.cos(np.pi * k * ages)
        return StateVector(g, values)

    def run(self, scenario):
        traj = solve_birth(scenario, 0.0, self.profile, self.horizon)
        states = {s: apply_semigroup(scenario, 0.0, s, self.profile) for s in self.spans}
        return {"scenario": scenario, "births": traj.values[:, 0], "states": states}

    def checks(self, out):
        scen = out["scenario"]
        g = scen.age_grid
        beta = self.beta
        births = out["births"]
        one = g.index_of(1.0)
        rate = math.log(births[-1] / births[-1 - one])
        root = reference.renewal_root(beta, g.a_max)
        result = [_check("growth_rate_rel", abs(rate - root) / root, 1e-3)]
        worst = max(
            abs(births[g.index_of(s)] - beta * reference.trapezoid(g.step, u.values[:, 0]))
            / abs(births[g.index_of(s)])
            for s, u in out["states"].items()
        )
        result.append(_check("birth_integral_rel", worst, 1e-8))
        worst = 0.0
        for s in (0.5, 1.0):
            half = apply_semigroup(scen, 0.0, s / 2, self.profile)
            staged = apply_semigroup(scen, 0.0, s / 2, half)
            worst = max(worst, reference.relative_gap(staged.values, out["states"][s].values))
        result.append(_check("semigroup_law_rel", worst, 1e-6))
        return result


def _totals_gap(scenario, initial, states_by_step, beta):
    """Worst relative gap between spatial totals and the scalar march."""
    h = scenario.age_grid.step
    totals = initial.values.sum(axis=1)
    return max(
        reference.relative_gap(u.values.sum(axis=1),
                               reference.scalar_renewal(beta, h, totals, k))
        for k, u in states_by_step
    )


class DiffusionCompare(Workload):
    """DIFF1: oracle against the evolution system at the base and 2x grids."""

    name = "diffusion-compare"
    preset = "DIFF1"
    beta = 0.5
    t_end = 1.0
    tol = 1e-6
    mem_passes = 1  # a traced pass takes over 10 s; its 190 MB peak repeats to 0.01%

    def make_profile(self, scenario):
        # The problem is linear and mirror symmetric in space, so scaling or
        # mirroring the profile leaves every ladder decision unchanged.
        rng = np.random.default_rng(self.seed)
        self.scale = 0.5 * 4.0 ** rng.uniform()
        self.mirror = bool(rng.integers(2))
        return self.profile_on(scenario)

    def profile_on(self, scenario):
        """The CLI's 'tilted' profile, scaled and possibly mirrored."""
        g = scenario.age_grid
        x = np.linspace(0.0, 1.0, scenario.dim)
        if self.mirror:
            x = x[::-1]
        tilt = np.outer(np.sin(np.pi * g.nodes / g.a_max), np.cos(np.pi * x))
        return StateVector(g, self.scale * (1.0 + 0.005 * tilt))

    def run(self, scenario):
        levels = []
        for r in range(2):
            scen = scenario if r == 0 else refine_scenario(scenario, 2**r)
            phi = self.profile if r == 0 else self.profile_on(scen)
            direct = solve_direct(scen, phi, self.t_end)
            evolved = apply_evolution(scen, self.t_end, 0.0, phi, tol=self.tol * 0.5**r)
            gap = state_norm(scen, direct.final.with_values(
                direct.final.values - evolved.value.values))
            levels.append({"scenario": scen, "profile": phi, "direct": direct,
                           "evolved": evolved, "gap": gap})
        order = math.log2(levels[0]["gap"] / levels[1]["gap"])
        return {"scenario": scenario, "levels": levels, "order": order}

    def checks(self, out):
        worst = max(
            _totals_gap(lv["scenario"], lv["profile"],
                        [(lv["scenario"].age_grid.index_of(self.t_end), lv["evolved"].value)],
                        self.beta)
            for lv in out["levels"]
        )
        order = out["order"]
        return [
            _check("spatial_totals_rel", worst, 1e-10),
            _check("observed_order", order, 1.2, ok=0.8 <= order <= 1.2),
        ]

    def scenarios_of(self, out):
        return [lv["scenario"] for lv in out["levels"]]

    def oracle_steps(self, out):
        return sum(len(lv["direct"].times) - 1 for lv in out["levels"])


class PicardQuasilinear(Workload):
    """QDIFF: the CLI's quasilinear defaults, then the fixed-point residual."""

    name = "picard-quasilinear"
    preset = "QDIFF"
    beta = 0.2
    layer_tol = Workload.picard_tol

    def make_profile(self, scenario):
        # A tilt of fixed peak size 0.005, as in the CLI's 'tilted' profile,
        # with a seeded shape; the size sets the Picard iteration count.
        rng = np.random.default_rng(self.seed)
        g = scenario.age_grid
        ages = g.nodes / g.a_max
        x = np.linspace(0.0, 1.0, scenario.dim)
        tilt = sum(
            rng.uniform(-1.0, 1.0) * np.outer(np.cos(np.pi * ka * ages), np.cos(np.pi * kx * x))
            for ka in range(3) for kx in (1, 2)
        )
        return StateVector(g, 1.0 + 0.005 * tilt / np.max(np.abs(tilt)))

    def run(self, scenario):
        problem = self.problem(scenario)
        traj, t_phi, report = solve_quasilinear(scenario, problem, tol=self.picard_tol)
        residual = fixed_point_residual(scenario, problem, traj, tol=self.picard_tol)
        return {"scenario": scenario, "trajectory": traj, "report": report,
                "residual": residual}

    def checks(self, out):
        scen = out["scenario"]
        g = scen.age_grid
        traj = out["trajectory"]
        steps = [(g.index_of(t, "time"), u) for t, u in zip(traj.times, traj.states)]
        return [
            _check("spatial_totals_rel", _totals_gap(scen, self.profile, steps, self.beta), 1e-10),
            _check("fixed_point_residual", out["residual"], 2 * self.picard_tol),
            _check("last_picard_gap", out["report"].sup_gaps[-1], self.picard_tol),
        ]

    def picard_report(self, out):
        return out["report"]


WORKLOADS = {w.name: w for w in (RenewalScalar, DiffusionCompare, PicardQuasilinear)}


def constant_trajectory(scenario, profile, cells):
    """The center profile held over the first ``cells`` time cells."""
    times = tuple(j * scenario.time_grid.step for j in range(cells + 1))
    return QuasilinearTrajectory(times, tuple([profile] * len(times)), 1)

