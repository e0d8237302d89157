"""Picard solver for the state-coupled problem."""

import dataclasses

import numpy as np
import pytest

import kato_evolve as ke
from kato_evolve.quasilinear import _trajectory_field

EPS = 0.05
RADIUS = 1.0
TOL = 1e-3


def structured_center(sc):
    """Center profile with genuine spatial structure.

    A flat center is invisible to the diffusion coupling (the spatial
    operator kills constants), so the battery perturbs it with a smooth
    age-by-space mode large enough that successive iterates actually
    differ.
    """
    ages = sc.age_grid.nodes
    x = np.linspace(0.0, 1.0, sc.dim)
    mode = np.outer(1.0 + 0.5 * np.sin(np.pi * ages / sc.age_grid.a_max), np.cos(np.pi * x))
    base = ke.make_profile(sc, "ones")
    return base.with_values(base.values + 0.3 * mode)


@pytest.fixture(scope="module")
def battery(qdiff):
    center = structured_center(qdiff)
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS, center=center)
    traj, t_phi, report = ke.solve_quasilinear(qdiff, problem, tol=TOL)
    return center, problem, traj, t_phi, report


def test_problem_validation(qdiff):
    center = ke.make_profile(qdiff, "ones")
    op = lambda v, t, a: np.zeros((qdiff.dim, qdiff.dim))
    with pytest.raises(ke.ValidationError):
        ke.QuasilinearProblem(op, 0.0, 1.0, center)
    with pytest.raises(ke.ValidationError):
        ke.QuasilinearProblem(op, 1.0, -0.5, center)
    with pytest.raises(ke.ValidationError):
        ke.QuasilinearProblem(op, 1.0, 1.0, center, lp_mode=(2.0,))
    with pytest.raises(ke.ValidationError):
        ke.QuasilinearProblem(op, 1.0, 1.0, center, lp_mode=(1.0, 1.0))
    with pytest.raises(ke.ValidationError):
        ke.QuasilinearProblem(op, 1.0, 1.0, center, lp_mode=(2.0, 0.0))


def test_norm_coupled_family_scales_the_field(qdiff):
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS)
    v = ke.make_profile(qdiff, "ones")
    ages = qdiff.age_grid.nodes
    got = problem.operator_of_state(v, 0.1, ages)
    base = qdiff.operator.sample(0.1, ages)
    scale = 1.0 + EPS * ke.state_norm(qdiff, v)
    assert got.shape == (len(ages), qdiff.dim, qdiff.dim)
    assert np.allclose(got, scale * base, rtol=0, atol=1e-15)
    with pytest.raises(ke.ValidationError):
        ke.norm_coupled_diffusion(qdiff, -0.1, RADIUS)


def test_zero_coupling_gets_floor_constant(qdiff):
    problem = ke.norm_coupled_diffusion(qdiff, 0.0, RADIUS)
    assert problem.lipschitz_l == 1e-12


def test_check_lipschitz_within_declared(qdiff, battery):
    _, problem, _, _, _ = battery
    report = ke.check_lipschitz(problem, qdiff, samples=8, seed=0)
    assert not report.exceeded
    assert 0.0 < report.observed_l <= report.declared_l
    with pytest.raises(ke.ValidationError):
        ke.check_lipschitz(problem, qdiff, samples=0)


def test_flat_center_degenerate_coupling(qdiff):
    # the diffusion term vanishes on spatially constant profiles, so the
    # coupling never feeds back and the second iterate repeats the first
    # exactly; the unbalanced birth drifts past the unit ball at the full
    # horizon, which costs one halving first
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS)
    traj, t_phi, report = ke.solve_quasilinear(qdiff, problem, tol=TOL)
    assert report.halvings == 1
    assert t_phi == qdiff.time_grid.horizon / 2
    assert report.sup_gaps[-1] == 0.0
    assert ke.fixed_point_residual(qdiff, problem, traj, tol=TOL) == 0.0


def test_structured_center_converges(battery, qdiff):
    center, problem, traj, t_phi, report = battery
    assert t_phi == 0.125
    assert report.halvings == 2
    assert report.n_used == 8
    assert traj.times[0] == 0.0 and traj.times[-1] == t_phi
    assert report.sup_gaps[-1] <= TOL
    assert np.allclose(traj.final.values, traj.states[-1].values)


def test_gaps_contract_no_worse_than_predicted(battery):
    _, _, _, _, report = battery
    cap = 1.2 * report.predicted_contraction
    gaps = report.sup_gaps
    for a, b in zip(gaps, gaps[1:]):
        if a > 0:
            assert b / a <= cap


def test_fixed_point_residual_small(battery, qdiff):
    _, problem, traj, _, _ = battery
    assert ke.fixed_point_residual(qdiff, problem, traj, tol=TOL) <= 2 * TOL


def test_two_starting_points_agree(battery, qdiff):
    _, problem, traj, _, _ = battery
    traj2, _, _ = ke.solve_quasilinear(qdiff, problem, tol=TOL, initial="linear")
    assert traj2.times == traj.times
    diff = traj.final.with_values(traj.final.values - traj2.final.values)
    assert ke.state_norm(qdiff, diff) <= 4 * TOL


def test_iterates_stay_in_ball(battery, qdiff):
    center, problem, traj, _, _ = battery
    for state in traj.states:
        drift = state.with_values(state.values - center.values)
        assert ke.state_norm(qdiff, drift) <= problem.ball_radius


def test_continuous_dependence_bound(battery, qdiff):
    center, problem, traj, t_phi, _ = battery
    f1 = _trajectory_field(qdiff, problem, traj.times, traj.states)
    frozen = tuple([center] * len(traj.times))
    f0 = _trajectory_field(qdiff, problem, traj.times, frozen)
    lhs, rhs = ke.continuous_dependence_gap(qdiff, f1, f0, center, 0.0, t_phi, tol=TOL)
    assert lhs <= 1.05 * rhs
    assert lhs < 0.01


def test_report_fields(battery):
    _, _, _, _, report = battery
    assert report.eta > 0 and np.isfinite(report.eta)
    assert report.r_constant >= 1.0
    assert report.phi_graph_norm > 0
    d = report.as_dict()
    assert set(d) == {
        "t_phi",
        "halvings",
        "sup_gaps",
        "integral_gaps",
        "predicted_contraction",
        "n_used",
        "eta",
        "r_constant",
        "phi_graph_norm",
    }
    assert len(d["sup_gaps"]) == len(d["integral_gaps"])


def test_solver_validation(qdiff, scal0):
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS)
    with pytest.raises(ke.ValidationError):
        ke.solve_quasilinear(qdiff, problem, tol=0.0)
    with pytest.raises(ke.ValidationError):
        ke.solve_quasilinear(qdiff, problem, max_iter=0)
    with pytest.raises(ke.ValidationError):
        ke.solve_quasilinear(qdiff, problem, initial="random")
    stranger = ke.QuasilinearProblem(
        problem.operator_of_state, 1.0, 1.0, ke.make_profile(scal0, "ones")
    )
    with pytest.raises(ke.ValidationError):
        ke.solve_quasilinear(qdiff, stranger)


def test_lp_mode_rejects_uncovered_center(qdiff):
    with pytest.raises(ke.ValidationError):
        problem = ke.norm_coupled_diffusion(qdiff, EPS, 0.3, lp_mode=(2.0, 0.5))
        ke.solve_quasilinear(qdiff, problem, tol=TOL)


def test_lp_mode_confined_run(qdiff):
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS, lp_mode=(2.0, 1.0))
    traj, _, _ = ke.solve_quasilinear(qdiff, problem, tol=TOL)
    phi = problem.ball_center
    cap = (1.0 + RADIUS) * ke.lp_age_norm(qdiff, phi, 2.0)
    for state in traj.states:
        assert ke.lp_age_norm(qdiff, state, 2.0) <= cap


def test_too_tight_tolerance_propagates_ladder_failure(qdiff):
    center = structured_center(qdiff)
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS, center=center)
    with pytest.raises(ke.ConvergenceError, match="partition counts"):
        ke.solve_quasilinear(qdiff, problem, tol=1e-6)


def test_picard_steps_reuse_constants_and_birth_samples(qdiff, monkeypatch):
    from kato_evolve import propagator

    births = []
    kernel = dataclasses.replace(
        qdiff.birth, evaluate=lambda ages: births.append(len(ages)) or qdiff.birth.evaluate(ages)
    )
    sc = dataclasses.replace(qdiff, birth=kernel, caches={})
    estimates = []
    real = propagator.estimate_bounds
    monkeypatch.setattr(
        propagator, "estimate_bounds", lambda *a, **k: estimates.append(1) or real(*a, **k)
    )
    problem = ke.norm_coupled_diffusion(sc, EPS, RADIUS, center=structured_center(sc))
    _, _, report = ke.solve_quasilinear(sc, problem, tol=TOL)
    assert len(report.sup_gaps) >= 2
    assert len(estimates) == 1
    assert births == [sc.age_grid.n_age + 1]  # sampled once, at construction


def test_coupled_field_takes_one_state_per_sample(qdiff, monkeypatch):
    samples = []
    sample = ke.OperatorField.sample

    def counted(self, t, ages):
        if self.label == "state-coupled":
            samples.append(len(ages))
        return sample(self, t, ages)

    monkeypatch.setattr(ke.OperatorField, "sample", counted)
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS, center=structured_center(qdiff))
    calls = []

    def operator_of_state(v, t, ages):
        calls.append(len(ages))
        return problem.operator_of_state(v, t, ages)

    counted_problem = dataclasses.replace(problem, operator_of_state=operator_of_state)
    ke.solve_quasilinear(qdiff, counted_problem, tol=TOL)
    assert samples and calls == samples
    assert min(calls) > 1
