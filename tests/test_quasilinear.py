"""Picard solver for the state-coupled problem."""

import dataclasses
import pickle
import weakref

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
    for bad in (-1e-3, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ke.ValidationError, match="lipschitz_t"):
            ke.QuasilinearProblem(op, 1.0, 1.0, center, lipschitz_t=bad)
    for good in (None, 0.0, 2.5):
        assert ke.QuasilinearProblem(op, 1.0, 1.0, center, lipschitz_t=good).lipschitz_t == good


def test_norm_coupled_family_declares_its_time_constant(qdiff, diff1):
    assert ke.norm_coupled_diffusion(qdiff, EPS, RADIUS).lipschitz_t == 0.0
    problem = ke.norm_coupled_diffusion(diff1, EPS, RADIUS)
    scale = 1.0 + EPS * (ke.state_norm(diff1, problem.ball_center) + RADIUS)
    assert problem.lipschitz_t == scale * diff1.operator.lipschitz_t > 0
    undeclared = dataclasses.replace(diff1, operator=dataclasses.replace(
        diff1.operator, lipschitz_t=None))
    assert ke.norm_coupled_diffusion(undeclared, EPS, RADIUS).lipschitz_t is None


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


@pytest.mark.parametrize("samples", [2.5, "3", True, None])
def test_check_lipschitz_takes_an_integer_sample_count(qdiff, samples):
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS)
    with pytest.raises(ke.ValidationError, match="samples must be an integer"):
        ke.check_lipschitz(problem, qdiff, samples=samples)


def test_problem_rejects_a_ball_center_that_is_no_state(qdiff):
    op = lambda v, t, a: np.zeros((len(a), qdiff.dim, qdiff.dim))
    raw = np.ones((qdiff.age_grid.n_age + 1, qdiff.dim))
    with pytest.raises(ke.ValidationError, match="ball_center must be a StateVector"):
        ke.QuasilinearProblem(op, 1.0, 1.0, raw)


def test_trajectory_checks_its_shape(qdiff, battery):
    _, problem, traj, _, _ = battery
    for times, states in ((traj.times, traj.states[:-1]), (traj.times[:-1], traj.states),
                          ((), ())):
        with pytest.raises(ke.ValidationError, match="one StateVector per time"):
            ke.QuasilinearTrajectory(times, states, traj.n_used)
    raw = tuple(s.values for s in traj.states)
    with pytest.raises(ke.ValidationError, match="one StateVector per time"):
        ke.QuasilinearTrajectory(traj.times, raw, traj.n_used)


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


def test_gaps_contract_no_worse_than_predicted(battery, qdiff):
    _, problem, _, t_phi, report = battery
    cap = 1.2 * ke.contraction_estimate(qdiff, problem, t_phi)["predicted_contraction"]
    gaps = report.sup_gaps
    for a, b in zip(gaps, gaps[1:]):
        if a > 0:
            assert b / a <= cap


def test_fixed_point_residual_small(battery, qdiff):
    _, problem, traj, _, _ = battery
    assert ke.fixed_point_residual(qdiff, problem, traj, tol=TOL) <= 2 * TOL


def test_one_node_trajectory_is_its_own_fixed_point(qdiff):
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS, center=structured_center(qdiff))
    traj = ke.QuasilinearTrajectory((0.0,), (problem.ball_center,), 1)
    assert ke.fixed_point_residual(qdiff, problem, traj, tol=TOL) == 0.0


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


def test_report_fields(battery, qdiff):
    _, problem, _, t_phi, report = battery
    estimate = ke.contraction_estimate(qdiff, problem, t_phi)
    assert estimate["eta"] > 0 and np.isfinite(estimate["eta"])
    assert estimate["r_constant"] >= 1.0
    assert estimate["phi_graph_norm"] > 0
    assert set(estimate) == {"predicted_contraction", "eta", "r_constant", "phi_graph_norm"}
    d = report.as_dict()
    assert set(d) == {"t_phi", "halvings", "sup_gaps", "integral_gaps", "n_used"}
    assert len(d["sup_gaps"]) == len(d["integral_gaps"])


def test_solver_validation(qdiff, scal0):
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ke.ValidationError, match="^tol must be finite and positive"):
            ke.solve_quasilinear(qdiff, problem, tol=tol)
    with pytest.raises(ke.ValidationError):
        ke.solve_quasilinear(qdiff, problem, max_iter=0)
    for max_iter in (2.5, True, np.float64(3.0)):
        with pytest.raises(ke.ValidationError, match="^max_iter must be an integer, got"):
            ke.solve_quasilinear(qdiff, problem, max_iter=max_iter)
    with pytest.raises(ke.ValidationError):
        ke.solve_quasilinear(qdiff, problem, initial="random")
    stranger = ke.QuasilinearProblem(
        problem.operator_of_state, 1.0, 1.0, ke.make_profile(scal0, "ones")
    )
    with pytest.raises(ke.ValidationError):
        ke.solve_quasilinear(qdiff, stranger)


def test_too_tight_tolerance_propagates_ladder_failure(qdiff):
    center = structured_center(qdiff)
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS, center=center)
    with pytest.raises(ke.ConvergenceError, match="partition counts"):
        ke.solve_quasilinear(qdiff, problem, tol=1e-6)


def _fake_picard_step(center, offset_of):
    """A stand-in Picard step: every state of the new iterate is the center
    shifted by offset_of(m, values), with m the horizon in time steps and
    values those of the frozen iterate; the horizons of the calls are kept
    in ``calls``."""
    calls = []

    def step(picard, tol):
        calls.append(len(picard.times) - 1)
        shift = offset_of(len(picard.times) - 1, picard.values)
        return tuple(center.with_values(center.values + shift) for _ in picard.times), 1

    step.calls = calls
    return step


def test_stalled_iterates_halve_down_to_underflow(qdiff, monkeypatch):
    from kato_evolve import quasilinear

    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS)
    center = problem.ball_center
    fake = _fake_picard_step(center, lambda m, values: 0.01 if len(fake.calls) % 2 else -0.01)
    monkeypatch.setattr(quasilinear, "_picard_step", fake)
    with pytest.raises(ke.ConvergenceError, match="fell below one time step") as exc:
        ke.solve_quasilinear(qdiff, problem, tol=TOL)
    assert fake.calls == [16, 16, 8, 8, 4, 4, 2, 2, 1, 1]
    assert exc.value.history == pytest.approx((0.04, 0.08))


def test_max_iter_exhausted_raises_at_the_current_horizon(qdiff, monkeypatch):
    from kato_evolve import quasilinear

    # each step halves the distance to a target 2.0 away from the center
    # (0.5 per state entry, |ones| = 4); on the full horizon the target
    # sits twice as far and the second iterate leaves the ball of radius 2
    problem = ke.norm_coupled_diffusion(qdiff, EPS, 2.0)
    center = problem.ball_center

    def halfway(m, values):
        target = 0.5 if m <= 8 else 1.0
        return 0.5 * (values[0][0, 0] - center.values[0, 0] + target)

    fake = _fake_picard_step(center, halfway)
    monkeypatch.setattr(quasilinear, "_picard_step", fake)
    with pytest.raises(ke.ConvergenceError,
                       match="no fixed point within 4 iterations at horizon 0.25") as exc:
        ke.solve_quasilinear(qdiff, problem, tol=1e-9, max_iter=4)
    assert fake.calls == [16, 16, 8, 8, 8, 8]
    assert exc.value.history == pytest.approx((1.0, 0.5, 0.25, 0.125))


def test_linear_start_outside_the_ball_underflows_with_no_gaps(qdiff, monkeypatch):
    from kato_evolve import quasilinear

    calls = []
    step = quasilinear._picard_step
    monkeypatch.setattr(quasilinear, "_picard_step", lambda picard, tol: (
        calls.append(len(picard.times) - 1) or step(picard, tol)))
    tilted = ke.make_profile(qdiff, "tilted")
    problem = ke.norm_coupled_diffusion(qdiff, 5.0, 0.01, center=tilted)
    with pytest.raises(ke.ConvergenceError, match="fell below one time step") as exc:
        ke.solve_quasilinear(qdiff, problem, tol=1e-6, initial="linear")
    assert calls == [16, 8, 4, 2, 1]  # only the linear start, at every horizon
    assert exc.value.history == ()


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
    steps = []
    real_with_operator = ke.Scenario._with_operator

    def with_operator(self, operator):
        steps.append(real_with_operator(self, operator))
        return steps[-1]

    monkeypatch.setattr(ke.Scenario, "_with_operator", with_operator)
    problem = ke.norm_coupled_diffusion(sc, EPS, RADIUS, center=structured_center(sc))
    _, _, report = ke.solve_quasilinear(sc, problem, tol=TOL)
    assert len(report.sup_gaps) >= 2
    assert len(estimates) == 0
    assert births == [sc.age_grid.n_age + 1]  # sampled once, at construction
    assert steps and all(s._kernel is sc._kernel for s in steps)


def test_one_boundary_correction_serves_every_picard_step(qdiff, monkeypatch):
    # K = M^{-1} - I depends on the birth kernel and the age grid only, so
    # the solve and the residual check build it once, whatever the number
    # of Picard steps; its one SVD is the only one without singular vectors
    sc = dataclasses.replace(qdiff, caches={})
    builds = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        builds.append(kwargs.get("compute_uv", True) is False)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    problem = ke.norm_coupled_diffusion(sc, EPS, RADIUS, center=structured_center(sc))
    traj, _, report = ke.solve_quasilinear(sc, problem, tol=TOL)
    ke.fixed_point_residual(sc, problem, traj, tol=TOL)
    assert len(report.sup_gaps) >= 3
    assert sum(builds) == 1


def test_coupled_field_takes_one_state_per_sample(qdiff, monkeypatch):
    samples = []
    sample = ke.OperatorField.sample

    def counted(self, t, ages):
        if self is not qdiff.operator:  # a frozen-trajectory field
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


def workload_center(sc, seed=1):
    """The seeded tilt of peak size 0.005 that the picard-quasilinear benchmark centres on."""
    rng = np.random.default_rng(seed)
    ages = sc.age_grid.nodes / sc.age_grid.a_max
    x = np.linspace(0.0, 1.0, sc.dim)
    tilt = sum(
        rng.uniform(-1.0, 1.0) * np.outer(np.cos(np.pi * ka * ages), np.cos(np.pi * kx * x))
        for ka in range(3) for kx in (1, 2)
    )
    return ke.StateVector(sc.age_grid, 1.0 + 0.005 * tilt / np.max(np.abs(tilt)))


def test_constant_iterates_run_one_ladder_level(qdiff, monkeypatch):
    from kato_evolve import propagator, renewal

    stacks, steps = [], []
    step_stack, march = propagator._step_stack, renewal._march
    monkeypatch.setattr(propagator, "_step_stack",
                        lambda *a: stacks.append(1) or step_stack(*a))
    monkeypatch.setattr(renewal, "_march",
                        lambda sc, t, u, m: steps.append(m) or march(sc, t, u, m))

    def operation(problem):
        sc = dataclasses.replace(qdiff, caches={})
        stacks.clear()
        steps.clear()
        traj, t_phi, report = ke.solve_quasilinear(sc, problem, tol=TOL)
        residual = ke.fixed_point_residual(sc, problem, traj, tol=TOL)
        return traj, report, residual, len(stacks), sum(steps)

    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS, center=workload_center(qdiff))
    assert problem.lipschitz_t == 0.0
    traj, report, residual, n_stacks, n_steps = operation(problem)
    ref, ref_report, ref_residual, ref_stacks, ref_steps = operation(
        dataclasses.replace(problem, lipschitz_t=None))
    # two distinct frozen generators, one per iterate that the next step or
    # the residual cannot take from the step before it
    assert (n_stacks, n_steps) == (2, 96)
    # the second ladder level's frozen times share the first level's record:
    # a constant iterate's sampled generators are bit-equal at every time
    assert (ref_stacks, ref_steps) == (2, 144)
    assert traj.times == ref.times and traj.n_used == ref.n_used
    assert all(np.array_equal(a.values, b.values) for a, b in zip(traj.states, ref.states))
    assert report == ref_report
    assert residual == ref_residual


def _solve_and_residual(sc, problem, tol=TOL):
    traj, _, report = ke.solve_quasilinear(sc, problem, tol=tol)
    return traj, report, ke.fixed_point_residual(sc, problem, traj, tol=tol)


@pytest.fixture
def stacks(monkeypatch):
    """The frozen times of every step-map stack exponentiated from here on."""
    from kato_evolve import propagator

    built = []
    step_stack = propagator._step_stack
    monkeypatch.setattr(propagator, "_step_stack",
                        lambda sc, t, *rest: built.append(t) or step_stack(sc, t, *rest))
    return built


@pytest.mark.parametrize("center", ["tilted", 1, 2, 3])
def test_handed_over_step_maps_change_no_bit(qdiff, monkeypatch, stacks, center):
    # the CLI defaults and the picard-quasilinear benchmark's seeds 1 to 3
    from kato_evolve import quasilinear

    phi = (ke.make_profile(qdiff, center) if center == "tilted"
           else workload_center(qdiff, center))
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS, center=phi)
    runs = []
    for share in (quasilinear._share_frozen, lambda src, dst, same: None):
        monkeypatch.setattr(quasilinear, "_share_frozen", share)
        stacks.clear()
        runs.append((*_solve_and_residual(dataclasses.replace(qdiff, caches={}), problem),
                     len(stacks)))
    (traj, report, residual, n_stacks), (ref, ref_report, ref_residual, ref_stacks) = runs
    assert (n_stacks, ref_stacks) == (2, 6)
    assert traj.times == ref.times and traj.n_used == ref.n_used
    assert [s.values.tobytes() for s in traj.states] == [s.values.tobytes() for s in ref.states]
    assert report == ref_report
    assert residual == ref_residual


def test_residual_rebuilds_what_it_cannot_prove_bit_equal(qdiff, stacks):
    sc = dataclasses.replace(qdiff, caches={})
    problem = ke.norm_coupled_diffusion(sc, EPS, RADIUS, center=workload_center(sc))
    traj, _, _ = ke.solve_quasilinear(sc, problem, tol=TOL)
    stacks.clear()
    residual = ke.fixed_point_residual(sc, problem, traj, tol=TOL)
    assert stacks == []  # the last Picard step holds both of its frozen times
    built = ke.QuasilinearTrajectory(traj.times, traj.states, traj.n_used)
    assert built == traj  # equal in value, yet it carries no producing step
    unpickled = pickle.loads(pickle.dumps(traj))
    assert unpickled._producer is None and unpickled.times == traj.times
    for args in ((sc, dataclasses.replace(problem), traj),
                 (dataclasses.replace(sc, caches={}), problem, traj),
                 (sc, problem, built), (sc, problem, unpickled)):
        stacks.clear()
        assert ke.fixed_point_residual(*args, tol=TOL) == residual
        assert sorted(stacks) == [0.0, 0.125]


def test_each_step_takes_only_the_frozen_times_whose_blends_are_byte_equal(
        qdiff, diff1, monkeypatch):
    from kato_evolve import quasilinear

    handoffs = []
    share = quasilinear._share_frozen

    def logged(src, dst, same):
        share(src, dst, same)
        held = sorted(t for t in src.caches if not isinstance(t, str))
        handoffs.append((held, sorted(dst.caches)))

    monkeypatch.setattr(quasilinear, "_share_frozen", logged)
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS, center=workload_center(qdiff))
    _solve_and_residual(dataclasses.replace(qdiff, caches={}), problem)
    # steps A (whole horizon) and B, C (half horizon), then the residual:
    # A and B freeze the center, and C's iterate is B's output, so C shares
    # B's t = 0 only; the residual's trajectory is C's output, equal to C's
    # iterate up to and past t = 0.125
    assert handoffs == [([0.0], [0.0]), ([0.0], [0.0]), ([0.0, 0.125], [0.0, 0.125])]
    handoffs.clear()
    problem = ke.norm_coupled_diffusion(diff1, EPS, RADIUS, center=ke.make_profile(diff1, "tilted"))
    _solve_and_residual(dataclasses.replace(diff1, caches={}), problem)
    # the three steps on the center share every record; the fourth step's
    # blend leaves the center after t = 0, so it gets no other time
    everything = [0.0, 0.25, 0.5, 0.75]
    assert handoffs == [(everything, everything), (everything, everything),
                        ([0.0, 0.125, 0.25, 0.5, 0.75], [0.0]), ([0.0, 0.125], [0.0, 0.125])]


def test_a_picard_step_drops_the_step_before_once_handed_over(qdiff, monkeypatch):
    from kato_evolve import quasilinear

    before, alive = [], []
    share, step = quasilinear._share_frozen, quasilinear._picard_step

    def shared(src, dst, same):
        before.append(weakref.ref(src))
        share(src, dst, same)

    monkeypatch.setattr(quasilinear, "_share_frozen", shared)
    monkeypatch.setattr(quasilinear, "_picard_step", lambda picard, tol: (
        alive.append(sum(ref() is not None for ref in before)) or step(picard, tol)))
    problem = ke.norm_coupled_diffusion(qdiff, EPS, RADIUS, center=workload_center(qdiff))
    traj, _, _ = ke.solve_quasilinear(dataclasses.replace(qdiff, caches={}), problem, tol=TOL)
    assert len(before) == 2 and alive == [0, 0, 0]
    assert traj._producer.scenario.caches  # kept for the residual
