"""Per-frozen-time step-map stacks and the stability constants read from them."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

import kato_evolve as ke
from kato_evolve.propagator import (
    _expm_stack,
    _fit_exponential_bound,
    _frozen,
    _FrozenTime,
    _step_stack,
    propagate_indices,
)


def fresh(scenario):
    return dataclasses.replace(scenario, caches={})


def expm_stack(mats):
    """The kernel on a stack, handed each matrix's 1-norm as its callers do."""
    return _expm_stack(mats, np.abs(mats).sum(axis=1).max(axis=1))


def frozen_times(scenario):
    """The times of the frozen-time records in the scenario's store."""
    return [t for t, v in scenario.caches.items() if isinstance(v, _FrozenTime)]


def test_stacked_step_maps_match_per_cell_maps(diff1):
    sc = fresh(diff1)
    t = 0.3
    h = sc.age_grid.step
    eye = np.eye(sc.dim)
    chain = ke.chain_matrices(sc, t)
    assert isinstance(chain, np.ndarray)
    assert chain.shape == (sc.age_grid.n_age + 1, sc.dim, sc.dim)
    assert np.array_equal(chain[0], eye)
    steps = _frozen(sc, t).steps
    for j in range(sc.age_grid.n_age):
        expected = expm_stack(h * sc.operator(t, (j + 0.5) * h)[None])[0]
        step = steps[j]
        assert np.array_equal(step, expected)
        assert np.array_equal(chain[j + 1], step @ chain[j])


def rel_one_norm_error(got, expected):
    """Largest relative 1-norm error over a stack of matrices."""
    def norm(m):
        return np.abs(m).sum(axis=-2).max(axis=-1)
    return float((norm(got - expected) / norm(expected)).max())


@pytest.mark.parametrize("name, factor", [("SCAL0", 1), ("MORT1", 1), ("QDIFF", 1),
                                          ("DIFF1", 1), ("DIFF1", 2)])
def test_step_maps_match_scipy_expm(name, factor):
    sc = ke.refine_scenario(ke.preset_scenario(name), factor)
    n, h = sc.age_grid.n_age, sc.age_grid.step
    horizon = sc.time_grid.horizon
    for t in (0.0, 0.3 * horizon, horizon):
        gens = h * sc.operator.sample(t, (np.arange(n) + 0.5) * h)
        steps = _step_stack(sc, t, 0, n)
        assert rel_one_norm_error(steps, expm(gens)) <= 1e-13
        if sc.dim == 1:
            assert np.array_equal(steps, np.exp(gens))


def test_expm_kernel_on_random_non_normal_stacks():
    rng = np.random.default_rng(11)
    mats = rng.standard_normal((40, 32, 32))
    mats += 3.0 * np.triu(rng.standard_normal((40, 32, 32)), 1)
    # rescaled to 1-norms from 1e-6 to 50, in shuffled order
    norms = np.abs(mats).sum(axis=1).max(axis=1)
    mats *= (rng.permutation(np.geomspace(1e-6, 50.0, 40)) / norms)[:, None, None]
    powers = np.ceil(np.log2(np.maximum(np.abs(mats).sum(axis=1).max(axis=1) / 1.09, 1.0)))
    assert powers.min() == 0 and powers.max() == 6
    maps = expm_stack(mats.copy())
    assert rel_one_norm_error(maps, expm(mats)) <= 1e-13
    # a matrix's map depends on that matrix only, whatever stack it sits in
    for j in range(len(mats)):
        assert np.array_equal(expm_stack(mats[j:j + 1].copy())[0], maps[j])
    assert np.array_equal(expm_stack(mats[5:22].copy()), maps[5:22])
    assert np.array_equal(expm_stack(mats[::-1].copy()), maps[::-1])


def test_expm_kernel_edge_stacks():
    assert np.array_equal(expm_stack(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))
    assert expm_stack(np.zeros((0, 4, 4))).shape == (0, 4, 4)


@pytest.mark.parametrize("name", ["SCAL0", "DIFF1"])
def test_step_stack_sub_ranges_are_bit_equal(name):
    sc = ke.preset_scenario(name)
    t = 0.3
    n = sc.age_grid.n_age
    whole = _step_stack(sc, t, 0, n)
    assert np.array_equal(_step_stack(sc, t, 5, n - 3), whole[5:n - 3])
    for j in (0, 7, n - 1):
        assert np.array_equal(_step_stack(sc, t, j, j + 1)[0], whole[j])
    assert _step_stack(sc, t, 4, 4).shape == (0, sc.dim, sc.dim)


@pytest.mark.parametrize("config", [
    {"preset": "MORT1", "operator": {"kind": "scalar_mortality", "mu": -1e5}},
    {"preset": "DIFF1", "operator": {"kind": "modulated_laplacian", "kappa0": -1e4}},
])
def test_overflowing_step_map_is_named(config):
    # warnings are errors in this suite, so an overflow warning would fail here
    sc = ke.build_scenario(config)
    with pytest.raises(ke.ValidationError, match=r"^step map is not finite at t=0\.0, cell 0 \(a="):
        ke.apply_semigroup(sc, 0.0, 0.5, ke.make_profile(sc, "tilted"))


def test_step_maps_are_read_only(diff1):
    with pytest.raises(ValueError):
        ke.chain_matrices(diff1, 0.0)[1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        _frozen(diff1, 0.0).steps[0, 0, 0] = 1.0


def test_cell_ranges_are_validated(diff1):
    n = diff1.age_grid.n_age
    v = np.ones(diff1.dim)
    with pytest.raises(ke.ValidationError):
        propagate_indices(diff1, 0.0, n, n + 1, v)
    with pytest.raises(ke.ValidationError):
        propagate_indices(diff1, 0.0, 2, 1, v)
    with pytest.raises(ke.ValidationError):
        propagate_indices(diff1, 0.0, 0, n + 1, v)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_frozen_time_is_rejected(scal0, diff1, t):
    for base in (scal0, diff1):
        sc = fresh(base)
        phi = ke.make_profile(sc, "tilted")
        calls = (
            lambda: ke.solve_birth(sc, t, phi, 0.5),
            lambda: ke.branch_values(sc, t, phi, 0.5),
            lambda: ke.apply_semigroup(sc, t, 0.5, phi),
            lambda: ke.chain_matrices(sc, t),
            lambda: propagate_indices(sc, t, 0, 1, np.ones(sc.dim)),
        )
        for call in calls:
            with pytest.raises(ke.ValidationError, match="^frozen time must be finite"):
                call()
        assert sc.caches == {}
        # a zero span evaluates no field, so it needs no frozen time
        assert np.array_equal(ke.apply_semigroup(sc, t, 0.0, phi).values, phi.values)


def test_exponential_fit_without_a_positive_span_is_trivial():
    assert _fit_exponential_bound([]) == (1.0, 0.0)
    assert _fit_exponential_bound([(1.0, 0.0), (0.5, 0.0), (0.0, 2.0)]) == (1.0, 0.0)


def test_exponential_fit_on_decaying_samples():
    decaying = [(1.0, 0.0), (np.exp(-2.0), 1.0), (np.exp(-3.0), 2.0), (0.5, 0.25)]
    m, omega = _fit_exponential_bound(decaying)
    assert omega == max(np.log(g) / span for g, span in decaying if span > 0)
    assert omega < 0.0
    assert m >= 1.0
    for g, span in decaying:
        assert g * np.exp(-omega * span) <= m
    # a zero norm adds no rate, whatever its span
    assert _fit_exponential_bound(decaying + [(0.0, 0.5)]) == (m, omega)


def test_evolution_caches_one_stack_per_frozen_time(diff1):
    sc = fresh(diff1)
    ke.apply_evolution(sc, 0.5, 0.0, ke.make_profile(sc, "tilted"), tol=1e-4)
    times = frozen_times(sc)
    assert len(times) == len(sc.caches) > 1
    n, d = sc.age_grid.n_age, sc.dim
    for t in times:
        steps = sc.caches[t].steps
        assert isinstance(steps, np.ndarray)
        assert steps.shape == (n, d, d)


def test_estimate_bounds_caches_only_its_own_frozen_time(diff1):
    sc = fresh(diff1)
    first = ke.estimate_bounds(sc)
    assert frozen_times(sc) == [0.0]
    assert ke.estimate_bounds(fresh(diff1)) == first


@pytest.mark.parametrize("name", ["SCAL0", "DIFF1", "MORT1", "QDIFF"])
def test_growth_bound_is_the_inline_rate(name):
    sc = ke.preset_scenario(name)
    c = ke.default_constants(sc)
    assert ke.growth_bound(sc, 0) == (c.m0, c.omega0 + c.m0 * sc.birth_norm(0))
    assert ke.growth_bound(sc, 1) == (c.m1, c.omega1 + c.m1 * sc.birth_norm(1))
    with pytest.raises(ke.ValidationError):
        ke.growth_bound(sc, 2)


def records(scenario):
    """The distinct frozen-time records in the scenario's store."""
    return list({id(v): v for v in scenario.caches.values() if isinstance(v, _FrozenTime)}.values())


def per_time_product(scenario, plan, phi):
    """The plan applied one factor at a time, each on a scenario of its own."""
    for t, s in zip(plan.times, plan.durations):
        phi = ke.apply_product_sequential(fresh(scenario), ke.ProductPlan((t,), (s,)), phi)
    return phi


def test_mirror_times_of_the_periodic_field_share_one_record(diff1):
    # 0.1 (1 + 0.5 sin 2 pi t) is bit-equal at t = 0 and t = 0.5
    sc = fresh(diff1)
    ke.apply_evolution(sc, 1.0, 0.0, ke.make_profile(sc, "tilted"), tol=1e-5)
    assert sc.caches[0.5] is sc.caches[0.0]
    assert len(records(sc)) == len(sc.caches) - 1
    n = sc.age_grid.n_age
    for t in frozen_times(sc):
        assert np.array_equal(sc.caches[t].steps, _step_stack(sc, t, 0, n))


def test_equal_norms_of_different_generators_keep_two_records(diff1):
    # P A(0, a) P^T, P swapping the first two coordinates from t = 0.5 on:
    # the 1-norms are bit-equal at every time, the generators are not
    base = diff1.operator
    swap = np.arange(diff1.dim)
    swap[:2] = 1, 0

    def evaluate(t, ages):
        p = swap if t >= 0.5 else np.arange(diff1.dim)
        return base.evaluate(0.0, ages)[:, p][:, :, p]

    sc = dataclasses.replace(diff1, operator=ke.OperatorField(diff1.dim, evaluate))
    phi = ke.make_profile(sc, "tilted")
    plan = ke.approximant_plan(sc, 4, 1.0, 0.0)
    assert plan.times == (0.0, 0.25, 0.5, 0.75)
    value = ke.apply_product_sequential(sc, plan, phi)
    assert np.array_equal(value.values, per_time_product(sc, plan, phi).values)
    first, second = sc.caches[0.0], sc.caches[0.5]
    assert records(sc) == [first, second]
    assert sc.caches[0.25] is first and sc.caches[0.75] is second
    assert np.array_equal(first.norms, second.norms)
    assert not np.array_equal(first.steps, second.steps)


def test_time_independent_product_keeps_one_record(mort1):
    sc = fresh(mort1)
    plan = ke.ProductPlan((0.0, 0.5, 1.0), (0.3, 0.2, 0.6))
    phi = ke.make_profile(sc, "tilted")
    value = ke.apply_product_sequential(sc, plan, phi)
    assert frozen_times(sc) == [0.0, 0.5, 1.0]
    assert len(records(sc)) == 1
    assert np.array_equal(value.values, per_time_product(sc, plan, phi).values)


def test_kept_trajectory_read_through_a_shared_time_is_a_cold_march(diff1):
    sc = fresh(diff1)
    phi = ke.make_profile(sc, "smooth_random", seed=4)
    ke.solve_birth(sc, 0.0, phi, 0.75)
    assert _frozen(sc, 0.5) is _frozen(sc, 0.0)
    shared = ke.solve_birth(sc, 0.5, phi, 0.5)
    assert np.shares_memory(shared.values, sc.caches[0.0].trajectories[phi.values.tobytes()].values)
    assert np.array_equal(shared.values, ke.solve_birth(fresh(diff1), 0.5, phi, 0.5).values)
