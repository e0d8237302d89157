"""Randomized small scenarios against the semigroup, evolution and oracle invariants."""

import numpy as np
import pytest

import kato_evolve as ke
from kato_evolve.quasilinear import _trajectory_field

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

operators = st.one_of(
    st.just({"kind": "zero"}),
    st.builds(lambda mu: {"kind": "scalar_mortality", "mu": mu},
              st.floats(0.0, 2.0)),
    st.builds(
        lambda k, amp, slope: {"kind": "modulated_laplacian", "kappa0": k,
                               "time_amplitude": amp, "age_slope": slope},
        st.floats(0.0, 0.05), st.floats(0.0, 0.5), st.floats(0.0, 1.0)),
)
births = st.builds(lambda kind, beta: {"kind": kind, "beta": beta},
                   st.sampled_from(["constant", "hat"]), st.floats(0.0, 3.0))


@st.composite
def cases(draw):
    n = draw(st.integers(4, 16))
    sc = ke.build_scenario({
        "dim": draw(st.integers(1, 3)),
        "a_max": 1.0,
        "n_age": n,
        "T": 1.0,
        "n_time": n,
        "operator": draw(operators),
        "birth": draw(births),
    })
    spans = st.integers(1, 2 * n + 3)
    return sc, draw(st.integers(0, 2**16)), draw(spans), draw(spans), draw(spans)


@hypothesis.settings(max_examples=25, derandomize=True)
@hypothesis.given(cases(), st.sampled_from([0.0, 0.4]))
def test_semigroup_law_and_birth_identity(case, t):
    sc, seed, m1, m2, m = case
    h = sc.age_grid.step
    rng = np.random.default_rng(seed)
    phi = ke.StateVector(sc.age_grid, rng.uniform(-1.0, 1.0, (sc.age_grid.n_age + 1, sc.dim)))
    tol = sc.tolerances
    bound = tol.semigroup * ke.state_norm(sc, phi)
    assert ke.semigroup_property_residual(sc, t, m1 * h, m2 * h, phi) <= bound
    assert ke.birth_identity_residual(sc, t, phi, m * h) < tol.volterra


@hypothesis.settings(max_examples=25, derandomize=True)
@hypothesis.given(cases(), st.data())
def test_product_paths_agree(case, data):
    sc, seed, *_ = case
    n, h = sc.age_grid.n_age, sc.age_grid.step
    k = data.draw(st.integers(1, 4))
    times = sorted(data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k)))
    steps = data.draw(st.lists(st.integers(0, 2 * n + 3), min_size=k, max_size=k))
    # the direct path reads birth trajectories as long as the whole plan
    hypothesis.assume(sum(steps) * h <= sc.s_max)
    plan = ke.ProductPlan(tuple(i * h for i in times), tuple(m * h for m in steps))
    rng = np.random.default_rng(seed)
    phi = ke.StateVector(sc.age_grid, rng.uniform(-1.0, 1.0, (n + 1, sc.dim)))
    seq = ke.apply_product_sequential(sc, plan, phi)
    direct = ke.apply_product_direct(sc, plan, phi)
    gap = ke.state_norm(sc, seq.with_values(seq.values - direct.values))
    assert gap <= sc.tolerances.composition * ke.state_norm(sc, phi)
    folded = phi
    for t, s in zip(plan.times, plan.durations):
        folded = ke.apply_semigroup(sc, t, s, folded)
    assert np.array_equal(seq.values, folded.values)


@hypothesis.settings(max_examples=25, derandomize=True)
@hypothesis.given(cases(), st.data())
def test_evolution_cocycle(case, data):
    sc, seed, *_ = case
    n, dt = sc.time_grid.n_time, sc.time_grid.step
    s, r, t = (i * dt for i in sorted(data.draw(
        st.lists(st.integers(0, n), min_size=3, max_size=3))))
    rng = np.random.default_rng(seed)
    phi = ke.StateVector(sc.age_grid, rng.uniform(-1.0, 1.0, (sc.age_grid.n_age + 1, sc.dim)))
    tol = 1e-6
    bound = tol * ke.state_norm(sc, phi)
    # every level's partition is fixed on [0, T], so each approximant is a
    # cocycle to rounding, time-dependent field or not
    for level in ke.allowed_partitions(sc):
        whole = ke.apply_approximant(sc, level, t, s, phi)
        split = ke.apply_approximant(sc, level, t, r, ke.apply_approximant(sc, level, r, s, phi))
        assert ke.state_norm(sc, whole.with_values(whole.values - split.values)) <= bound
    # the limit reaches the cocycle tolerance on these grids only when the
    # ladder stops at its first level; criterion 07 covers DIFF1
    if sc.operator.time_independent:
        assert ke.evolution_cocycle_residual(sc, s, r, t, phi, tol=tol) < tol


PRESETS = {name: ke.preset_scenario(name) for name in ("SCAL0", "MORT1", "QDIFF")}


@hypothesis.settings(max_examples=25, derandomize=True)
@hypothesis.given(st.sampled_from(sorted(PRESETS)), st.integers(0, 2**16), st.data())
def test_oracle_keeps_nonnegative_data_nonnegative(name, seed, data):
    sc = PRESETS[name]
    g = sc.age_grid
    steps = data.draw(st.integers(1, g.index_of(min(g.a_max, sc.time_grid.horizon))))
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, (g.n_age + 1, sc.dim))
    values *= rng.random(values.shape) < 0.7  # zero patches as well
    final = ke.solve_direct(sc, ke.StateVector(g, values), steps * g.step).final
    assert final.values.min() >= -1e-10


COUPLED = {name: ke.preset_scenario(name) for name in ("QDIFF", "DIFF1")}
# a family takes the field's matrix norms at every grid time when built, so
# each preset builds its own once
PROBLEMS = {name: ke.norm_coupled_diffusion(sc, 0.05, 1.0) for name, sc in COUPLED.items()}


@hypothesis.settings(max_examples=25, derandomize=True)
@hypothesis.given(st.sampled_from(sorted(COUPLED)), st.booleans(), st.integers(0, 2**16),
                  st.data())
def test_trajectory_field_obeys_its_declared_time_constant(name, constant, seed, data):
    sc = COUPLED[name]
    problem = PROBLEMS[name]
    center = problem.ball_center
    cells = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(seed)

    def in_ball():
        raw = rng.standard_normal(center.values.shape)
        scale = problem.ball_radius * rng.uniform(0.0, 1.0) / ke.state_norm(
            sc, center.with_values(raw))
        return center.with_values(center.values + scale * raw)

    states = [center if constant else in_ball() for _ in range(cells + 1)]
    times = tuple(j * sc.time_grid.step for j in range(cells + 1))
    field = _trajectory_field(sc, problem, times, states)
    # a constant iterate skips the ladder only when the family itself is
    # time-independent
    assert field.time_independent == (constant and sc.operator.time_independent)
    span = st.floats(0.0, 1.25 * times[-1])
    t1, t2 = data.draw(span), data.draw(span)
    nodes = sc.age_grid.nodes
    moved = field.sample(t1, nodes) - field.sample(t2, nodes)
    gap = max(ke.matrix_norm(m, sc.norm) for m in moved)
    assert gap <= field.lipschitz_t * abs(t1 - t2) * (1 + 1e-9)
