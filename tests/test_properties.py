"""Randomized small scenarios against the frozen-time semigroup invariants."""

import numpy as np
import pytest

import kato_evolve as ke

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
        "integrator_order": draw(st.sampled_from([1, 2])),
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
