"""Frozen-time semigroup and the age propagator under it."""

import numpy as np
import pytest

import kato_evolve as ke
from kato_evolve.propagator import propagate_indices


def build_transport(birth_kind="zero", operator=None):
    return ke.build_scenario(
        {
            "label": "transport",
            "dim": 1,
            "a_max": 1.0,
            "n_age": 100,
            "T": 1.0,
            "n_time": 100,
            "operator": operator or {"kind": "zero"},
            "birth": {"kind": birth_kind},
            "norm": "one",
        }
    )


def test_pure_transport_is_exact_shift():
    sc = build_transport()
    phi = ke.make_profile(sc, "age_bump")
    moved = ke.apply_semigroup(sc, 0.0, 0.25, phi)
    k = sc.age_grid.index_of(0.25, "span")
    expected = np.zeros_like(phi.values)
    expected[k:] = phi.values[: phi.values.shape[0] - k]
    assert np.max(np.abs(moved.values - expected)) == 0.0


def test_transport_with_decay_is_exact():
    sc = build_transport(operator={"kind": "scalar_mortality", "mu": 0.7})
    phi = ke.make_profile(sc, "age_bump")
    moved = ke.apply_semigroup(sc, 0.0, 0.25, phi)
    k = sc.age_grid.index_of(0.25, "span")
    expected = np.zeros_like(phi.values)
    expected[k:] = phi.values[: phi.values.shape[0] - k] * np.exp(-0.7 * 0.25)
    assert np.max(np.abs(moved.values - expected)) < 1e-14


def test_identity_at_zero_span(diff1):
    phi = ke.make_profile(diff1, "smooth_random", seed=2)
    same = ke.apply_semigroup(diff1, 0.25, 0.0, phi)
    assert np.array_equal(same.values, phi.values)


def test_stationary_profile_is_fixed_point(mort1):
    shape = np.exp(-mort1.age_grid.nodes)
    stat = ke.make_profile(mort1, "ones").with_values(shape[:, None])
    moved = ke.apply_semigroup(mort1, 0.0, 0.5, stat)
    gap = ke.state_norm(mort1, moved.with_values(moved.values - stat.values))
    assert gap < 1e-5


def test_semigroup_law_random_pairs(scal0, diff1):
    rng = np.random.default_rng(11)
    for sc in (scal0, diff1):
        phi = ke.make_profile(sc, "smooth_random", seed=5)
        bound = 1e-6 * ke.state_norm(sc, phi)
        h = sc.age_grid.step
        half = sc.age_grid.n_age // 2
        for _ in range(5):
            s1 = int(rng.integers(0, half + 1)) * h
            s2 = int(rng.integers(0, half + 1)) * h
            t = float(rng.uniform(0.0, sc.time_grid.horizon))
            assert ke.semigroup_property_residual(sc, t, s1, s2, phi) <= bound


def test_apply_semigroup_rejects_misaligned_span(scal0):
    phi = ke.make_profile(scal0, "ones")
    with pytest.raises(ke.GridAlignmentError):
        ke.apply_semigroup(scal0, 0.0, 0.0051, phi)


def test_strong_continuity_gap_shrinks_with_span(mort1):
    psi = ke.enforce_birth_balance(mort1, ke.make_profile(mort1, "age_bump"))
    h = mort1.age_grid.step
    g1 = ke.strong_continuity_gap(mort1, 0.0, h, psi)
    g4 = ke.strong_continuity_gap(mort1, 0.0, 4 * h, psi)
    g16 = ke.strong_continuity_gap(mort1, 0.0, 16 * h, psi)
    assert g1 < g4 < g16
    assert g1 < 0.06


def test_generator_residual_shrinks_with_span(mort1):
    psi = ke.enforce_birth_balance(mort1, ke.make_profile(mort1, "age_bump"))
    h = mort1.age_grid.step
    r1 = ke.generator_residual(mort1, 0.0, psi, h)
    r2 = ke.generator_residual(mort1, 0.0, psi, 2 * h)
    r4 = ke.generator_residual(mort1, 0.0, psi, 4 * h)
    assert r1 < r2 < r4


def test_admissibility_requires_balance(mort1):
    raw = ke.make_profile(mort1, "age_bump")
    with pytest.raises(ke.ValidationError, match="balance"):
        ke.admissibility_residual(mort1, 0.0, 0.5, raw)
    psi = ke.enforce_birth_balance(mort1, raw)
    assert ke.admissibility_residual(mort1, 0.0, 0.5, psi) < 0.02


def test_propagator_closed_form_decay(mort1):
    # cells 20 .. 69 carry ages 0.2 .. 0.7 at MORT1's step 0.01
    out = propagate_indices(mort1, 0.0, 20, 70, np.array([1.0]))
    assert out[0] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_propagator_cocycle_is_exact(mort1, diff1):
    # U_t(a, r) U_t(r, sigma) = U_t(a, sigma) bit for bit: the same step
    # maps are applied in the same order
    for sc, t, (sigma, r, a) in ((mort1, 0.0, (10, 30, 60)), (diff1, 0.3, (8, 16, 32))):
        v = np.linspace(0.2, 1.0, sc.dim)
        via = propagate_indices(sc, t, r, a, propagate_indices(sc, t, sigma, r, v))
        assert np.array_equal(propagate_indices(sc, t, sigma, a, v), via)


def test_propagate_identity_at_equal_ages(diff1):
    v = np.linspace(0.2, 1.0, diff1.dim)
    assert np.array_equal(propagate_indices(diff1, 0.3, 16, 16, v), v)


def test_chain_matrices_match_propagate_indices(diff1):
    v = np.linspace(0.2, 1.0, diff1.dim)
    chain = ke.chain_matrices(diff1, 0.3)
    for j in (1, 16, 32, diff1.age_grid.n_age):
        assert np.linalg.norm(chain[j] @ v - propagate_indices(diff1, 0.3, 0, j, v)) < 1e-12


def test_estimate_bounds_returns_finite_constants(diff1):
    consts = ke.estimate_bounds(diff1)
    assert consts.m0 >= 1.0
    assert consts.m1 >= 1.0
    for rate in (consts.omega0, consts.omega1):
        assert np.isfinite(rate)
