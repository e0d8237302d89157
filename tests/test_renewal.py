"""Birth trajectory marching against closed-form renewal solutions."""

import dataclasses

import numpy as np
import pytest

import kato_evolve as ke


def lotka_root(beta=2.0):
    """Bisection for the growth rate r with beta * (1 - e^-r) / r = 1."""
    lo, hi = 1.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if beta * (1.0 - np.exp(-mid)) / mid > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exponential_profile(scenario, rate):
    base = ke.make_profile(scenario, "ones")
    shape = np.exp(rate * scenario.age_grid.nodes)
    return base.with_values(np.repeat(shape[:, None], scenario.dim, axis=1))


def test_birth_starts_at_birth_integral(scal0):
    phi = ke.make_profile(scal0, "age_bump")
    traj = ke.solve_birth(scal0, 0.0, phi, 0.5)
    expected = ke.birth_quadrature(scal0, phi.values)
    assert np.allclose(traj.values[0], expected, atol=1e-14)


def test_birth_closed_form_exponential(scal0):
    # phi(a) = e^{-r a} with the growth root r makes both branches of the
    # renewal integrand the same smooth exponential, so B(s) = e^{r s}
    r = lotka_root()
    phi = exponential_profile(scal0, -r)
    traj = ke.solve_birth(scal0, 0.0, phi, 1.0)
    s = np.arange(traj.n_steps + 1) * traj.step
    err = np.max(np.abs(traj.values[:, 0] - np.exp(r * s)))
    assert err < 5e-4


def test_birth_exponential_refines_second_order(scal0):
    r = lotka_root()
    phi = exponential_profile(scal0, -r)
    traj = ke.solve_birth(scal0, 0.0, phi, 1.0)
    s = np.arange(traj.n_steps + 1) * traj.step
    coarse = np.max(np.abs(traj.values[:, 0] - np.exp(r * s)))

    fine_sc = ke.refine_scenario(scal0, 2)
    phi2 = exponential_profile(fine_sc, -r)
    traj2 = ke.solve_birth(fine_sc, 0.0, phi2, 1.0)
    s2 = np.arange(traj2.n_steps + 1) * traj2.step
    fine = np.max(np.abs(traj2.values[:, 0] - np.exp(r * s2)))
    assert 3.5 < coarse / fine < 4.5


def test_birth_seam_error_is_first_order_for_unbalanced_data(scal0):
    # ones is incompatible with the renewal boundary, so the kink at the
    # branch seam costs one order; B(s) = 1 + e^{2 s} in the continuum
    ones = ke.make_profile(scal0, "ones")
    traj = ke.solve_birth(scal0, 0.0, ones, 1.0)
    s = np.arange(traj.n_steps + 1) * traj.step
    coarse = np.max(np.abs(traj.values[:, 0] - (1.0 + np.exp(2.0 * s))))

    fine_sc = ke.refine_scenario(scal0, 2)
    ones2 = ke.make_profile(fine_sc, "ones")
    traj2 = ke.solve_birth(fine_sc, 0.0, ones2, 1.0)
    s2 = np.arange(traj2.n_steps + 1) * traj2.step
    fine = np.max(np.abs(traj2.values[:, 0] - (1.0 + np.exp(2.0 * s2))))
    assert coarse < 0.1
    assert 1.7 < coarse / fine < 2.3


def test_mort1_stationary_profile_keeps_flat_flux(mort1):
    stat = exponential_profile(mort1, -1.0)
    traj = ke.solve_birth(mort1, 0.0, stat, 1.0)
    assert np.max(np.abs(traj.values[:, 0] - 1.0)) < 5e-5


def test_birth_identity_residual_small(scal0, diff1):
    for sc in (scal0, diff1):
        phi = ke.make_profile(sc, "smooth_random", seed=1)
        h = sc.age_grid.step
        for k in (1, sc.age_grid.n_age // 2, sc.age_grid.n_age):
            assert ke.birth_identity_residual(sc, 0.0, phi, k * h) < 1e-8


def test_trajectory_cache_extends(scal0):
    phi = ke.make_profile(scal0, "age_bump")
    short = ke.solve_birth(scal0, 0.0, phi, 0.3)
    full = ke.solve_birth(scal0, 0.0, phi, 0.9)
    assert full.n_steps == 90
    assert np.allclose(full.values[: short.n_steps + 1], short.values, atol=1e-12)


def test_branch_values_match_the_chain_past_the_age_grid(diff1):
    sc = dataclasses.replace(diff1, caches={})
    phi = ke.make_profile(sc, "smooth_random", seed=4)
    n, h = sc.age_grid.n_age, sc.age_grid.step
    chain = ke.chain_matrices(sc, 0.3)
    for m in (n, n + 1, 2 * n):
        births = ke.solve_birth(sc, 0.3, phi, m * h).values
        expected = np.array([chain[i] @ births[m - i] for i in range(n + 1)])
        got = ke.branch_values(sc, 0.3, phi, m * h)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_extended_trajectory_equals_a_cold_march(diff1):
    phi = ke.make_profile(diff1, "smooth_random", seed=6)
    n, h = diff1.age_grid.n_age, diff1.age_grid.step
    cold = ke.solve_birth(dataclasses.replace(diff1, caches={}), 0.3, phi, (2 * n + 5) * h)
    for first in (n // 3, n + 3):
        sc = dataclasses.replace(diff1, caches={})
        ke.solve_birth(sc, 0.3, phi, first * h)
        warm = ke.solve_birth(sc, 0.3, phi, (2 * n + 5) * h)
        assert np.array_equal(warm.values, cold.values)


def test_solve_birth_validates_horizon(scal0):
    phi = ke.make_profile(scal0, "ones")
    with pytest.raises(ke.ValidationError):
        ke.solve_birth(scal0, 0.0, phi, -0.5)
    with pytest.raises(ke.ValidationError, match="cap"):
        ke.solve_birth(scal0, 0.0, phi, 1e9)
    with pytest.raises(ke.GridAlignmentError):
        ke.solve_birth(scal0, 0.0, phi, 0.0051)


def test_branch_values_identity_at_zero_span(scal0):
    phi = ke.make_profile(scal0, "age_bump")
    assert np.array_equal(ke.branch_values(scal0, 0.0, phi, 0.0), phi.values)


def test_singular_boundary_system_raises():
    # beta = 2 / h makes I - (h/2) b(0) exactly singular
    cfg = {
        "label": "sing",
        "dim": 1,
        "a_max": 1.0,
        "n_age": 100,
        "T": 1.0,
        "n_time": 100,
        "operator": {"kind": "zero"},
        "birth": {"kind": "constant", "beta": 200.0},
        "norm": "one",
    }
    sc = ke.build_scenario(cfg)
    phi = ke.make_profile(sc, "ones")
    with pytest.raises(ke.ValidationError, match="singular"):
        ke.solve_birth(sc, 0.0, phi, 0.1)


def test_birth_derivative_residual_first_order_in_grid(mort1):
    # the identity residual floors at the grid scale, so it halves under
    # grid refinement rather than under a smaller difference span
    psi = ke.enforce_birth_balance(mort1, ke.make_profile(mort1, "age_bump"))
    coarse = ke.birth_derivative_residual(mort1, 0.0, psi, 0.5)
    fine_sc = ke.refine_scenario(mort1, 2)
    psi2 = ke.enforce_birth_balance(fine_sc, ke.make_profile(fine_sc, "age_bump"))
    fine = ke.birth_derivative_residual(fine_sc, 0.0, psi2, 0.5)
    assert 1.7 < coarse / fine < 2.3


def test_birth_derivative_residual_validates_stencil(mort1):
    psi = ke.make_profile(mort1, "ones")
    with pytest.raises(ke.ValidationError):
        ke.birth_derivative_residual(mort1, 0.0, psi, 0.0)


@pytest.mark.parametrize("name", ["SCAL0", "DIFF1"])
def test_boundary_solve_matches_lu_solve(name):
    from scipy.linalg import lu_factor, lu_solve

    from kato_evolve.renewal import _boundary_solve

    sc = ke.preset_scenario(name)
    h = sc.age_grid.step
    mat = np.eye(sc.dim) - 0.5 * h * sc.birth_matrices()[0]
    rhs = np.random.default_rng(3).standard_normal(sc.dim)
    assert np.array_equal(_boundary_solve(sc, rhs), lu_solve(lu_factor(mat), rhs))
    assert "boundary_lu" in sc.caches
