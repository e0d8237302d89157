"""Birth trajectory marching against closed-form renewal solutions."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import kato_evolve as ke
from kato_evolve import renewal, verify
from kato_evolve.propagator import _frozen


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


def counted_marches(monkeypatch):
    """Step counts of every renewal march from here on, in call order."""
    calls = []
    march = renewal._march
    monkeypatch.setattr(renewal, "_march",
                        lambda sc, t, u, m: calls.append(m) or march(sc, t, u, m))
    return calls


def test_a_kept_trajectory_serves_every_shorter_span_without_marching(diff1, monkeypatch):
    sc = dataclasses.replace(diff1, caches={})
    phi = ke.make_profile(sc, "smooth_random", seed=2)
    n, h = sc.age_grid.n_age, sc.age_grid.step
    ke.solve_birth(sc, 0.3, phi, (n + 4) * h)
    calls = counted_marches(monkeypatch)
    for m in (0, 1, n // 3, n, n + 4):
        ke.solve_birth(sc, 0.3, phi, m * h)
        ke.branch_values(sc, 0.3, phi, m * h)
    assert calls == []


def test_a_longer_horizon_marches_once_from_cold_and_replaces_the_kept_one(diff1, monkeypatch):
    sc = dataclasses.replace(diff1, caches={})
    phi = ke.make_profile(sc, "smooth_random", seed=2)
    n, h = sc.age_grid.n_age, sc.age_grid.step
    ke.solve_birth(sc, 0.3, phi, (n // 3) * h)
    calls = counted_marches(monkeypatch)
    traj = ke.solve_birth(sc, 0.3, phi, (2 * n + 5) * h)
    assert calls == [2 * n + 5]
    kept = _frozen(sc, 0.3).trajectories
    assert len(kept) == 1 and kept[phi.values.tobytes()] is traj


def test_birth_identity_leg_slices_the_trajectory_its_shared_record_keeps(scal0, monkeypatch):
    calls = counted_marches(monkeypatch)
    leg = []
    residual = verify.birth_identity_residual

    def counted(*args):
        before = len(calls)
        out = residual(*args)
        leg.extend(calls[before:])
        return out

    monkeypatch.setattr(verify, "birth_identity_residual", counted)
    ke.run_verification(dataclasses.replace(scal0, caches={}), seed=0)
    # the semigroup-law leg marched the profile 851 steps at a random time;
    # the time-independent SCAL0 field shares that record with t = 0, so
    # every offset, the longest 833 steps (5/6 of the horizon), slices it
    assert leg == []


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


def coupled_kernel_scenario():
    """SCAL0's grid at d = 8 under a fixed non-diagonal nonnegative kernel."""
    mix = np.random.default_rng(8).uniform(0.0, 1.0, (8, 8))
    mix *= 2.0 / mix.sum(axis=1, keepdims=True)  # row sums 2, SCAL0's beta
    birth = ke.BirthKernel(8, lambda ages: np.broadcast_to(mix, (len(ages), 8, 8)).copy())
    return dataclasses.replace(ke.preset_scenario("SCAL0", dim=8), birth=birth, caches={})


def boundary_matrix(scenario):
    return np.eye(scenario.dim) - 0.5 * scenario.age_grid.step * scenario.birth_matrices()[0]


@pytest.mark.parametrize("name", ["SCAL0", "DIFF1", "MORT1", "QDIFF"])
def test_boundary_solve_matches_lu_solve(name):
    # within one ulp of every entry of an LU solve; 88% (DIFF1) to 99.6%
    # (MORT1) of right-hand sides agree bit for bit
    from scipy.linalg import lu_factor, lu_solve

    from kato_evolve.renewal import _boundary_solve

    sc = ke.preset_scenario(name)
    lu = lu_factor(boundary_matrix(sc))
    rng = np.random.default_rng(3)
    for _ in range(1000):
        rhs = rng.standard_normal(sc.dim)
        ref = lu_solve(lu, rhs)
        assert np.all(np.abs(_boundary_solve(sc, rhs) - ref) <= np.spacing(np.abs(ref)))


def exact_inverse(mat):
    """Inverse of a float matrix in rational arithmetic (Gauss-Jordan).

    Returned as integer rows and their common denominator.
    """
    n = len(mat)
    rows = [[Fraction(float(v)) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(mat)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            factor = rows[r][c]
            if r != c and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    denom = math.lcm(*(v.denominator for row in rows for v in row[n:]))
    return [[int(v * denom) for v in row[n:]] for row in rows], denom


@pytest.mark.parametrize("make", [lambda: ke.preset_scenario("SCAL0"), coupled_kernel_scenario],
                         ids=["SCAL0", "coupled-d8"])
def test_boundary_solve_is_near_the_exact_solution(make):
    # Error against the exact solution, in ulps of its largest entry.  The
    # rounding of rhs + K rhs costs 0.5 ulp and the rounding of K and K rhs
    # about |K| = 0.01 of an ulp per entry more.  Measured worst over these
    # right-hand sides: 0.504 on both (0.511 on SCAL0 over 20,000 more), so
    # 0.55 leaves a margin of 0.046.  An LU solve errs up to 0.500 on SCAL0
    # and 3.0 on the coupled kernel, where it is not a 1-ulp reference.
    from kato_evolve.renewal import _boundary_solve

    sc = make()
    inverse, denom = exact_inverse(boundary_matrix(sc))
    rng = np.random.default_rng(5)
    worst = Fraction(0)
    for _ in range(1000):
        rhs = rng.standard_normal(sc.dim)
        ratios = [float(v).as_integer_ratio() for v in rhs]
        scale = max(q for _, q in ratios)  # a power of two, like every q
        numers = [p * (scale // q) for p, q in ratios]
        exact = [Fraction(sum(m * n for m, n in zip(row, numers)), denom * scale)
                 for row in inverse]
        ulp = Fraction(float(np.spacing(float(max(map(abs, exact))))))
        got = _boundary_solve(sc, rhs)
        worst = max(worst, max(abs(Fraction(float(g)) - e) for g, e in zip(got, exact)) / ulp)
    assert float(worst) <= 0.55


def test_singular_boundary_system_without_zero_diagonal_raises():
    # b(0) = (1/h) [[1, 1], [1, 1]] makes I - (h/2) b(0) = [[.5, -.5], [-.5, .5]]
    sc = ke.preset_scenario("SCAL0", dim=2)
    b0 = np.ones((2, 2)) / sc.age_grid.step
    birth = ke.BirthKernel(2, lambda ages: np.broadcast_to(b0, (len(ages), 2, 2)).copy())
    sc = dataclasses.replace(sc, birth=birth, caches={})
    with pytest.raises(ke.ValidationError, match="singular"):
        ke.solve_birth(sc, 0.0, ke.make_profile(sc, "ones"), 0.1)
