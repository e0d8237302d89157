"""Time-ordered semigroup products and their stability margins."""

import dataclasses
import math

import numpy as np
import pytest

import kato_evolve as ke


def random_plan(scenario, rng, n_max=5):
    g = scenario.age_grid
    n = int(rng.integers(1, n_max + 1))
    times = np.sort(rng.uniform(0.0, scenario.time_grid.horizon, size=n))
    durations = rng.integers(0, g.n_age // 2 + 1, size=n) * g.step
    return ke.ProductPlan(
        tuple(float(t) for t in times), tuple(float(s) for s in durations)
    )


def test_parse_plan_round_trip():
    plan = ke.parse_plan("0:0.1,0.5:0.25")
    assert plan.times == (0.0, 0.5)
    assert plan.durations == (0.1, 0.25)


@pytest.mark.parametrize("text", ["", "abc", "0:0.1:9", "0.5", "0:-0.1"])
def test_parse_plan_rejects_garbage(text):
    with pytest.raises(ke.ValidationError):
        ke.parse_plan(text)


def test_product_plan_rejects_negative_duration():
    with pytest.raises(ke.ValidationError):
        ke.ProductPlan((0.0,), (-0.5,))


def test_plan_equality_for_identical_content():
    a = ke.ProductPlan((0.0, 0.5), (0.1, 0.25))
    b = ke.ProductPlan((0.0, 0.5), (0.1, 0.25))
    assert a == b


def test_direct_matches_sequential(scal0, diff1):
    rng = np.random.default_rng(7)
    for sc in (scal0, diff1):
        phi = ke.make_profile(sc, "smooth_random", seed=9)
        bound = 1e-8 * ke.state_norm(sc, phi)
        for _ in range(5):
            plan = random_plan(sc, rng)
            direct = ke.apply_product_direct(sc, plan, phi)
            seq = ke.apply_product_sequential(sc, plan, phi)
            gap = ke.state_norm(sc, direct.with_values(direct.values - seq.values))
            assert gap <= bound


def test_empty_duration_factors_are_identity(scal0):
    phi = ke.make_profile(scal0, "age_bump")
    plan = ke.ProductPlan((0.0, 5.0), (0.0, 0.0))
    out = ke.apply_product_direct(scal0, plan, phi)
    assert np.array_equal(out.values, phi.values)


def test_stability_margins_nonnegative(diff1):
    rng = np.random.default_rng(13)
    phi = ke.make_profile(diff1, "smooth_random", seed=13)
    for _ in range(8):
        plan = random_plan(diff1, rng)
        assert ke.stability_margin(diff1, plan, phi, slack=0.05) >= 0.0
        assert ke.birth_chain_margin(diff1, plan, phi, slack=0.05) >= 0.0
        assert ke.lp_stability_margin(diff1, plan, phi, 2.0, slack=0.05) >= 0.0


@pytest.mark.parametrize("p", [math.inf, math.nan, 1.0])
def test_lp_margin_rejects_a_non_finite_or_small_exponent(qdiff, p):
    phi = ke.make_profile(qdiff, "tilted")
    with pytest.raises(ke.ValidationError, match="p must be finite and exceed 1"):
        ke.lp_stability_margin(qdiff, ke.ProductPlan((0.0,), (0.25,)), phi, p)


def test_estimate_bounds_is_seeded(diff1):
    a = ke.estimate_bounds(diff1)
    b = ke.estimate_bounds(dataclasses.replace(diff1, caches={}))
    assert a == b
