"""Doubling ladder of piecewise-frozen products and its acceptance logic."""

import dataclasses

import numpy as np
import pytest

import kato_evolve as ke
from kato_evolve import evolution, products
from kato_evolve.evolution import FLOOR_FACTOR
from kato_evolve.propagator import _FrozenTime


@pytest.fixture(scope="module")
def tilted(diff1):
    return ke.make_profile(diff1, "tilted")


def test_allowed_partitions(scal0, diff1):
    assert ke.allowed_partitions(diff1) == [1, 2, 4, 8, 16, 32, 64]
    # 1000 lattice steps admit only three doublings
    assert ke.allowed_partitions(scal0) == [1, 2, 4, 8]


def test_approximant_plan_by_hand(diff1):
    # span from lattice step 13 to 32 at n = 4: cell = 16 steps, so three
    # steps stay in the first cell (frozen at 0) and sixteen in the second
    h = diff1.age_grid.step
    plan = ke.approximant_plan(diff1, 4, 0.5, 13 * h)
    assert plan.times == (0.0, 0.25)
    assert plan.durations == (pytest.approx(3 * h), pytest.approx(0.25))


def test_time_independent_fast_path(scal0):
    phi = ke.make_profile(scal0, "age_bump")
    result = ke.apply_evolution(scal0, 3.0, 1.0, phi, tol=1e-6)
    assert result.n_used == 1
    assert result.cauchy_gap == 0.0
    direct = ke.apply_semigroup(scal0, 1.0, 2.0, phi)
    assert np.array_equal(result.value.values, direct.values)


def test_zero_profile_short_circuit(diff1):
    zero = ke.make_profile(diff1, "ones").with_values(
        np.zeros((diff1.age_grid.n_age + 1, diff1.dim))
    )
    result = ke.apply_evolution(diff1, 0.5, 0.0, zero, tol=1e-6)
    assert result.n_used == 1
    assert not np.any(result.value.values)


def test_tol_must_be_positive(scal0, diff1):
    # SCAL0's field is time independent, so its ladder would stop at one level
    for sc in (diff1, scal0):
        phi = ke.make_profile(sc, "tilted")
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ke.ValidationError, match="^tol must be finite and positive"):
                ke.apply_evolution(sc, 0.5, 0.0, phi, tol=tol)


def test_ladder_accepts_on_smooth_profile(diff1, tilted):
    result = ke.apply_evolution(diff1, 0.875, 0.0, tilted, tol=1e-5)
    assert result.n_used == 8
    assert result.cauchy_gap == pytest.approx(3.9449e-5, rel=1e-3)
    assert [n for n, _ in result.gaps] == [1, 2, 4]
    assert not result.extrapolated


def test_confirm_demands_consecutive_small_gaps(diff1, tilted):
    result = ke.apply_evolution(diff1, 0.875, 0.0, tilted, tol=1e-5, confirm=1)
    assert result.n_used == 16
    assert result.cauchy_gap == pytest.approx(2.0214e-5, rel=1e-3)


def test_extrapolated_value_is_labeled_and_reconstructible(diff1, tilted):
    plain = ke.apply_evolution(diff1, 0.875, 0.0, tilted, tol=1e-5)
    extra = ke.apply_evolution(diff1, 0.875, 0.0, tilted, tol=1e-5, extrapolate=True)
    assert extra.extrapolated
    assert extra.n_used == plain.n_used
    fine = ke.apply_approximant(diff1, plain.n_used, 0.875, 0.0, tilted)
    coarse = ke.apply_approximant(diff1, plain.n_used // 2, 0.875, 0.0, tilted)
    manual = 2.0 * fine.values - coarse.values
    assert np.array_equal(extra.value.values, manual)


def test_identical_plans_are_deduplicated(diff1, tilted):
    # the span sits inside one coarse cell for n = 1, 2, 4, so the first
    # distinct refinement jumps straight to n = 8
    h = diff1.age_grid.step
    result = ke.apply_evolution(diff1, 13 * h, 8 * h, tilted, tol=1e-3)
    assert result.n_used == 8
    assert [n for n, _ in result.gaps] == [1]


def _t48():
    """48 lattice steps: partition counts stop at 16."""
    return ke.build_scenario(
        {
            "label": "t48",
            "dim": 8,
            "a_max": 1.0,
            "n_age": 48,
            "T": 1.0,
            "n_time": 48,
            "operator": {
                "kind": "modulated_laplacian",
                "kappa0": 0.1,
                "time_amplitude": 0.5,
                "age_slope": 1.0,
            },
            "birth": {"kind": "constant", "beta": 0.5},
            "norm": "two",
        }
    )


def test_stabilized_plans_accept_terminally():
    # on a two step span the n = 8 and n = 16 plans coincide; the ladder
    # ends at the last distinct plan with a structurally zero gap
    sc = _t48()
    h = sc.age_grid.step
    phi = ke.make_profile(sc, "tilted")
    assert ke.approximant_plan(sc, 8, 8 * h, 6 * h) == ke.approximant_plan(
        sc, 16, 8 * h, 6 * h
    )
    result = ke.apply_evolution(sc, 8 * h, 6 * h, phi, tol=1e-13)
    assert result.n_used == 8
    assert result.cauchy_gap == 0.0
    assert [n for n, _ in result.gaps] == [1, 8]


def test_floor_gap_at_the_last_distinct_pair_returns_the_coarse_level():
    # the field's time variation does not touch a flat profile, so the
    # only distinct pair (1, 8) agrees to rounding and has no probe left
    sc = _t48()
    h = sc.age_grid.step
    phi = ke.make_profile(sc, "ones")
    result = ke.apply_evolution(sc, 8 * h, 6 * h, phi, tol=1e-13)
    assert result.n_used == 1
    assert [n for n, _ in result.gaps] == [1]
    floor = FLOOR_FACTOR * ke.state_norm(sc, phi)
    assert 0.0 < result.cauchy_gap == result.gaps[0][1] <= floor
    assert np.array_equal(result.value.values,
                          ke.apply_approximant(sc, 1, 8 * h, 6 * h, phi).values)


def test_plan_rejects_a_count_off_the_lattice(diff1):
    with pytest.raises(ke.GridAlignmentError,
                       match="compatible counts: 1, 2, 4, 8, 16, 32, 64"):
        ke.approximant_plan(diff1, 3, 0.5, 0.0)


@pytest.mark.parametrize("n", [0, -2, 2.0, 3])
def test_partition_count_must_divide_the_horizon(diff1, tilted, n):
    # unchecked, 0 would divide by zero, 2.0 would fail inside range(), and
    # -2 would march no cell and return phi unchanged
    builders = (ke.approximant_plan, lambda *args: ke.apply_approximant(*args, tilted))
    for build in builders:
        with pytest.raises(ke.GridAlignmentError, match=f"^partition count {n} does not split"):
            build(diff1, n, 0.5, 0.0)


def test_numpy_partition_counts_are_counts(diff1, tilted):
    n = np.int64(4)
    assert ke.approximant_plan(diff1, n, 0.5, 0.0) == ke.approximant_plan(diff1, 4, 0.5, 0.0)
    assert np.array_equal(ke.apply_approximant(diff1, n, 0.5, 0.0, tilted).values,
                          ke.apply_approximant(diff1, 4, 0.5, 0.0, tilted).values)


def _spans(base):
    """(i_s, i_t) lattice spans: whole horizon, empty, one step, 13 -> 32,
    and spans whose ends sit inside partition cells."""
    spans = [(0, base), (13, 13), (base // 2, base // 2), (13, 14), (13, 32),
             (1, base - 1), (base // 3, 2 * base // 3 + 1)]
    return [(a, b) for a, b in spans if b <= base]


@pytest.mark.parametrize("preset", ["DIFF1", "QDIFF", "SCAL0"])
def test_approximant_is_the_sequential_product_of_its_plan(preset, request):
    sc = request.getfixturevalue(preset.lower())
    phi = ke.make_profile(sc, "tilted")
    h = sc.age_grid.step
    base = sc.age_grid.index_of(sc.time_grid.horizon)
    for i_s, i_t in _spans(base):
        for n in ke.allowed_partitions(sc):
            t, s = i_t * h, i_s * h
            direct = ke.apply_approximant(sc, n, t, s, phi)
            planned = ke.apply_product_sequential(sc, ke.approximant_plan(sc, n, t, s), phi)
            assert np.array_equal(direct.values, planned.values), (i_s, i_t, n)
            assert not direct.values.flags.writeable


def test_ladder_builds_no_product_plan(diff1, tilted, monkeypatch):
    calls = []
    post_init = products.ProductPlan.__post_init__
    plan_steps = products._plan_steps
    monkeypatch.setattr(products.ProductPlan, "__post_init__",
                        lambda plan: calls.append("plan") or post_init(plan))
    monkeypatch.setattr(products, "_plan_steps",
                        lambda *args: calls.append("steps") or plan_steps(*args))
    ke.apply_evolution(diff1, 0.875, 0.0, tilted, tol=1e-5)
    ke.convergence_study(diff1, 0.875, 0.0, tilted)
    assert calls == []
    ke.apply_product_sequential(diff1, ke.approximant_plan(diff1, 2, 0.875, 0.0), tilted)
    assert calls == ["plan", "steps"]  # the counters see the plan path


def test_evolution_rejects_a_reversed_span(diff1, tilted):
    with pytest.raises(ke.ValidationError, match="need 0 <= s <= t <= horizon"):
        ke.apply_evolution(diff1, 0.25, 0.5, tilted)


def test_unreachable_tolerance_raises_with_history(diff1):
    rough = ke.make_profile(diff1, "smooth_random", seed=0)
    with pytest.raises(ke.ConvergenceError) as exc:
        ke.apply_evolution(diff1, 1.0, 0.0, rough, tol=1e-6)
    assert exc.value.history
    assert "partition counts" in str(exc.value)


def test_convergence_study_shape_and_rates(diff1, tilted, monkeypatch):
    built = []
    approximant = evolution.apply_approximant
    monkeypatch.setattr(evolution, "apply_approximant",
                        lambda sc, n, *args: built.append(n) or approximant(sc, n, *args))
    rows = ke.convergence_study(diff1, 0.875, 0.0, tilted)
    ns = [n for n, _, _ in rows]
    assert ns == [1, 2, 4, 8, 16, 32]
    assert built == [1, 2, 4, 8, 16, 32, 64]  # each ladder level built once
    first_rate = rows[0][2]
    assert first_rate is None or np.isnan(first_rate)
    # the first gap is rounding noise, so the row after it reports no rate
    assert rows[0][1] <= FLOOR_FACTOR * ke.state_norm(diff1, tilted)
    assert np.isnan(rows[1][2])
    assert all(np.isfinite(rate) for _, _, rate in rows[2:])
    # asymptotic rows sit at first order: raw gap ratios land near 2
    gaps = {n: gap for n, gap, _ in rows}
    for n in (4, 8, 16):
        assert 1.6 < gaps[n] / gaps[2 * n] < 2.4


def test_convergence_study_over_one_partition_cell_has_no_rows():
    sc = ke.build_scenario({"preset": "QDIFF", "T": 0.03125, "n_time": 1})
    phi = ke.make_profile(sc, "tilted")
    assert ke.allowed_partitions(sc) == [1]
    assert ke.convergence_study(sc, 0.03125, 0.0, phi) == []
    # no level is built, yet the span is still checked
    with pytest.raises(ke.ValidationError, match="need 0 <= s <= t <= horizon"):
        ke.convergence_study(sc, 0.0625, 0.0, phi)


def test_evolution_bound_margin_nonnegative(diff1, tilted):
    for t in (0.25, 0.5, 0.875):
        margin = ke.evolution_bound_margin(diff1, t, 0.0, tilted, tol=1e-4, slack=0.05)
        assert margin >= 0.0


def test_ladder_keeps_no_birth_trajectories_or_bound_constants(diff1, tilted):
    sc = dataclasses.replace(diff1, caches={})
    ke.apply_product_sequential(sc, ke.approximant_plan(sc, 4, 0.5, 0.0), tilted)
    ke.apply_evolution(sc, 0.5, 0.0, tilted, tol=1e-4)
    # the store holds frozen-time records only, none with a trajectory, and
    # no default constants
    assert sc.caches
    assert all(isinstance(v, _FrozenTime) and not v.trajectories for v in sc.caches.values())
    # nor did the ladder build the birth norms or the reference directions
    assert not {"base_norm", "graph_norm", "reference_directions"} & set(vars(sc._kernel))


def test_eta_constant_positive_and_deterministic(diff1):
    eta1 = ke.eta_constant(diff1)
    eta2 = ke.eta_constant(diff1)
    assert eta1 == eta2
    assert eta1 > 0.0


def test_cocycle_residual_on_split_span(diff1, tilted):
    residual = ke.evolution_cocycle_residual(diff1, 0.0, 0.5, 1.0, tilted, tol=1e-5)
    assert residual <= 3e-5 * ke.state_norm(diff1, tilted)


def test_cocycle_validates_ordering(diff1, tilted):
    with pytest.raises(ke.ValidationError):
        ke.evolution_cocycle_residual(diff1, 0.5, 0.25, 1.0, tilted, tol=1e-3)


def test_derivative_residuals_shrink_under_halving():
    sc = ke.preset_scenario("MORT1", n_age=80, n_time=160)
    psi = ke.enforce_birth_balance(sc, ke.make_profile(sc, "age_bump"))
    right = [ke.right_derivative_residual(sc, 0.5, psi, w) for w in (0.1, 0.05, 0.025)]
    assert right[0] > right[1] > right[2]
    mixed = [
        ke.s_derivative_residual(sc, 1.5, 0.5, psi, w) for w in (0.1, 0.05, 0.025)
    ]
    assert mixed[0] > mixed[1] > mixed[2]
