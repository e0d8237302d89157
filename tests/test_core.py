"""Grids, scenario configuration, profiles, norms, and operator plumbing."""

import dataclasses
import math
import re

import numpy as np
import pytest

import kato_evolve as ke


def test_age_grid_basics():
    g = ke.AgeGrid(1.0, 100)
    assert g.step == pytest.approx(0.01)
    assert g.nodes.shape == (101,)
    assert g.index_of(0.25, "span") == 25
    assert g.index_of(0.0, "span") == 0


def test_age_grid_rejects_misaligned_values():
    g = ke.AgeGrid(1.0, 100)
    with pytest.raises(ke.GridAlignmentError):
        g.index_of(0.007, "span")
    with pytest.raises(ke.GridAlignmentError):
        g.index_of(-0.01, "span")


def test_time_grid_basics():
    tg = ke.TimeGrid(10.0, 1000)
    assert tg.horizon == 10.0
    assert tg.n_time == 1000
    assert tg.step == pytest.approx(0.01)


def test_preset_names_build():
    for name in ke.PRESET_NAMES:
        sc = ke.preset_scenario(name)
        assert sc.label == name
        assert sc.dim >= 1


def test_preset_override():
    sc = ke.preset_scenario("SCAL0", n_time=500)
    assert sc.time_grid.n_time == 500
    assert sc.age_grid.n_age == 100


def test_build_scenario_rejects_unknown_keys():
    with pytest.raises(ke.ConfigError):
        ke.build_scenario({"preset": "SCAL0", "bogus": 1})


@pytest.mark.parametrize(
    "override, key",
    [
        ({"integrator_order": 2}, "integrator_order"),
        ({"tolerances": {"cocycle": 1e-6}}, "cocycle"),
    ],
)
def test_build_scenario_rejects_removed_settings(override, key):
    with pytest.raises(ke.ConfigError, match=key):
        ke.preset_scenario("SCAL0", **override)


def test_build_scenario_missing_field():
    with pytest.raises(ke.ConfigError, match="missing scenario field"):
        ke.build_scenario({"dim": 1})


@pytest.mark.parametrize(
    "override, field, problem",
    [
        ({"a_max": float("inf")}, "a_max", "finite"),
        ({"tolerances": {"volterra": float("nan")}}, "tolerances.volterra", "finite"),
        ({"operator": {"kind": "scalar_mortality", "mu": float("-inf")}}, "operator.mu",
         "finite"),
        ({"reference_operator": [[float("nan")]]}, "reference_operator.0.0", "finite"),
        ({"operator": "zero"}, "operator", "mapping"),
        ({"birth": None}, "birth", "mapping"),
        ({"tolerances": "abc"}, "tolerances", "mapping"),
        ({"operator": {"kind": "scalar_mortality", "mu": "x"}}, "operator.mu", "number"),
        ({"tolerances": {"volterra": "1e-3"}}, "tolerances.volterra", "number"),
        ({"reference_operator": [["a"]]}, "reference_operator.0.0", "number"),
        ({"T": "x"}, "T", "number"),
        ({"dim": 1.5}, "dim", "whole"),
        ({"dim": -1}, "dim", "whole"),
        ({"operator": {"kind": [1]}}, "operator.kind", "one"),
        ({"label": {"a": 1}}, "label", "string"),
    ],
)
def test_build_scenario_rejects_malformed_fields(override, field, problem):
    with pytest.raises(ke.ConfigError, match=f"{field} must be .*{problem}"):
        ke.preset_scenario("SCAL0", **override)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_tolerances_reject_non_finite_and_non_positive_values(bad):
    with pytest.raises(ke.ValidationError, match="tolerance membership must be finite"):
        ke.Tolerances(membership=bad)


@pytest.mark.parametrize(
    "field, value",
    [
        ("reference_operator", [[math.nan]]),
        ("reference_operator", [[math.inf]]),
    ],
)
def test_scenario_rejects_non_finite_fields(scal0, field, value):
    with pytest.raises(ke.ValidationError, match=f"{field} must be finite"):
        dataclasses.replace(scal0, caches={}, **{field: value})


def test_scenario_rejects_a_time_step_below_one_age_step():
    # the step aligns to age node 0, which leaves the horizon no age step
    with pytest.raises(ke.ValidationError,
                       match="^time grid step 1e-10 is shorter than one age step 0.01$"):
        ke.build_scenario({"preset": "SCAL0", "T": 1e-10, "n_time": 1})


def test_scenario_rejects_a_horizon_off_the_age_lattice():
    # the step 0.0100000005 aligns to the age step within tolerance, the
    # horizon of 1,000 such steps does not
    with pytest.raises(ke.GridAlignmentError,
                       match=r"^time horizon = 10\.0000005 is not aligned to the grid step "
                             r"0\.01; nearest node is 10\.0$"):
        ke.build_scenario({"preset": "SCAL0", "T": 10.0000005, "n_time": 1000})


def test_scenario_rejects_a_field_of_another_dimension(qdiff):
    zeros = lambda ages: np.zeros((len(ages), 3, 3))
    parts = {"operator": ke.OperatorField(3, lambda t, ages: zeros(ages)),
             "birth": ke.BirthKernel(3, zeros)}
    for field, part in parts.items():
        with pytest.raises(ke.ValidationError, match=f"^{field} dim 3 differs from scenario dim 16$"):
            dataclasses.replace(qdiff, caches={}, **{field: part})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_operator_field_rejects_a_bad_time_constant(bad):
    with pytest.raises(ke.ValidationError, match="lipschitz_t"):
        ke.OperatorField(1, lambda t, ages: np.zeros((len(ages), 1, 1)), lipschitz_t=bad)


def test_overflowing_time_constant_names_its_parameters():
    config = {"preset": "DIFF1", "operator": {
        "kind": "modulated_laplacian", "kappa0": 1e306, "time_amplitude": 1e10}}
    with pytest.raises(ke.ValidationError,
                       match=r"kappa0 = 1e\+306, time_amplitude = 10000000000\.0"):
        ke.build_scenario(config)


def test_sampled_fields_reject_non_finite_values():
    op = ke.OperatorField(2, lambda t, ages: np.full((len(ages), 2, 2), np.nan))
    with pytest.raises(ke.ValidationError, match="not finite"):
        op(0.0, 0.5)
    birth = ke.BirthKernel(1, lambda ages: np.full((len(ages), 1, 1), np.inf))
    with pytest.raises(ke.ValidationError, match="not finite"):
        birth(0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_vector_rejects_non_finite_values(scal0, bad):
    values = np.ones((scal0.age_grid.n_age + 1, 1))
    values[7] = bad
    with pytest.raises(ke.ValidationError, match="finite"):
        ke.StateVector(scal0.age_grid, values)


def test_replaced_scenario_does_not_read_its_source_cache(scal0, mort1):
    # a non-diagonal kernel, so that the norm and the reference operator
    # change the birth norms
    mix = np.random.default_rng(8).uniform(0.0, 1.0, (4, 4))
    mixed = ke.BirthKernel(4, lambda ages: np.broadcast_to(mix, (len(ages), 4, 4)).copy())
    small = ke.preset_scenario("DIFF1", dim=4)
    cases = [(scal0, {"operator": mort1.operator}), (small, {"birth": mixed}),
             (dataclasses.replace(small, birth=mixed), {"norm": "one"}),
             (dataclasses.replace(small, birth=mixed), {"reference_operator": np.eye(4)})]
    for source, change in cases:
        phi = ke.make_profile(source, "tilted")

        def observed(sc):
            norms = [sc.birth_norm(0), sc.birth_norm(1)]
            return norms, ke.apply_semigroup(sc, 0.0, 0.5, phi).values

        warm_norms, warm_march = observed(source)
        replaced = dataclasses.replace(source, **change)
        norms, march = observed(replaced)
        cold_norms, cold_march = observed(dataclasses.replace(replaced, caches={}))
        assert norms == cold_norms and np.array_equal(march, cold_march)
        assert norms != warm_norms or not np.array_equal(march, warm_march)
    carried = scal0._with_operator(mort1.operator)
    assert carried._kernel is scal0._kernel
    assert not carried.caches  # no frozen-time record crosses an operator swap


def test_graph_norms_decompose_the_reference_operator_once(diff1, monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    sc = dataclasses.replace(diff1, caches={})
    sc.birth_norm(1)
    ke.default_constants(sc)
    ke.estimate_bounds(sc._with_operator(sc.operator))
    assert len(calls) == 1


def test_build_scenario_bad_operator_kind():
    cfg = {
        "dim": 1,
        "a_max": 1.0,
        "n_age": 10,
        "T": 1.0,
        "n_time": 10,
        "operator": {"kind": "nope"},
        "birth": {"kind": "zero"},
    }
    with pytest.raises(ke.ConfigError, match="operator.kind"):
        ke.build_scenario(cfg)


def test_build_scenario_rejects_stray_operator_fields():
    cfg = {
        "dim": 1,
        "a_max": 1.0,
        "n_age": 10,
        "T": 1.0,
        "n_time": 10,
        "operator": {"kind": "zero", "rate": 3},
        "birth": {"kind": "zero"},
    }
    with pytest.raises(ke.ConfigError, match="unknown operator field"):
        ke.build_scenario(cfg)


def test_unknown_preset():
    with pytest.raises(ke.ConfigError):
        ke.preset_scenario("NOPE")


def test_profiles_shapes_and_names(scal0):
    for name in ke.PROFILE_NAMES:
        phi = ke.make_profile(scal0, name)
        assert phi.values.shape == (101, 1)
    with pytest.raises(ke.ConfigError):
        ke.make_profile(scal0, "unknown")


def test_profile_values(scal0):
    ones = ke.make_profile(scal0, "ones")
    assert np.all(ones.values == 1.0)
    lin = ke.make_profile(scal0, "linear")
    assert np.allclose(lin.values[:, 0], scal0.age_grid.nodes)
    tilt = ke.make_profile(scal0, "tilted")
    expected = 1.0 + 0.005 * np.sin(np.pi * scal0.age_grid.nodes)
    assert np.allclose(tilt.values[:, 0], expected)


def test_smooth_random_is_seeded(diff1):
    a = ke.make_profile(diff1, "smooth_random", seed=3)
    b = ke.make_profile(diff1, "smooth_random", seed=3)
    c = ke.make_profile(diff1, "smooth_random", seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_state_norm_closed_forms(scal0, qdiff):
    # trapezoid of 1 over [0, 1] is exactly 1; of a it is exactly 1/2
    ones = ke.make_profile(scal0, "ones")
    assert ke.state_norm(scal0, ones) == pytest.approx(1.0, abs=1e-14)
    lin = ke.make_profile(scal0, "linear")
    assert ke.state_norm(scal0, lin) == pytest.approx(0.5, abs=1e-14)
    oq = ke.make_profile(qdiff, "ones")
    assert ke.state_norm(qdiff, oq) == pytest.approx(4.0, abs=1e-12)


def test_lp_age_norm_on_constant(qdiff):
    oq = ke.make_profile(qdiff, "ones")
    assert ke.lp_age_norm(qdiff, oq, 1.0) == pytest.approx(4.0, abs=1e-12)
    assert ke.lp_age_norm(qdiff, oq, 2.0) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
def test_lp_age_norm_rejects_a_non_finite_or_small_exponent(qdiff, p):
    phi = ke.make_profile(qdiff, "tilted")
    with pytest.raises(ke.ValidationError, match="p must be finite and >= 1"):
        ke.lp_age_norm(qdiff, phi, p)


@pytest.mark.parametrize("tag", ["one", "two", "max"])
def test_whole_grid_norms_match_nodewise_loops(qdiff, tag):
    sc = dataclasses.replace(qdiff, norm=tag, caches={})
    phi = ke.make_profile(sc, "smooth_random", seed=4)
    g, ref = sc.age_grid, sc.reference_operator
    base = np.array([np.linalg.norm(v, {"one": 1, "two": 2, "max": np.inf}[tag])
                     for v in phi.values])
    graph = base + np.array([np.linalg.norm(ref @ v, {"one": 1, "two": 2, "max": np.inf}[tag])
                             for v in phi.values])
    rtol = 64 * np.finfo(float).eps
    assert ke.state_norm(sc, phi) == pytest.approx(g.step * g.weights @ base, rel=rtol)
    assert ke.graph_state_norm(sc, phi) == pytest.approx(g.step * g.weights @ graph, rel=rtol)
    for p in (1.0, 3.0):
        expected = (g.step * g.weights @ base**p) ** (1.0 / p)
        assert ke.lp_age_norm(sc, phi, p) == pytest.approx(expected, rel=rtol)
    bmats = sc.birth_matrices()
    loop = g.step * sum(w * (b @ v) for w, b, v in zip(g.weights, bmats, phi.values))
    assert np.allclose(ke.birth_quadrature(sc, phi.values), loop, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("dim", [1, 16, 32])
@pytest.mark.parametrize(
    "birth", [{"kind": "constant", "beta": 0.5}, {"kind": "hat", "beta": 2.0}]
)
def test_birth_quadrature_matches_nodewise_sum(dim, birth):
    sc = ke.preset_scenario("DIFF1", dim=dim, birth=birth)
    g = sc.age_grid
    mats = sc.birth_matrices()
    assert mats.shape == (g.n_age + 1, dim, dim)
    assert not mats.flags.writeable
    assert np.array_equal(mats, sc.birth.sample(g.nodes))
    values = ke.make_profile(sc, "smooth_random", seed=2).values
    strided = np.stack([values, -values], axis=2)[:, :, 0]  # as the oracle passes it
    assert not strided.flags.c_contiguous
    expected = g.step * sum(w * (b @ v) for w, b, v in zip(g.weights, mats, values))
    for vals in (values, strided):
        got = ke.birth_quadrature(sc, vals)
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def _one_column(scenario):
    return ke.StateVector(scenario.age_grid, np.ones((scenario.age_grid.n_age + 1, 1)))


_WRONG_SHAPES = {
    "other grid": lambda scal0, diff1: (ke.refine_scenario(scal0, 2),
                                        ke.make_profile(scal0, "ones")),
    "other dim": lambda scal0, diff1: (diff1, _one_column(diff1)),
}
_PROFILE_CALLS = {
    "apply_semigroup": lambda sc, phi: ke.apply_semigroup(sc, 0.0, 0.25, phi),
    "solve_birth": lambda sc, phi: ke.solve_birth(sc, 0.0, phi, 0.25),
    "apply_evolution": lambda sc, phi: ke.apply_evolution(sc, 0.5, 0.0, phi),
    "solve_direct": lambda sc, phi: ke.solve_direct(sc, phi, 0.25),
    "enforce_birth_balance": ke.enforce_birth_balance,
}


@pytest.mark.parametrize("call", _PROFILE_CALLS)
@pytest.mark.parametrize("case", _WRONG_SHAPES)
def test_wrong_shaped_profiles_are_rejected(scal0, diff1, case, call):
    sc, phi = _WRONG_SHAPES[case](scal0, diff1)
    expected = (sc.age_grid.n_age + 1, sc.dim)
    with pytest.raises(ke.ValidationError, match=re.escape(f"{phi.values.shape}")) as info:
        _PROFILE_CALLS[call](sc, phi)
    assert str(expected) in str(info.value)


def test_spatial_and_matrix_norms():
    assert ke.spatial_norm(np.array([3.0, 4.0]), "two") == pytest.approx(5.0)
    assert ke.matrix_norm(np.eye(3), "two") == pytest.approx(1.0)
    assert ke.matrix_norm(np.eye(3), "one") == pytest.approx(1.0)


def test_neumann_laplacian_structure():
    L = ke.neumann_laplacian(4)
    assert np.allclose(L, L.T)
    assert np.allclose(L.sum(axis=1), 0.0)
    assert np.array_equal(ke.neumann_laplacian(1), np.zeros((1, 1)))


def test_laplacian_kills_constants():
    L = ke.neumann_laplacian(8)
    assert np.allclose(L @ np.ones(8), 0.0)


def test_age_derivatives_on_linear(scal0):
    lin = ke.make_profile(scal0, "linear")
    up = ke.upwind_derivative(lin)
    assert np.allclose(up.values, 1.0, atol=1e-12)


def test_birth_balance_enforcement(scal0):
    phi = ke.make_profile(scal0, "age_bump")
    ok, _ = ke.check_birth_balance(scal0, phi)
    assert not ok
    fixed = ke.enforce_birth_balance(scal0, phi)
    ok, res = ke.check_birth_balance(scal0, fixed)
    assert ok
    assert res <= scal0.tolerances.membership
    again = ke.enforce_birth_balance(scal0, fixed)
    assert np.allclose(again.values, fixed.values, atol=1e-12)


def test_graph_norm_dominates_state_norm(scal0, diff1):
    for sc in (scal0, diff1):
        phi = ke.make_profile(sc, "tilted")
        assert ke.graph_state_norm(sc, phi) >= ke.state_norm(sc, phi)


def test_graph_norm_of_ones(scal0):
    ones = ke.make_profile(scal0, "ones")
    assert ke.graph_state_norm(scal0, ones) == pytest.approx(2.0, abs=1e-12)


def test_with_values_keeps_grid(scal0):
    phi = ke.make_profile(scal0, "ones")
    psi = phi.with_values(2.0 * phi.values)
    assert psi.grid == phi.grid
    assert np.all(psi.values == 2.0)


def test_refine_scenario(scal0):
    fine = ke.refine_scenario(scal0, 2)
    assert fine.age_grid.n_age == 200
    assert fine.time_grid.n_time == 2000
    assert fine.time_grid.horizon == scal0.time_grid.horizon
    assert fine.label == scal0.label
    with pytest.raises(ke.ValidationError):
        ke.refine_scenario(scal0, 0)


def test_operator_time_independent_flag(scal0, diff1):
    assert scal0.operator.time_independent
    assert not diff1.operator.time_independent


def test_tolerances_defaults(scal0):
    t = scal0.tolerances
    assert t.volterra == 1e-8
    assert t.semigroup == 1e-6
    assert t.membership == 1e-8


def _with_bad_age(field, bad, value):
    """The operator field, returning ``value`` instead at the age ``bad``."""
    return dataclasses.replace(
        field,
        evaluate=lambda t, ages: np.where(
            (ages == bad)[:, None, None], value, field.evaluate(t, ages)
        ),
    )


def test_sample_matches_stacked_calls(diff1):
    h = diff1.age_grid.step
    mids = (np.arange(diff1.age_grid.n_age) + 0.5) * h
    op = diff1.operator
    assert np.array_equal(op.sample(0.3, mids), np.stack([op(0.3, a) for a in mids]))
    # the presets' whole-grid formulas against their per-age scalar arithmetic
    lap = ke.neumann_laplacian(diff1.dim)
    kappa = [0.1 * (1.0 + 0.5 * math.sin(2.0 * math.pi * 0.3)) * (1.0 + 1.0 * a / 1.0)
             for a in mids.tolist()]
    assert np.array_equal(op.sample(0.3, mids), np.stack([k * lap for k in kappa]))
    hat = ke.preset_scenario("DIFF1", birth={"kind": "hat", "beta": 2.0}).birth
    nodes = diff1.age_grid.nodes
    assert np.array_equal(hat.sample(nodes), np.stack([hat(a) for a in nodes]))
    eye = np.eye(diff1.dim)
    heights = [max(0.0, 1.0 - abs(a - 0.5) / 0.5) for a in nodes.tolist()]
    assert np.array_equal(hat.sample(nodes), np.stack([2.0 * x * eye for x in heights]))


def test_sample_rejects_one_bad_age(scal0):
    nodes = scal0.age_grid.nodes
    bad = float(nodes[7])
    op = _with_bad_age(scal0.operator, bad, np.full((1, 1), np.nan))
    named = re.escape(f"a={bad!r}")
    with pytest.raises(ke.ValidationError, match=f"not finite at t=0.25, {named}"):
        op.sample(0.25, nodes)
    with pytest.raises(ke.ValidationError, match=named):
        op(0.25, bad)
    assert op.sample(0.25, nodes[:7]).shape == (7, 1, 1)
    wrong = _with_bad_age(scal0.operator, bad, np.zeros((2, 2)))
    with pytest.raises(ke.ValidationError, match="returned shape"):
        wrong.sample(0.25, nodes)


def test_solvers_reject_a_field_non_finite_at_one_age(scal0):
    phi = ke.make_profile(scal0, "ones")
    mid = 3.5 * scal0.age_grid.step
    sc = dataclasses.replace(
        scal0, operator=_with_bad_age(scal0.operator, mid, np.full((1, 1), np.nan)), caches={}
    )
    with pytest.raises(ke.ValidationError, match=re.escape(f"a={mid!r}")):
        ke.apply_semigroup(sc, 0.0, 0.5, phi)
    node = float(scal0.age_grid.nodes[5])
    sc = dataclasses.replace(
        scal0, operator=_with_bad_age(scal0.operator, node, np.full((1, 1), np.inf)), caches={}
    )
    with pytest.raises(ke.ValidationError, match=re.escape(f"a={node!r}")):
        ke.solve_direct(sc, phi, 0.1)


@pytest.mark.parametrize("name", ["DIFF1", "QDIFF"])
def test_apply_generator_matches_nodewise_loop(name):
    sc = ke.preset_scenario(name)
    phi = ke.make_profile(sc, "age_bump")
    deriv = ke.upwind_derivative(phi).values
    loop = np.stack([
        sc.operator(0.3, a) @ phi.values[i] - deriv[i]
        for i, a in enumerate(sc.age_grid.nodes)
    ])
    assert np.array_equal(ke.apply_generator(sc, 0.3, phi).values, loop)


@pytest.mark.parametrize(
    "birth", [{"kind": "constant", "beta": 0.5}, {"kind": "hat", "beta": 2.0}]
)
def test_birth_norm_matches_nodewise_max(birth, monkeypatch):
    from kato_evolve import core

    sc = ke.preset_scenario("DIFF1", birth=birth)
    mats = sc.birth_matrices()
    base = max(ke.matrix_norm(m, sc.norm) for m in mats)
    graph = max(core.graph_to_graph_norm(sc._kernel, m) for m in mats)
    calls = []
    real = core.graph_to_graph_norm
    monkeypatch.setattr(core, "graph_to_graph_norm", lambda s, m: calls.append(1) or real(s, m))
    assert sc.birth_norm(0) == base
    assert sc.birth_norm(1) == graph
    if birth["kind"] == "constant":
        assert len(calls) == 1


def test_age_grid_arrays_are_built_once():
    g = ke.AgeGrid(1.0, 8)
    assert g.nodes is g.nodes and g.weights is g.weights
    assert not g.nodes.flags.writeable and not g.weights.flags.writeable
    assert g == ke.AgeGrid(1.0, 8) and hash(g) == hash(ke.AgeGrid(1.0, 8))


@pytest.mark.parametrize("tag", ["one", "two", "max"])
def test_stacked_matrix_norms_match_per_matrix_loop(diff1, tag):
    from kato_evolve.core import _matrix_norms

    per_matrix = {
        "one": lambda m: np.max(np.sum(np.abs(m), axis=0)),
        "two": lambda m: np.linalg.norm(m, 2),
        "max": lambda m: np.max(np.sum(np.abs(m), axis=1)),
    }[tag]
    stacks = [diff1.operator.sample(0.3, diff1.age_grid.nodes), diff1.birth_matrices(),
              np.random.default_rng(7).standard_normal((3, 5, diff1.dim, diff1.dim))]
    for stack in stacks:
        mats = stack.reshape(-1, diff1.dim, diff1.dim)
        loop = np.array([per_matrix(m) for m in mats])
        assert np.array_equal(_matrix_norms(stack, tag).ravel(), loop)
        assert [ke.matrix_norm(m, tag) for m in mats] == loop.tolist()
