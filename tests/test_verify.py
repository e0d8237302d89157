"""Deterministic invariant battery."""

import math

import pytest

import kato_evolve as ke
from kato_evolve import verify

BATTERY_NAMES = [
    "birth_balance_enforcement",
    "semigroup_law",
    "birth_identity",
    "product_equivalence",
    "transport_bound_margin",
    "birth_chain_margin",
    "lp_bound_margin",
    "evolution_ladder",
    "cocycle_residual",
    "evolution_bound_margin",
    "forced_bound_margin",
    "oracle_agreement",
    "oracle_positivity",
    "quasilinear_fixed_point",
    "lipschitz_spot_check",
]


def test_full_battery_on_short_grid(qdiff):
    report = ke.run_verification(qdiff, seed=0)
    assert [c.name for c in report.checks] == BATTERY_NAMES
    assert all(c.status == "pass" for c in report.checks)
    assert report.failures == 0
    assert report.label == "QDIFF"
    assert report.seed == 0


def test_one_step_horizon_skips_only_the_forced_check():
    sc = ke.build_scenario({"preset": "QDIFF", "T": 0.03125, "n_time": 1})
    report = ke.run_verification(sc, seed=0)
    assert [c.name for c in report.checks] == BATTERY_NAMES
    by_name = {c.name: c for c in report.checks}
    forced = by_name.pop("forced_bound_margin")
    assert (forced.status, forced.detail) == ("skip", "horizon too short")
    assert math.isnan(forced.margin)
    assert [c.name for c in by_name.values() if c.status != "pass"] == []
    assert report.failures == 0


@pytest.mark.parametrize(("name", "n"), [("SCAL0", 7), ("SCAL0", 9), ("MORT1", 15), ("DIFF1", 45)])
def test_lattices_without_a_half_node_get_a_whole_report(name, n):
    # neither a_max / 2 nor the horizon's half is a node of these grids
    sc = ke.build_scenario({"preset": name, "n_age": n, "n_time": n})
    report = ke.run_verification(sc, seed=0)
    assert [c.name for c in report.checks] == BATTERY_NAMES


def test_long_grids_skip_the_picard_checks(mort1):
    report = ke.run_verification(mort1, seed=0)
    by_name = {c.name: c for c in report.checks}
    assert by_name["quasilinear_fixed_point"].status == "skip"
    assert by_name["lipschitz_spot_check"].status == "skip"
    assert math.isnan(by_name["lipschitz_spot_check"].margin)
    assert report.failures == 0


def test_battery_is_deterministic(qdiff):
    first = ke.run_verification(qdiff, seed=11)
    second = ke.run_verification(qdiff, seed=11)
    assert first.as_dict() == second.as_dict()


def test_impossible_tolerance_is_reported_not_raised():
    sc = ke.build_scenario({"preset": "QDIFF", "tolerances": {"semigroup": 1e-30}})
    report = ke.run_verification(sc, seed=0)
    by_name = {c.name: c for c in report.checks}
    assert by_name["semigroup_law"].status == "fail"
    assert by_name["semigroup_law"].margin < 0
    assert report.failures >= 1


def test_as_dict_shape(qdiff, mort1):
    d = ke.run_verification(qdiff, seed=0).as_dict()
    assert set(d) == {"scenario", "seed", "tol", "failures", "checks"}
    for check in d["checks"]:
        assert set(check) == {"name", "status", "margin", "detail"}
        assert check["status"] in ("pass", "fail", "skip")
    skipped = ke.run_verification(mort1, seed=0).as_dict()
    margins = {c["name"]: c["margin"] for c in skipped["checks"]}
    assert margins["quasilinear_fixed_point"] is None


def test_unconverged_evolution_legs_are_reported_not_raised(qdiff, monkeypatch):
    def unconverged(*args, **kwargs):
        raise ke.ConvergenceError("no Cauchy acceptance (forced)")

    monkeypatch.setattr(verify, "evolution_cocycle_residual", unconverged)
    monkeypatch.setattr(verify, "evolution_bound_margin", unconverged)
    report = ke.run_verification(qdiff, seed=0)
    assert [c.name for c in report.checks] == BATTERY_NAMES
    by_name = {c.name: c for c in report.checks}
    for name in ("cocycle_residual", "evolution_bound_margin"):
        assert by_name[name].status == "fail"
        assert by_name[name].margin == float("-inf")
        assert by_name[name].detail == "no Cauchy acceptance (forced)"
    assert report.failures == 2


def test_unconverged_picard_leg_is_reported_not_raised(qdiff, monkeypatch):
    def unconverged(*args, **kwargs):
        raise ke.ConvergenceError("Picard iteration did not contract (forced)")

    monkeypatch.setattr(verify, "solve_quasilinear", unconverged)
    report = ke.run_verification(qdiff, seed=0)
    assert [c.name for c in report.checks] == BATTERY_NAMES
    by_name = {c.name: c for c in report.checks}
    picard = by_name["quasilinear_fixed_point"]
    assert (picard.status, picard.margin) == ("fail", float("-inf"))
    assert picard.detail == "Picard iteration did not contract (forced)"
    assert by_name["lipschitz_spot_check"].status == "pass"
    assert report.failures == 1


def test_a_nan_residual_or_margin_fails_its_check(qdiff, monkeypatch):
    # a NaN anywhere in a folded residual or margin list must not be
    # dropped by the fold and read as a pass
    nan = lambda *args, **kwargs: math.nan
    for name in ("semigroup_property_residual", "birth_identity_residual",
                 "_state_distance", "stability_margin"):
        monkeypatch.setattr(verify, name, nan)
    report = ke.run_verification(qdiff, seed=0)
    by_name = {c.name: c for c in report.checks}
    for name in ("semigroup_law", "birth_identity", "product_equivalence",
                 "transport_bound_margin"):
        assert by_name[name].status == "fail"
        assert math.isnan(by_name[name].margin)
