"""Command line surface: exit codes, determinism, emitted files."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kato_evolve as ke
from kato_evolve.cli import _json_clean, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage:" in err


def test_unknown_command(capsys):
    code, _, err = run(capsys, "unfold")
    assert code == 1
    assert "usage:" in err


def test_preset_and_scenario_are_exclusive(capsys, tmp_path):
    path = tmp_path / "sc.json"
    path.write_text("{}")
    code, _, err = run(
        capsys, "semigroup", "--preset", "SCAL0", "--scenario", str(path), "--s", "0.1"
    )
    assert code == 1
    assert "usage:" in err


@pytest.mark.parametrize("argv", [
    ("birth", "--preset", "SCAL0", "--tol", "1e-3"),
    ("verify", "--preset", "SCAL0", "--profile", "ones"),
])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "usage:" in err and "unrecognized arguments" in err


def test_evolve_still_takes_tol(capsys):
    code, out, _ = run(capsys, "evolve", "--preset", "SCAL0", "--t", "0.5", "--tol", "1e-3")
    assert code == 0
    assert json.loads(out)["tol"] == 1e-3


def test_semigroup_reports_norms(capsys):
    code, out, _ = run(capsys, "semigroup", "--preset", "SCAL0", "--s", "0.25")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "semigroup"
    assert payload["scenario"] == "SCAL0"
    assert payload["norm_out"] > 0


def test_misaligned_span_fails_cleanly(capsys):
    code, _, err = run(capsys, "semigroup", "--preset", "SCAL0", "--s", "0.005")
    assert code == 1
    assert err.startswith("error:")


def test_bad_plan_fails_cleanly(capsys):
    code, _, err = run(capsys, "product", "--preset", "SCAL0", "--plan", "nonsense")
    assert code == 1
    assert err.startswith("error:")


def test_scenario_file_round_trip(capsys, tmp_path):
    config = {
        "dim": 1,
        "a_max": 1.0,
        "n_age": 50,
        "T": 1.0,
        "n_time": 50,
        "operator": {"kind": "scalar_mortality", "mu": 0.5},
        "birth": {"kind": "constant", "beta": 1.0},
        "norm": "one",
        "label": "tiny",
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "oracle", "--scenario", str(path), "--t-end", "0.5")
    assert code == 0
    assert json.loads(out)["scenario"] == "tiny"


def test_missing_scenario_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "verify", "--scenario", str(tmp_path / "absent.json")
    )
    assert code == 1
    assert err.startswith("error:")


def test_rejected_scenario_key(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"preset": "SCAL0", "bogus": 1}))
    code, _, err = run(capsys, "verify", "--scenario", str(path))
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize(
    "override, key",
    [
        ({"integrator_order": 1}, "integrator_order"),
        ({"tolerances": {"cocycle": 1e-6}}, "cocycle"),
        ({"operator": "zero"}, "operator"),
        ({"birth": None}, "birth"),
        ({"tolerances": "abc"}, "tolerances"),
        ({"operator": {"kind": "scalar_mortality", "mu": "x"}}, "operator.mu"),
        ({"tolerances": {"volterra": "1e-3"}}, "tolerances.volterra"),
        ({"reference_operator": [["a"]]}, "reference_operator"),
        ({"s_max_factor": 10}, "s_max_factor"),
        ({"dim": 1.5}, "dim"),
        ({"dim": -1}, "dim"),
        ({"operator": {"kind": [1]}}, "operator.kind"),
        ({"label": {"a": 1}}, "label"),
    ],
)
def test_removed_scenario_settings_fail_cleanly(capsys, tmp_path, override, key):
    path = tmp_path / "removed.json"
    path.write_text(json.dumps({"preset": "SCAL0", **override}))
    code, out, err = run(capsys, "semigroup", "--scenario", str(path), "--s", "0.5")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err


def test_non_finite_scenario_field_fails_cleanly(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        json.dumps({"preset": "SCAL0", "birth": {"kind": "constant", "beta": float("nan")}})
    )
    code, out, err = run(capsys, "semigroup", "--scenario", str(path), "--s", "0.5")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "birth.beta" in lines[0]


@pytest.mark.parametrize("config", [
    {"preset": "MORT1", "operator": {"kind": "scalar_mortality", "mu": -1e5}},
    {"preset": "DIFF1", "operator": {"kind": "modulated_laplacian", "kappa0": -1e4}},
])
def test_overflowing_step_map_fails_cleanly(capsys, tmp_path, config):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "semigroup", "--scenario", str(path), "--s", "0.5")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: step map is not finite at t=0.0, cell 0 (a=")


def test_overflowing_operator_field_reports_once(capsys, tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(
        {"preset": "DIFF1", "operator": {"kind": "modulated_laplacian", "kappa0": -1e305}}))
    code, out, err = run(capsys, "semigroup", "--scenario", str(path), "--s", "0.5")
    assert code == 1
    assert out == ""
    assert err == "error: operator field is not finite at t=0.0, a=0.0078125\n"


def test_overflowing_time_constant_names_its_parameters(capsys, tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"preset": "DIFF1", "operator": {
        "kind": "modulated_laplacian", "kappa0": 1e306, "time_amplitude": 1e10}}))
    code, out, err = run(capsys, "semigroup", "--scenario", str(path), "--s", "0.5")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: modulated_laplacian with kappa0 = 1e+306, "
                          "time_amplitude = 10000000000.0")
    assert "lipschitz_t" not in err


def test_product_prints_the_library_margins(capsys, diff1):
    code, out, _ = run(capsys, "product", "--preset", "DIFF1", "--plan", "0:0.25,0.5:0.5")
    assert code == 0
    payload = json.loads(out)
    plan = ke.parse_plan("0:0.25,0.5:0.5")
    phi = ke.make_profile(diff1, "tilted")
    assert payload["transport_bound_margin"] == ke.stability_margin(diff1, plan, phi)
    assert payload["birth_chain_margin"] == ke.birth_chain_margin(diff1, plan, phi)
    assert payload["lp_bound_margin"] == ke.lp_stability_margin(diff1, plan, phi, 2.0)
    assert min(payload[k] for k in ("transport_bound_margin", "birth_chain_margin",
                                    "lp_bound_margin")) > 0


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_output_is_strict_json(capsys):
    # levels 1 and 2 share a plan at t = 0.5, so the first gap is zero
    code, out, _ = run(capsys, "convergence-study", "--preset", "DIFF1", "--t", "0.5")
    assert code == 0
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    assert rows[0][1] == 0.0
    assert rows[0][2] is None and rows[1][2] is None
    assert all(rate is not None for _, _, rate in rows[2:])
    cleaned = _json_clean({"m": [float("-inf"), np.float64(np.nan), np.float64(2.5), 3]})
    assert json.loads(json.dumps(cleaned, allow_nan=False)) == {"m": [None, None, 2.5, 3]}


def test_verify_passes_and_repeats_byte_identically(capsys):
    code1, out1, _ = run(capsys, "verify", "--preset", "QDIFF", "--seed", "3")
    code2, out2, _ = run(capsys, "verify", "--preset", "QDIFF", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["failures"] == 0
    assert len(payload["checks"]) == 15


def test_verify_failure_exits_two(capsys, tmp_path):
    path = tmp_path / "strict.json"
    path.write_text(
        json.dumps({"preset": "QDIFF", "tolerances": {"semigroup": 1e-30}})
    )
    code, out, _ = run(capsys, "verify", "--scenario", str(path))
    assert code == 2
    assert json.loads(out)["failures"] >= 1


def test_unconverged_cocycle_leg_is_a_failed_check(capsys, monkeypatch):
    from kato_evolve import verify

    def unconverged(*args, **kwargs):
        raise ke.ConvergenceError("no Cauchy acceptance (forced)")

    monkeypatch.setattr(verify, "evolution_cocycle_residual", unconverged)
    code, out, err = run(capsys, "verify", "--preset", "QDIFF")
    assert code == 2
    assert err == ""
    payload = json.loads(out)
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["cocycle_residual"] == {
        "name": "cocycle_residual", "status": "fail", "margin": None,
        "detail": "no Cauchy acceptance (forced)"}
    assert payload["failures"] == 1


def test_verify_reports_every_unconverged_leg(capsys):
    code, out, err = run(capsys, "verify", "--preset", "DIFF1", "--tol", "1e-9")
    assert code == 2
    assert err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in ("evolution_ladder", "forced_bound_margin", "oracle_agreement"):
        assert checks[name]["status"] == "fail"
        assert checks[name]["detail"].startswith("no Cauchy acceptance at tol=1e-09")
    for name in ("cocycle_residual", "evolution_bound_margin"):
        assert checks[name]["status"] == "skip"
    assert json.loads(out)["failures"] == 3


def test_out_directory_gets_report_and_csv(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    code, out, _ = run(
        capsys,
        "evolve",
        "--preset",
        "QDIFF",
        "--t",
        "0.25",
        "--tol",
        "1e-3",
        "--out",
        str(out_dir),
    )
    assert code == 0
    report = json.loads((out_dir / "evolve_report.json").read_text())
    assert report == json.loads(out)
    lines = (out_dir / "evolve_state.csv").read_text().splitlines()
    assert lines[0].split(",")[:2] == ["age", "c0"]
    assert len(lines) == 1 + 33
    # full precision round trip: the CSV floats reparse to the exact values
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == float("%.17g" % float(first[1]))


def test_convergence_study_csv(capsys, tmp_path):
    out_dir = tmp_path / "study"
    code, out, _ = run(
        capsys,
        "convergence-study",
        "--preset",
        "DIFF1",
        "--t",
        "0.875",
        "--out",
        str(out_dir),
    )
    assert code == 0
    lines = (out_dir / "convergence_study.csv").read_text().splitlines()
    assert lines[0] == "n,gap,rate"
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == [1, 2, 4, 8, 16, 32]
    payload = json.loads(out)
    assert len(payload["rows"]) == len(ns)
    # row 1's gap sits at the rounding floor, so neither it nor row 2 has a rate
    assert [rate is None for _, _, rate in payload["rows"]] == [True, True] + [False] * 4


def test_convergence_study_over_one_partition_cell(capsys, tmp_path):
    path = tmp_path / "one_cell.json"
    path.write_text(json.dumps({"preset": "QDIFF", "T": 0.03125, "n_time": 1}))
    out_dir = tmp_path / "study"
    code, out, _ = run(
        capsys, "convergence-study", "--scenario", str(path), "--t", "0.03125",
        "--out", str(out_dir),
    )
    assert code == 0
    assert json.loads(out)["rows"] == []
    assert (out_dir / "convergence_study.csv").read_text().splitlines() == ["n,gap,rate"]


def test_evolve_reports_the_scenario_eta(capsys):
    assert "eta" not in {f.name for f in dataclasses.fields(ke.EvolutionResult)}
    code, out, _ = run(capsys, "evolve", "--preset", "QDIFF", "--t", "0.25", "--tol", "1e-3")
    assert code == 0
    assert json.loads(out)["eta"] == ke.eta_constant(ke.preset_scenario("QDIFF"))


def test_quasilinear_report_carries_the_contraction_estimate(capsys):
    code, out, _ = run(capsys, "quasilinear", "--preset", "QDIFF")
    assert code == 0
    report = json.loads(out)["report"]
    assert set(report) == {"t_phi", "halvings", "sup_gaps", "integral_gaps", "n_used",
                           "predicted_contraction", "eta", "r_constant", "phi_graph_norm"}
    sc = ke.preset_scenario("QDIFF")
    problem = ke.norm_coupled_diffusion(sc, 0.05, 1.0, center=ke.make_profile(sc, "tilted"))
    estimate = ke.contraction_estimate(sc, problem, report["t_phi"])
    assert {k: report[k] for k in estimate} == estimate


@pytest.mark.parametrize(
    "argv",
    [
        ["semigroup", "--preset", "DIFF1", "--s", "0.5"],
        ["oracle", "--preset", "DIFF1", "--t-end", "0.25"],
        ["birth", "--preset", "SCAL0", "--s-max", "10"],
        ["quasilinear", "--preset", "QDIFF"],
    ],
)
def test_output_does_not_depend_on_blas_threads(argv):
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "kato_evolve.cli", *argv],
                              env=env, capture_output=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
