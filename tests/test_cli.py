"""Command line surface: exit codes, determinism, emitted files."""

import dataclasses
import json
import os

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


def test_evolve_reports_the_scenario_eta(capsys):
    assert "eta" not in {f.name for f in dataclasses.fields(ke.EvolutionResult)}
    code, out, _ = run(capsys, "evolve", "--preset", "QDIFF", "--t", "0.25", "--tol", "1e-3")
    assert code == 0
    assert json.loads(out)["eta"] == ke.eta_constant(ke.preset_scenario("QDIFF"))
