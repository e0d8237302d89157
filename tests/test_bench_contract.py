"""The benchmark's workloads run on the library and pass their own checks.

``bench/workloads.py`` reads the library's public results (the oracle's
``final`` and ``times``, the Picard trajectory's states, ...), so a change
to those types shows here before it breaks a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
NAMES = ["renewal-scalar", "diffusion-compare", "picard-quasilinear"]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_every_workload_is_covered(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_workload_passes_its_checks_once(workloads, name):
    wl = workloads.WORKLOADS[name](1)
    out = wl.run(workloads.fresh(wl.scenario))
    checks = wl.checks(out)
    assert checks
    assert [c["name"] for c in checks if not c["ok"]] == []
    assert wl.scenarios_of(out)
    assert wl.oracle_steps(out) == (192 if name == "diffusion-compare" else 0)
