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


# Step-map stacks one operation exponentiates, by cell count: DIFF1's
# mirror times (t + t' = 1/2 or 3/2) share a stack, which leaves 22 of the
# base grid's 32 and 46 of the 2x grid's 64.  Each Picard step, and the
# fixed-point residual, takes the step before's stacks at the frozen times
# where the two frozen states are bit-equal, which leaves 2 of QDIFF's 6.
STACKS = {"renewal-scalar": {100: 1}, "diffusion-compare": {64: 22, 128: 46},
          "picard-quasilinear": {32: 2}}


@pytest.mark.parametrize("name", NAMES)
def test_workload_exponentiates_one_stack_per_distinct_generator(workloads, name, monkeypatch):
    from kato_evolve import propagator

    cells = []
    step_stack = propagator._step_stack
    monkeypatch.setattr(propagator, "_step_stack",
                        lambda sc, t, j_from, j_to, *rest: cells.append(j_to - j_from)
                        or step_stack(sc, t, j_from, j_to, *rest))
    wl = workloads.WORKLOADS[name](1)
    wl.run(workloads.fresh(wl.scenario))
    assert {n: cells.count(n) for n in set(cells)} == STACKS[name]
