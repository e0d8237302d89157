"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload briefly through run.py, timed and traced, and checks the
shape of each result line against BENCHMARK.json.  Then, in process, runs one
operation per workload, confirms its checks pass, and for each check feeds a
deliberately perturbed copy of the outputs to confirm that check fails.
Exits 0 when every step behaves as expected.
"""

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from kato_evolve import fixed_point_residual  # noqa: E402
from workloads import WORKLOADS, fresh  # noqa: E402


def _scaled(state, factor):
    return state.with_values(state.values * factor)


def _renewal(wl, out):
    states = out["states"]
    births = out["births"].copy()
    births[-1] *= 1.01
    yield "growth_rate_rel", {**out, "births": births}
    yield "birth_integral_rel", {**out, "states": {**states, 0.25: _scaled(states[0.25], 1 + 1e-6)}}
    yield "semigroup_law_rel", {**out, "states": {**states, 1.0: _scaled(states[1.0], 1 + 1e-5)}}


def _diffusion(wl, out):
    levels = list(out["levels"])
    evolved = levels[1]["evolved"]
    bumped = dataclasses.replace(evolved, value=_scaled(evolved.value, 1 + 1e-8))
    levels[1] = {**levels[1], "evolved": bumped}
    yield "spatial_totals_rel", {**out, "levels": levels}
    yield "observed_order", {**out, "order": out["order"] + 0.5}


def _picard(wl, out):
    traj = out["trajectory"]
    states = list(traj.states)
    states[3] = _scaled(states[3], 1 + 1e-8)
    yield "spatial_totals_rel", {**out, "trajectory": dataclasses.replace(traj, states=tuple(states))}
    scen = out["scenario"]
    moved = dataclasses.replace(traj, states=tuple(_scaled(u, 1.01) for u in traj.states))
    residual = fixed_point_residual(fresh(scen), wl.problem(scen), moved, tol=wl.picard_tol)
    yield "fixed_point_residual", {**out, "residual": residual}
    report = out["report"]
    late = dataclasses.replace(report, sup_gaps=report.sup_gaps[:-1] + (2 * wl.picard_tol,))
    yield "last_picard_gap", {**out, "report": late}


PERTURBATIONS = {"renewal-scalar": _renewal, "diffusion-compare": _diffusion,
                 "picard-quasilinear": _picard}


def brief_runs(spec):
    ok = True
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", "3", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            good = (proc.returncode == 0 and result.get("correct") is True
                    and result.get("failed") == 0 and result.get("attempted", 0) >= 1
                    and got == want
                    and all(np.isfinite(v["value"]) for v in result["metrics"].values()))
            print(f"{'PASS' if good else 'FAIL'} brief run {name} --trace {trace}")
            ok = ok and good
    return ok


def perturbed_checks():
    ok = True
    for name, workload in WORKLOADS.items():
        wl = workload(seed=3)
        out = wl.run(fresh(wl.scenario))
        clean = {c["name"]: c["ok"] for c in wl.checks(out)}
        good = all(clean.values())
        print(f"{'PASS' if good else 'FAIL'} {name} unperturbed checks {clean}")
        ok = ok and good
        tested = set()
        for check, bad_out in PERTURBATIONS[name](wl, out):
            verdict = {c["name"]: c["ok"] for c in wl.checks(bad_out)}
            good = verdict[check] is False
            tested.add(check)
            print(f"{'PASS' if good else 'FAIL'} {name} perturbed output fails {check}")
            ok = ok and good
        if tested != set(clean):
            print(f"FAIL {name} checks without a perturbation: {sorted(set(clean) - tested)}")
            ok = False
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = perturbed_checks()
    ok = brief_runs(spec) and ok
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
