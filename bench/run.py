"""Benchmark of kato_evolve: renewal march, diffusion ladder with oracle, Picard.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all

Run from the repository root; the library is imported from ``src``.  Each
workload is one process running a closed loop with a single caller: one
operation at a time, each on a fresh scenario, until ``--seconds`` have
passed.  Garbage is collected between operations, outside the timed region.
Every operation's outputs are checked against computations in
``reference.py`` after its clock stops; an operation whose check fails or
that raises counts as failed.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run (see README.md).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record goes to ``bench/out/``.  BLAS threading is
left at the library default, as users run it, and recorded.
"""

import argparse
import ctypes
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_STARTS = 7
P90_MIN_OPS = 40

if not os.path.isfile(os.path.join(SRC, "kato_evolve", "__init__.py")):
    sys.exit(f"error: no kato_evolve sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import kato_evolve as ke  # noqa: E402
from workloads import WORKLOADS, constant_trajectory, fresh  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# -- environment ------------------------------------------------------------


def _blas_libraries():
    """Loaded OpenBLAS copies with their configuration and thread count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.split()[-1]})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kato_evolve": ke.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": _blas_libraries(),
        "blas_thread_env": {k: v for k, v in os.environ.items()
                            if k.endswith("_NUM_THREADS") or k == "KATO_EVOLVE_THREADS"},
        "machine": platform.machine(),
    }


# -- measurement helpers ----------------------------------------------------


def setup_seconds(args):
    """Wall times of fresh starts that import and build the inputs.

    Each start is a new interpreter that imports kato_evolve, builds the
    workload's scenario and profile, and reports ready.  One unmeasured start
    first leaves the bytecode cache and file cache as a user finds them.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for i in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed (exit {code}, said {line!r})")
        if i:
            times.append(ready - start)
    return times


def run_checked(wl, scenario):
    """One timed operation, then its checks.

    Returns (start, seconds, out, checks); an operation that raises yields
    ``out`` None and one failed check carrying the error.
    """
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        out = wl.run(scenario)
        error = None
    except Exception as exc:  # a raising operation is a failed operation
        out, error = None, repr(exc)
    elapsed = time.perf_counter() - start
    gc.enable()
    if error is not None:
        return start, elapsed, None, [{"name": "raised", "ok": False, "error": error}]
    try:
        checks = wl.checks(out)
    except Exception as exc:
        checks = [{"name": "check_raised", "ok": False, "error": repr(exc)}]
    return start, elapsed, out, checks


def _metric(value, unit):
    return {"value": value if isinstance(value, int) else float(value), "unit": unit}


# -- timed run ----------------------------------------------------------------


def traced_peak_mb(wl):
    """Median tracemalloc peak of one operation on a fresh scenario, in MB."""
    peaks = []
    for _ in range(wl.mem_passes):
        gc.collect()
        scenario = fresh(wl.scenario)
        tracemalloc.start()
        try:
            wl.run(scenario)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return statistics.median(peaks)


def timed_run(args, wl):
    setup = setup_seconds(args)
    # The untimed memory pass also serves as the warm-up: lazy imports and
    # first calls are done before the clock starts.
    solve_mem_mb = traced_peak_mb(wl)
    times, failures = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        _, elapsed, out, checks = run_checked(wl, fresh(wl.scenario))
        del out  # free this operation's memory before the next one starts
        times.append(elapsed)
        bad = [c for c in checks if not c["ok"]]
        if bad:
            failures.append(bad)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "solve_p50_s": _metric(statistics.median(times), "s"),
        "solves_per_s": _metric(len(times) / sum(times), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "solve_mem_mb": _metric(solve_mem_mb, "MB"),
    }
    extra = {"op_seconds": times, "setup_seconds": setup, "failures": failures}
    if len(times) >= P90_MIN_OPS:
        extra["solve_p90_s"] = _metric(statistics.quantiles(times, n=10)[-1], "s")
    return len(times), len(failures), metrics, extra


# -- traced run ---------------------------------------------------------------


class Counting:
    """Callable wrapper that counts the calls it forwards."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def counted_scenario(scenario):
    """A fresh scenario whose operator and birth callables count their calls."""
    op = Counting(scenario.operator.evaluate)
    birth = Counting(scenario.birth.evaluate)
    scen = dataclasses.replace(
        scenario,
        operator=dataclasses.replace(scenario.operator, evaluate=op),
        birth=dataclasses.replace(scenario.birth, evaluate=birth),
        caches={},
    )
    return scen, op, birth


def cache_mb(scenarios):
    """Bytes of the arrays held in the scenarios' caches, in MB."""

    def size(obj):
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        if isinstance(obj, (tuple, list)):
            return sum(size(x) for x in obj)
        if dataclasses.is_dataclass(obj):
            return sum(size(getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return 0

    return sum(size(v) for scen in scenarios for v in scen.caches.values()) / 2**20


def per_call(fn, min_seconds=0.005):
    """Seconds per call of a cheap function, from a batch long enough to time."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / n
        n *= 2


class Tracer:
    """In-memory spans around the benchmark's calls into each layer."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []

    def record(self, name, start, seconds, parent):
        self.spans.append({"name": name, "start": start - self.origin,
                           "end": start + seconds - self.origin, "parent": parent})

    def span(self, name, fn, parent):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        self.record(name, start, seconds, parent)
        return seconds, result


def layer_round(wl, tracer, parent, problem, n_used):
    """Time each layer's public function once, in isolation, on wl's inputs.

    Returns the seconds per layer and the march's step count.
    """
    phi = wl.profile
    base = wl.scenario
    half = base.age_grid.a_max / 2
    out = {}

    def cold(name, fn, prepare=lambda scen: None):
        scen = fresh(base)
        prepare(scen)
        out[name], result = tracer.span(name, lambda: fn(scen), parent)
        return result, scen

    scen = fresh(base)
    nodes = base.age_grid.nodes
    out["core.sample_s"] = per_call(
        lambda: ([scen.operator(0.0, a) for a in nodes], [scen.birth(a) for a in nodes]))
    out["core.norm_s"] = per_call(lambda: ke.state_norm(scen, phi))
    out["core.graph_norm_s"] = per_call(lambda: ke.graph_state_norm(scen, phi))
    out["core.birth_quadrature_s"] = per_call(lambda: ke.birth_quadrature(scen, phi.values))
    cold("propagator.chain_s", lambda s: ke.chain_matrices(s, 0.0))
    cold("propagator.bounds_s", ke.default_constants)
    traj, scen = cold("renewal.march_s", lambda s: ke.solve_birth(s, 0.0, phi, wl.march_t),
                      prepare=lambda s: ke.chain_matrices(s, 0.0))
    out["renewal.assembly_s"], _ = tracer.span(
        "renewal.assembly_s", lambda: ke.branch_values(scen, 0.0, phi, half), parent)
    cold("semigroup.apply_s", lambda s: ke.apply_semigroup(s, 0.0, half, phi))
    cold("evolution.level_s", lambda s: ke.apply_approximant(s, n_used, wl.evolve_t, 0.0, phi))
    direct, _ = cold("oracle.step_s", lambda s: ke.solve_direct(s, phi, wl.evolve_t))
    out["oracle.step_s"] /= len(direct.times) - 1
    cold("quasilinear.picard_step_s", lambda s: ke.fixed_point_residual(
        s, problem, constant_trajectory(s, phi, wl.picard_cells), tol=wl.picard_tol))
    return out, traj.n_steps


def traced_run(args, wl):
    """Rounds of one counted operation plus one pass over the layers.

    Times are medians over rounds.  Counts must repeat in every round; a
    count that differs marks every round failed.
    """
    tracer = Tracer()
    ladder = ke.apply_evolution(fresh(wl.scenario), wl.evolve_t, 0.0, wl.profile,
                                tol=wl.layer_tol)
    problem = wl.problem(wl.scenario)
    rows, op_seconds, failed = [], [], 0
    start = time.perf_counter()
    while not op_seconds or time.perf_counter() - start < args.seconds:
        parent = f"round-{len(op_seconds)}"
        scen, op, birth = counted_scenario(wl.scenario)
        began, elapsed, out, checks = run_checked(wl, scen)
        tracer.record("operation", began, elapsed, parent)
        op_seconds.append(elapsed)
        if not all(c["ok"] for c in checks):
            failed += 1
            del out
            continue
        report = wl.picard_report(out)
        counts = {
            "core.operator_evals": op.calls,
            "core.birth_evals": birth.calls,
            "oracle.steps": wl.oracle_steps(out),
            "quasilinear.iterations": len(report.sup_gaps) if report else 0,
            "quasilinear.halvings": report.halvings if report else 0,
            "cache.mb": cache_mb(wl.scenarios_of(out)),
            "evolution.levels": len(ladder.gaps) + 1,
            "evolution.n_used": ladder.n_used,
        }
        del out
        times, counts["renewal.march_steps"] = layer_round(
            wl, tracer, parent, problem, ladder.n_used)
        rows.append({**counts, **times})

    metrics = {}
    repeat = True
    for name in sorted(rows[0] if rows else ()):
        values = [row[name] for row in rows]
        if name.endswith("_s"):
            metrics[name] = _metric(statistics.median(values), "s")
        else:
            repeat = repeat and all(v == values[0] for v in values)
            metrics[name] = _metric(values[0], "MB" if name.endswith(".mb") else "count")
    if not repeat:
        failed = len(op_seconds)
    extra = {"op_seconds": op_seconds, "counts_repeat": repeat, "rounds": rows,
             "spans": tracer.spans}
    return len(op_seconds), failed, metrics, extra


# -- entry points -------------------------------------------------------------


def run_one(args):
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    env = environment()
    run = traced_run if args.trace else timed_run
    attempted, failed, metrics, extra = run(args, wl)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "environment": env, **result, **extra}, fh, indent=1)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload}: attempted {attempted}, failed {failed}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "solve_p90_s" in extra:
        print(f"  solve_p90_s = {extra['solve_p90_s']['value']:.6g} s")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, then one summary table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        print(proc.stdout, end="")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<20} {'attempted':>9} {'failed':>6}  metrics")
    for name, r in results.items():
        shown = ", ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in r["metrics"].items())
        print(f"{name:<20} {r['attempted']:>9} {r['failed']:>6}  {shown}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None):
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
