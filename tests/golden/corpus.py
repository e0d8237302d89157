"""Golden CLI corpus: what each command prints, writes and exits with.

``corpus.json`` beside this file holds, for every command below, its argv,
exit code, stdout, stderr and the SHA-256 digest of every file its ``--out``
directory receives, plus the environment the corpus was recorded in.
``tests/test_golden.py`` reruns the commands and names each command and file
that differs.

A change that moves output on purpose regenerates the corpus and names the
changed commands in CHANGES.md:

    PYTHONPATH=src python tests/golden/corpus.py

The corpus never stands in for a physics check.  Digests depend on numpy,
the BLAS and the CPU it dispatches to, so outside the recorded environment
the test compares the numbers in stdout at a relative tolerance instead.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from kato_evolve.cli import main

CORPUS = Path(__file__).with_name("corpus.json")
BENCH = Path(__file__).resolve().parents[2] / "bench"

# name -> argv (without --out); each runs in process in well under a second
COMMANDS = {
    "semigroup-DIFF1": ["semigroup", "--preset", "DIFF1", "--t", "0.25", "--s", "1.5"],
    "semigroup-MORT1": ["semigroup", "--preset", "MORT1", "--s", "0.5", "--profile", "age_bump"],
    "birth-SCAL0": ["birth", "--preset", "SCAL0", "--s-max", "10"],
    "birth-DIFF1": ["birth", "--preset", "DIFF1", "--t", "0.5", "--s-max", "3"],
    "product-SCAL0": ["product", "--preset", "SCAL0", "--plan", "0:1.5,2:3"],
    "product-DIFF1": ["product", "--preset", "DIFF1", "--plan", "0:0.25,0.5:0.5,0.75:0.125"],
    "product-MORT1": ["product", "--preset", "MORT1", "--plan", "0:0.3,0.5:0.2,1.0:0.6"],
    "evolve-DIFF1": ["evolve", "--preset", "DIFF1", "--t", "1", "--tol", "1e-5"],
    "evolve-QDIFF": ["evolve", "--preset", "QDIFF", "--t", "0.5", "--s", "0.125",
                     "--profile", "smooth_random", "--seed", "3"],
    "convergence-study-DIFF1": ["convergence-study", "--preset", "DIFF1", "--t", "0.875"],
    "forced-DIFF1": ["forced", "--preset", "DIFF1", "--t-end", "0.5"],
    "forced-SCAL0-pulse": ["forced", "--preset", "SCAL0", "--t-end", "2", "--forcing", "pulse"],
    "forced-QDIFF-sinusoid": ["forced", "--preset", "QDIFF", "--t-end", "0.5",
                              "--forcing", "sinusoid", "--amplitude", "0.5"],
    "quasilinear-QDIFF": ["quasilinear", "--preset", "QDIFF"],
    "oracle-DIFF1": ["oracle", "--preset", "DIFF1", "--t-end", "0.5"],
    "oracle-MORT1": ["oracle", "--preset", "MORT1", "--t-end", "2", "--profile", "linear"],
    "compare-DIFF1": ["compare", "--preset", "DIFF1", "--t-end", "1", "--refinements", "2"],
    "compare-DIFF1-refinements-1": ["compare", "--preset", "DIFF1", "--t-end", "1",
                                    "--refinements", "1"],
    "verify-SCAL0": ["verify", "--preset", "SCAL0"],
    "verify-DIFF1": ["verify", "--preset", "DIFF1"],
    "verify-MORT1": ["verify", "--preset", "MORT1"],
    "verify-QDIFF": ["verify", "--preset", "QDIFF"],
}


def _blas():
    """numpy's BLAS: its runtime configuration, which names the CPU core it dispatches to.

    The OpenBLAS copies are those the benchmark records (``bench/run.py``), of
    which only the one a numpy wheel bundles is kept (scipy may load another);
    elsewhere numpy's build record stands in.
    """
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from run import _blas_libraries

    libs = Path(np.__file__).parent.with_name("numpy.libs")
    bundled = set(os.listdir(libs)) if libs.is_dir() else set()
    configs = [lib["config"] for lib in _blas_libraries()
               if lib["library"] in bundled and "config" in lib]
    return configs or [str(np.show_config(mode="dicts")["Build Dependencies"]["blas"])]


def environment():
    """What the digests depend on; byte comparison runs only where all of it matches."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "libc": " ".join(platform.libc_ver()),
        "blas": _blas(),
    }


def run(argv, out_dir):
    """One command in process, writing into ``out_dir``: its record without the argv."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out_dir)])
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": files}


def run_all():
    """Every command's record, name -> {argv, exit, stdout, stderr, files}."""
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            records[name] = {"argv": argv, **run(argv, Path(tmp) / name)}
    return records


def load():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    document = {"environment": environment(), "commands": run_all()}
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(document['commands'])} commands to {CORPUS}", file=sys.stderr)
