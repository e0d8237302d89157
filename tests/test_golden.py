"""The CLI's output matches the golden corpus in ``tests/golden``.

Each command of ``tests/golden/corpus.py`` runs once per test run.  In the
environment the corpus was recorded in, its exit code, stdout, stderr and
every ``--out`` file must match byte for byte; elsewhere the byte test skips
and says why, and the numbers in stdout are compared at ``RTOL``, those
printed inside a string (a check's detail) exactly if they are integers and
otherwise to a unit of their last digit.
"""

import importlib
import json
import math
import re
from decimal import Decimal
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
# Relative tolerance of the numeric comparison, with ATOL for values that
# sit at the rounding floor (residuals of 1e-16 differ across BLAS kernels).
RTOL = 1e-6
ATOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(GOLDEN))
        return importlib.import_module("corpus")


@pytest.fixture(scope="module")
def recorded(golden):
    return golden.load()


@pytest.fixture(scope="module")
def fresh(golden):
    return golden.run_all()


def test_corpus_covers_every_command(golden, recorded):
    assert sorted(recorded["commands"]) == sorted(golden.COMMANDS)
    for name, argv in golden.COMMANDS.items():
        assert recorded["commands"][name]["argv"] == argv, name


def _byte_diffs(want, got):
    """Each part of one command's record that differs, by name."""
    diffs = [part for part in ("exit", "stdout", "stderr") if want[part] != got[part]]
    for name in sorted(set(want["files"]) | set(got["files"])):
        if want["files"].get(name) != got["files"].get(name):
            diffs.append(f"file {name}")
    return diffs


def test_output_is_byte_identical(golden, recorded, fresh):
    env = golden.environment()
    if env != recorded["environment"]:
        pytest.skip(f"corpus recorded under {recorded['environment']}, running under {env}; "
                    "only the numeric comparison ran")
    diffs = {name: _byte_diffs(want, fresh[name])
             for name, want in recorded["commands"].items()}
    assert {k: v for k, v in diffs.items() if v} == {}


# a number printed inside a string, such as a check's detail
_NUMBER = re.compile(r"([-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?)")


def _number_close(a, b):
    """Integers equal; other numbers within a unit of their last printed digit."""
    if not any(c in a for c in ".e"):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=RTOL,
                        abs_tol=max(ATOL, 10.0 ** Decimal(a).as_tuple().exponent))


def _strings_close(want, got):
    """Equal text around the numbers, and each number close by :func:`_number_close`."""
    w, g = _NUMBER.split(want), _NUMBER.split(got)
    if len(w) != len(g) or w[::2] != g[::2]:
        return False
    return all(_number_close(a, b) for a, b in zip(w[1::2], g[1::2]))


def test_integers_in_strings_match_exactly():
    assert not _strings_close("accepted n = 1", "accepted n = 2")
    assert not _strings_close("after 2 iterations", "after 3 iterations")
    assert _strings_close("gap 0.125 < 1e-05", "gap 0.1255 < 1.1e-05")
    assert not _strings_close("gap 0.125", "gap 0.127")


def _numbers_close(want, got, path="stdout"):
    """Paths inside two parsed JSON documents whose values differ beyond the tolerance."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            return [f"{path} keys"]
        return [d for k in want for d in _numbers_close(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path} length"]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in _numbers_close(w, g, f"{path}[{i}]")]
    if isinstance(want, str) and isinstance(got, str):
        return [] if _strings_close(want, got) else [path]
    numbers = (int, float)
    if (isinstance(want, numbers) and isinstance(got, numbers)
            and not isinstance(want, bool) and not isinstance(got, bool)):
        return [] if math.isclose(want, got, rel_tol=RTOL, abs_tol=ATOL) else [path]
    return [] if want == got else [path]


def test_output_numbers_match(recorded, fresh):
    diffs = {}
    for name, want in recorded["commands"].items():
        got = fresh[name]
        found = [] if want["exit"] == got["exit"] else ["exit"]
        if not _strings_close(want["stderr"], got["stderr"]):
            found.append("stderr")
        if want["stdout"] or got["stdout"]:
            found += _numbers_close(json.loads(want["stdout"]), json.loads(got["stdout"]))
        if sorted(want["files"]) != sorted(got["files"]):
            found.append("file names")
        if found:
            diffs[name] = found
    assert diffs == {}
