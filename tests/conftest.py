import os
from pathlib import Path

import pytest

import kato_evolve as ke

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # No example database, so a run stores no examples, and no per-example
    # deadline, so a slow host cannot fail one.  Hypothesis still caches the
    # constants it reads from local sources under .hypothesis/ (git-ignored).
    settings.register_profile("tier1", database=None, deadline=None)
    settings.load_profile("tier1")

# Some tests run the command line in a child interpreter; give it the same
# source tree that pytest's ``pythonpath`` setting gives this one.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def scal0():
    return ke.preset_scenario("SCAL0")


@pytest.fixture(scope="session")
def diff1():
    return ke.preset_scenario("DIFF1")


@pytest.fixture(scope="session")
def mort1():
    return ke.preset_scenario("MORT1")


@pytest.fixture(scope="session")
def qdiff():
    return ke.preset_scenario("QDIFF")
