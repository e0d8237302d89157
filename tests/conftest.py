import os
from pathlib import Path

import pytest

import kato_evolve as ke

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
