import os

import pytest

from tropmoduli import WeightedMarkedGraph


@pytest.fixture(autouse=True)
def _without_tropmoduli_settings(monkeypatch):
    """Run every test, and every process it starts, without the caller's
    TROPMODULI_* settings; TROPMODULI_EXTENDED, which opts into the long
    tests, is kept.  A test that sets a variable itself still does."""
    for name in list(os.environ):
        if name.startswith("TROPMODULI_") and name != "TROPMODULI_EXTENDED":
            monkeypatch.delenv(name)


@pytest.fixture
def theta():
    return WeightedMarkedGraph((0, 0), ((0, 1), (0, 1), (0, 1)), ())


@pytest.fixture
def dumbbell():
    return WeightedMarkedGraph((0, 0), ((0, 0), (0, 1), (1, 1)), ())


@pytest.fixture
def figure_eight():
    return WeightedMarkedGraph((0,), ((0, 0), (0, 0)), ())


@pytest.fixture
def split_marked_pair():
    # two vertices joined by one edge, marks 1,2 on one side and 3,4 on the other
    return WeightedMarkedGraph((0, 0), ((0, 1),), (0, 0, 1, 1))
