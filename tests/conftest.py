"""Shared benchmark fixtures (session scope: the cases are deterministic)."""

import pytest

from calibrix.benchmarks import generate_twostep_data
from cases import make_plate_case, plate_observations


@pytest.fixture(scope="session")
def plate_small():
    return make_plate_case(12, 10, fine_factor=2)


@pytest.fixture(scope="session")
def plate_small_clean(plate_small):
    return plate_observations(plate_small, 0.0, seed=0)


@pytest.fixture(scope="session")
def plate_small_matched(plate_small):
    return plate_observations(plate_small, 0.0, seed=0, matched=True)


@pytest.fixture(scope="session")
def plate_small_noisy(plate_small):
    return plate_observations(plate_small, 4e-4, seed=7, matched=True)


@pytest.fixture(scope="session")
def twostep_data():
    return generate_twostep_data(seed=0)
