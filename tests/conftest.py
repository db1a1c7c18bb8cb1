import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from reflowsim import (
    ProcessParameters,
    SimulationGrid,
    WeldingModel,
    build_profile,
    default_layout,
    simulate,
)
from helpers import euler_reference


@pytest.fixture(scope="session")
def layout():
    return default_layout()


@pytest.fixture(scope="session")
def params():
    return ProcessParameters()


@pytest.fixture(scope="session")
def profile(layout, params):
    return build_profile(layout, params, 0.8)


@pytest.fixture(scope="session")
def default_trace(profile, params):
    """Stock-scenario trace: defaults, coefficient 0.021, dt 0.1/0.5."""
    return simulate(profile, params, WeldingModel(0.021), SimulationGrid())


@pytest.fixture(scope="session")
def euler_fine(profile, params):
    """Fine-step Euler reference for the stock scenario (dt = 1 ms)."""
    return euler_reference(profile, params, WeldingModel(0.021), 0.001)
