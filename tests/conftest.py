import numpy as np
import pytest

from builders import make_chain_instance, make_risky_safe_instance
from mccssp.model import reachable_layers


@pytest.fixture
def risky_safe():
    return make_risky_safe_instance()


@pytest.fixture
def chain():
    return make_chain_instance()


@pytest.fixture
def chain_layers(chain):
    return reachable_layers(chain)


@pytest.fixture(scope="session")
def small_scenario():
    """Shared intersection scenario with cheap tables."""
    from mccssp.intersection import default_scenario

    return default_scenario(mc_samples=600)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
