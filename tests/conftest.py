from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize._highspy import _core as highs

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


@pytest.fixture
def highs_runs(monkeypatch):
    """Every HiGHS solver object the backend runs, in order."""
    ran = []

    class Recorded(highs._Highs):
        def run(self):
            ran.append(self)
            return super().run()

    monkeypatch.setattr(highs, "_Highs", Recorded)
    return ran


@pytest.fixture
def highs_stops_without_incumbent(monkeypatch):
    """HiGHS stopped by its time limit before finding any incumbent: every
    run returns at once with kTimeLimit and an infinite objective."""

    class Stopped(highs._Highs):
        def run(self):
            return highs.HighsStatus.kWarning

        def getModelStatus(self):
            return highs.HighsModelStatus.kTimeLimit

        def getInfo(self):
            return SimpleNamespace(objective_function_value=highs.kHighsInf)

    monkeypatch.setattr(highs, "_Highs", Stopped)
