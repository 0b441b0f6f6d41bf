"""Session fixtures: the canonical adaptive runs, simulated once and shared.

`test_sim.py` checks their telemetry against the pinned digests and
`test_acceptance.py` grades them; tests only read the returned series.
"""

import pytest

from bicopterlab.sim import SimConfig, simulate
from bicopterlab.trajectory import HilbertSpec


@pytest.fixture(scope="session")
def ellipse_adaptive():
    return simulate(SimConfig())


@pytest.fixture(scope="session")
def hilbert_adaptive():
    return simulate(SimConfig(traj=HilbertSpec(), t_end=30.0))
