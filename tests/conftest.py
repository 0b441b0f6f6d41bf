"""Session fixtures: the benchmark's three canonical runs, simulated once and shared.

`test_sim.py` checks their telemetry against the pinned digests,
`test_cli_stdout.py` pins the metric lines `simulate` prints for them and
`test_acceptance.py` grades the adaptive ones; tests only read the
returned series.
"""

import pytest

from bicopterlab.sim import SimConfig, simulate
from bicopterlab.trajectory import HilbertSpec


@pytest.fixture(scope="session")
def ellipse_adaptive():
    return simulate(SimConfig())


@pytest.fixture(scope="session")
def hilbert_adaptive():
    return simulate(SimConfig(traj=HilbertSpec()))


@pytest.fixture(scope="session")
def ellipse_known_io():
    return simulate(SimConfig(adaptive=False, theta0=(1.0, 20.0), log_every=1))
