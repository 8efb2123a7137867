import math

import numpy as np
import pytest

from wsnsim.model import Deployment, NodeTier, SimConfig


def build_deployment(coords, tiers=None, energies=None, bs=(50.0, 50.0)):
    """A Deployment of nodes at `coords` (node i at coords[i]), measured from
    a base station at `bs`.  `tiers` (NodeTier members) default to normal and
    `energies` to 1.0 J each."""
    n = len(coords)
    tiers = [NodeTier.NORMAL] * n if tiers is None else tiers
    return Deployment(
        x=np.array([x for x, _ in coords], dtype=float),
        y=np.array([y for _, y in coords], dtype=float),
        d_bs=np.array([math.hypot(x - bs[0], y - bs[1]) for x, y in coords]),
        tier=np.array([list(NodeTier).index(t) for t in tiers], dtype=np.intp),
        energy=np.array([1.0] * n if energies is None else energies, dtype=float),
    )


@pytest.fixture(scope="session")
def make_deployment():
    """build_deployment, for tests (session scoped, so hypothesis tests may
    use it too)."""
    return build_deployment


@pytest.fixture
def radio():
    return SimConfig()


@pytest.fixture
def small_config():
    # small field/population so full runs finish in well under a second
    return SimConfig(n=20, max_rounds=200, seed=3)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance tests register one line per criterion; echo them at the end
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", []) if mod else []
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
