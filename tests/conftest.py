import numpy as np
import pytest

from fsisplit import ChannelGeometry, Discretization, PhysicalParams


@pytest.fixture(scope="session")
def unit_geom():
    return ChannelGeometry(1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def params():
    return PhysicalParams(rho_f=1.0, rho_s=1.0, mu=0.1, l1=1.0, l2=1.0,
                          lambda_robin=1.0)


@pytest.fixture(scope="session")
def tiny_disc(unit_geom):
    """One quad per subdomain: the smallest discretization."""
    return Discretization(unit_geom, 1, 1, 1)


@pytest.fixture(scope="session")
def small_disc(unit_geom):
    """2x2 cells per subdomain: small enough for dense oracles."""
    return Discretization(unit_geom, 2, 2, 2)


@pytest.fixture(scope="session")
def run_disc(unit_geom):
    """4x4 cells per subdomain: cheap but resolved enough for dynamics."""
    return Discretization(unit_geom, 4, 4, 4)


@pytest.fixture(scope="session")
def disc8(unit_geom):
    """8x8 cells per subdomain: the studies' middle mesh."""
    return Discretization(unit_geom, 8, 8, 8)


@pytest.fixture(scope="session")
def shipped_disc(unit_geom):
    """16x16 cells per subdomain: the mesh of the shipped configs."""
    return Discretization(unit_geom, 16, 16, 16)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
