import numpy as np
import pytest

from stokesheat import ObservationRegion, assemble_basis, obs_gramian


@pytest.fixture(scope="session")
def basis60():
    return assemble_basis(60.0)


@pytest.fixture(scope="session")
def basis120():
    return assemble_basis(120.0)


@pytest.fixture(scope="session")
def basis220():
    return assemble_basis(220.0)


@pytest.fixture(scope="session")
def basis500():
    return assemble_basis(500.0)


@pytest.fixture(scope="session")
def basis1200():
    return assemble_basis(1200.0)


@pytest.fixture(scope="session")
def region_half():
    return ObservationRegion(x1=(0.0, np.pi), x2=(0.3, 0.7))


@pytest.fixture(scope="session")
def region_small():
    return ObservationRegion(x1=(0.0, 0.5 * np.pi), x2=(0.4, 0.6))


@pytest.fixture(scope="session")
def gram120(basis120, region_half):
    return obs_gramian(basis120, region_half)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
