import numpy as np
import pytest

import dvmbvp as dv


@pytest.fixture(scope="session")
def broadwell():
    return dv.shifted_broadwell()


@pytest.fixture(scope="session")
def disk():
    return dv.ConvexDomain.disk()


@pytest.fixture(scope="session")
def grid24(disk):
    return dv.Grid(disk, 24)


@pytest.fixture(scope="session")
def grid32(disk):
    return dv.Grid(disk, 32)


@pytest.fixture(scope="session")
def maxwellian_params():
    return 0.0, np.array([0.1, -0.2]), 0.05


@pytest.fixture(scope="session")
def maxwellian_values(broadwell, maxwellian_params):
    a, b, c = maxwellian_params
    return np.exp(a + broadwell.v @ b + c * broadwell.speeds_sq)


@pytest.fixture(scope="session")
def two_circle_model():
    """Six-velocity model from two diameter quadruples sharing two points."""
    quads = [
        [(3, 2), (1, 2), (2, 3), (2, 1)],
        [(2, 3), (4, 1), (4, 3), (2, 1)],
    ]
    return dv.generate_circle_model(quads, [1.0, 1.0])


@pytest.fixture(scope="session")
def three_circle_model():
    """Eight-velocity model from three quadruples through (2, 1), with unequal
    gammas: (2, 1)'s rows add three entries, so their order shows."""
    quads = [
        [(3, 2), (1, 2), (2, 3), (2, 1)],
        [(2, 3), (4, 1), (4, 3), (2, 1)],
        [(2, 1), (2, 5), (0, 3), (4, 3)],
    ]
    return dv.generate_circle_model(quads, [1.0, 0.7, 1.3])
