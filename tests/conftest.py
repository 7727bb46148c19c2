import multiprocessing

import numpy as np
import pytest

from crossinglab.potential import LinearLZ, ScaledTanhProduct, find_crossings


@pytest.fixture(scope="session")
def tanh_cubed():
    return ScaledTanhProduct(1.0, [{"power": 3, "slope": 1.0, "center": 0.0}])


@pytest.fixture(scope="session")
def tanh_cubed_catalog(tanh_cubed):
    return find_crossings(tanh_cubed)


@pytest.fixture(scope="session")
def tanh_pair():
    """Two order-3 crossings at +-2 with equal |v|."""
    return ScaledTanhProduct(1.0, [
        {"power": 3, "slope": 1.0, "center": 2.0},
        {"power": 3, "slope": 1.0, "center": -2.0},
    ])


@pytest.fixture(scope="session")
def tanh_pair_catalog(tanh_pair):
    return find_crossings(tanh_pair)


@pytest.fixture(scope="session")
def lz_windowed():
    return LinearLZ(slope=1.0, window=8.0, sharpness=4.0)


@pytest.fixture(scope="session")
def lz_pure():
    return LinearLZ(slope=1.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a multiprocessing child running (a leaked
    sweep worker); the children are ended first so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert left == [], f"child processes left running: {left}"
