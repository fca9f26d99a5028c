import math

import numpy as np
import pytest

from gmacsec import fixtures as fx
from gmacsec import regions
from gmacsec.regions import piece_is_empty, polytope


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def nonempty(pieces):
    """The pieces that have a point, in order."""
    return [p for p in pieces if not piece_is_empty(p)]


def split_rows(coords, plain, clipped):
    """Numeric rows with [.]_+ brackets as plain pieces, empty ones kept:
    plain holds (coefficients, bound) pairs and clipped (lhs, affine, const)
    triples, one per lhs.x <= [affine.x + const]_+, expanded by the
    package's own _expand."""
    clipped = [(np.asarray(lhs, dtype=float), np.asarray(affine, dtype=float), float(c))
               for lhs, affine, c in clipped]
    return [polytope(coords, pairs)
            for pairs in regions._expand(plain, clipped, regions._at_zero)]


@pytest.fixture(scope="session")
def clean_mac():
    return fx.clean_mac()


@pytest.fixture(scope="session")
def leaky_wiretap():
    return fx.leaky_wiretap()


@pytest.fixture(scope="session")
def binary_degraded():
    return fx.binary_degraded()


@pytest.fixture(scope="session")
def pure_noise_wiretap():
    return fx.pure_noise_wiretap()


@pytest.fixture(scope="session")
def blind_destination():
    return fx.blind_destination()


@pytest.fixture(scope="session")
def noiseless_wiretapper():
    return fx.noiseless_wiretapper()


@pytest.fixture(scope="session")
def identity_copy():
    return fx.identity_copy()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
