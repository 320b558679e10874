import numpy as np
import pytest

from protmeas import IntervalRegion, OscillatorBasis, StateVector, bin_edges


@pytest.fixture
def basis():
    return OscillatorBasis(dim=64)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_state(rng, basis) -> StateVector:
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return StateVector(amps, basis)


def random_hermitian(rng, dim) -> np.ndarray:
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (M + M.conj().T)


def edge_regions(width, extent) -> list:
    """The IntervalRegion between each pair of consecutive `bin_edges`."""
    edges = bin_edges(width, extent)
    return [IntervalRegion(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
