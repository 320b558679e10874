"""Interval projection operators in the number basis and their Heisenberg dynamics.

The projector onto a position interval V has matrix elements
<m|P_V|n> = integral over V = [a, b] of phi_m(x) phi_n(x) dx, in closed form
(see `quadrature`): off the diagonal it is the Wronskian difference
[phi_m' phi_n - phi_m phi_n']_a^b / (2(n - m)), and on it the recurrence
D_{n+1} = D_n - [phi_n phi_{n+1}]_a^b / sqrt(2(n+1)) from D_0 = (erf b - erf a)/2.
In the Heisenberg picture the matrix acquires phases e^{-i(m-n) omega t};
averaging those phases over a measurement window suppresses every
off-diagonal entry by at least 2 / (|m-n| omega T).
"""

from dataclasses import dataclass

import numpy as np

from .oscillator import OscillatorBasis
from .quadrature import interval_overlaps


@dataclass(frozen=True)
class IntervalRegion:
    """A position interval [lower, upper]; either end may be infinite."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"region requires lower < upper, got [{self.lower}, {self.upper}]")

    def contains(self, x):
        return (np.asarray(x) >= self.lower) & (np.asarray(x) <= self.upper)


FULL_LINE = IntervalRegion(-np.inf, np.inf)


@dataclass(frozen=True, eq=False)
class ProjectorMatrix:
    """Dense real symmetric matrix of P_V on a truncated basis."""

    entries: np.ndarray
    region: IntervalRegion
    basis: OscillatorBasis

    def __post_init__(self):
        h = np.max(np.abs(self.entries - self.entries.conj().T))
        if h > 1e-10:
            raise ValueError(f"projector entries not Hermitian (defect {h:.3e})")


def projector_matrix(region: IntervalRegion, basis: OscillatorBasis) -> ProjectorMatrix:
    """Build P_V from the exact antiderivatives of phi_m phi_n."""
    entries = interval_overlaps(region.lower, region.upper, basis.dim)
    return ProjectorMatrix(entries, region, basis)


def _phases(basis: OscillatorBasis, t: float) -> np.ndarray:
    m = np.arange(basis.dim)
    return np.exp(-1j * (m[:, None] - m[None, :]) * basis.omega * t)


def heisenberg_projector(P: ProjectorMatrix, t: float) -> np.ndarray:
    """P_V(t) with entries e^{-i(m-n) omega t} <m|P_V|n>."""
    return P.entries * _phases(P.basis, t)


def time_averaged_projector(P: ProjectorMatrix, duration: float) -> np.ndarray:
    """(1/T) integral of P_V(t) over [0, T], phase factors in closed form."""
    if not duration > 0:
        raise ValueError(f"averaging window must be positive, got {duration}")
    m = np.arange(P.basis.dim)
    delta = (m[:, None] - m[None, :]) * P.basis.omega
    z = delta * duration
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(z == 0.0, 1.0 + 0.0j, (1.0 - np.exp(-1j * z)) / (1j * z))
    return P.entries * factor


def bin_regions(width: float = 0.1, extent: float = 6.0) -> list[IntervalRegion]:
    """Contiguous bins of `width` covering [-extent, extent] for sketching."""
    if width <= 0 or extent <= 0:
        raise ValueError("bin width and extent must be positive")
    n = int(round(2.0 * extent / width))
    edges = np.linspace(-extent, extent, n + 1)
    return [IntervalRegion(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
