"""Interval projection operators in the number basis and their Heisenberg dynamics.

The projector onto a position interval V has matrix elements
<m|P_V|n> = integral over V of phi_m(x) phi_n(x) dx, in closed form from the
Hermite functions at the interval's edges (see `quadrature`, which also
gives sketch bin probabilities from the edges that `bin_edges` returns).
In the Heisenberg picture the matrix acquires phases e^{-i(m-n) omega t};
averaging those phases over a measurement window suppresses every
off-diagonal entry by at least 2 / (|m-n| omega T).
"""

from dataclasses import dataclass
from math import inf

import numpy as np

from .oscillator import OscillatorBasis, check_phase, hermitian_defect
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
    """Dense real symmetric matrix of P_V on a truncated basis.

    Entries are checked for Hermiticity once, when the object is made, and
    kept read-only, so the functions that take one (`expectation`,
    `pointer_trace`) do not check them again.
    """

    entries: np.ndarray
    region: IntervalRegion
    basis: OscillatorBasis

    def __post_init__(self):
        # a read-only copy: a later write to the caller's array cannot undo the check
        entries = np.array(self.entries)
        entries.flags.writeable = False
        h = hermitian_defect(entries)
        if h > 1e-10:
            raise ValueError(f"projector entries not Hermitian (defect {h:.3e})")
        object.__setattr__(self, "entries", entries)


def projector_matrix(region: IntervalRegion, basis: OscillatorBasis) -> ProjectorMatrix:
    """Build P_V from the exact antiderivatives of phi_m phi_n.

    `interval_overlaps` gives an exactly symmetric matrix, since
    fl(d_m p_n) = fl(p_n d_m) (`test_projector_entries_are_exactly_symmetric`),
    so the result skips the Hermiticity pass; its entries are read-only.
    """
    entries = interval_overlaps(region.lower, region.upper, basis.dim)
    entries.flags.writeable = False
    P = object.__new__(ProjectorMatrix)   # bypasses __init__ and so the pass
    P.__dict__.update(entries=entries, region=region, basis=basis)
    return P


def _phases(basis: OscillatorBasis, t: float) -> np.ndarray:
    check_phase(basis.omega * (basis.dim - 1), t)
    m = np.arange(basis.dim)
    return np.exp(-1j * (m[:, None] - m[None, :]) * basis.omega * t)


def heisenberg_projector(P: ProjectorMatrix, t: float) -> np.ndarray:
    """P_V(t) with entries e^{-i(m-n) omega t} <m|P_V|n>.

    Raises ValueError if the largest phase (dim - 1) omega |t| overflows.
    """
    return P.entries * _phases(P.basis, t)


def time_averaged_projector(P: ProjectorMatrix, duration: float) -> np.ndarray:
    """(1/T) integral of P_V(t) over [0, T], phase factors in closed form.

    Raises ValueError unless T is positive and finite and the largest phase
    (dim - 1) omega T is finite.
    """
    if not 0 < duration < inf:
        raise ValueError(f"averaging window must be positive and finite, got {duration}")
    check_phase(P.basis.omega * (P.basis.dim - 1), duration, "duration")
    m = np.arange(P.basis.dim)
    delta = (m[:, None] - m[None, :]) * P.basis.omega
    z = delta * duration
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(z == 0.0, 1.0 + 0.0j, (1.0 - np.exp(-1j * z)) / (1j * z))
    return P.entries * factor


# quadrature.bin_probabilities holds up to four (dim + 1) x (bins + 1) tables
# of floats at once: about 135 MB for this many bins at dim 1024
MAX_BINS = 4096


def bin_edges(width: float = 0.1, extent: float = 6.0) -> np.ndarray:
    """The edges of contiguous bins of `width` covering [-extent, extent] for sketching.

    Raises ValueError unless width and extent are finite and positive and
    the bins number a whole 2 extent / width (to 1e-9 relative) between 1
    and MAX_BINS.
    """
    if not (0 < width < inf and 0 < extent < inf):
        raise ValueError(f"bin width {width} and extent {extent} must be finite and positive")
    count = 2.0 * extent / width
    if not 0.5 <= count < MAX_BINS + 0.5:
        raise ValueError(f"bin width {width} over [-{extent}, {extent}] gives {count:g} bins, "
                         f"outside [1, MAX_BINS = {MAX_BINS}]")
    if abs(count - round(count)) > 1e-9 * count:
        raise ValueError(f"bin width {width} does not divide [-{extent}, {extent}] into "
                         f"whole bins (2 extent / width = {count!r})")
    return np.linspace(-extent, extent, round(count) + 1)
