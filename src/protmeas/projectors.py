"""Interval projection operators in the number basis and their Heisenberg dynamics.

The projector onto a position interval V has matrix elements
<m|P_V|n> = integral over V of phi_m(x) phi_n(x) dx, in closed form from the
Hermite functions at the interval's edges (see `quadrature`, which also
gives sketch bin probabilities from the edges that `bin_edges` returns).
In the Heisenberg picture the matrix acquires phases e^{i(m-n) omega t};
averaging those phases over a measurement window suppresses every
off-diagonal entry by at least 2 / (|m-n| omega T) (`dephasing_bound`).
"""

from dataclasses import dataclass, field
from math import inf

import numpy as np

from .oscillator import OscillatorBasis, _heisenberg_phases, _sinc, check_positive
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


@dataclass(frozen=True, eq=False)
class ProjectorMatrix:
    """P_V for `region` on the truncated `basis`, as a dense real symmetric matrix.

    `entries` are read-only `interval_overlaps` of the region on the basis,
    exactly symmetric since fl(d_m p_n) = fl(p_n d_m), so `expectation` and
    `pointer_trace` make no Hermiticity pass on them.  Other matrices are passed bare.
    """

    region: IntervalRegion
    basis: OscillatorBasis
    entries: np.ndarray = field(init=False)

    def __post_init__(self):
        entries = interval_overlaps(self.region.lower, self.region.upper, self.basis.dim)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


def projector_matrix(region: IntervalRegion, basis: OscillatorBasis) -> ProjectorMatrix:
    """Build P_V from the exact antiderivatives of phi_m phi_n: `ProjectorMatrix(region, basis)`."""
    return ProjectorMatrix(region, basis)


def heisenberg_projector(P: ProjectorMatrix, t: float) -> np.ndarray:
    """P_V(t) = U(t)^dag P_V U(t), with entries e^{i(m-n) omega t} <m|P_V|n>.

    Raises ValueError if the largest phase (dim - 1) omega |t| overflows.
    """
    return P.entries * np.exp(1j * _heisenberg_phases(P.basis, t))


def time_averaged_projector(P: ProjectorMatrix, duration: float) -> np.ndarray:
    """(1/T) integral of P_V(t) over [0, T], phase factors in closed form.

    With z = (m - n) omega T the factor (e^{iz} - 1) / (iz) is formed as
    e^{iz/2} _sinc(z/2), which is 1 where z/2 is 0: this keeps its
    imaginary part at small z and stays finite where omega T underflows.
    Raises ValueError unless T is positive and finite and the largest phase
    (dim - 1) omega T is finite.
    """
    check_positive(duration, "averaging window")
    half = 0.5 * _heisenberg_phases(P.basis, duration, "duration")
    return P.entries * (np.exp(1j * half) * _sinc(half))


def dephasing_bound(P: ProjectorMatrix, duration: float) -> np.ndarray:
    """min(|P_mn|, 2 |P_mn| / (|m - n| omega T)), which bounds |time_averaged_projector|.

    The window average multiplies P_mn by a factor of modulus
    |sin(z/2) / (z/2)| <= min(1, 2 / |z|), z = (m - n) omega T.  The second
    term is inf or NaN on the diagonal, and inf where omega T underflows:
    the minimum takes |P_mn| there.  Raises ValueError as
    `time_averaged_projector` does.
    """
    check_positive(duration, "averaging window")
    p = np.abs(P.entries)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.fmin(p, 2.0 * p / np.abs(_heisenberg_phases(P.basis, duration, "duration")))


# quadrature.bin_probabilities holds up to four (K + 1) x (bins + 1) tables of
# floats at once, K <= dim the amplitudes it keeps: about 135 MB for this many
# bins at K = 1024
MAX_BINS = 4096


def bin_edges(width: float, extent: float) -> np.ndarray:
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
