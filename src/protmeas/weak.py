"""Weak values and pointer traces for pre- and post-selected measurements.

The coupling profile g(t) is a 1/T plateau with raised-cosine ramps at both
ends, rescaled so its integral is exactly 1.  A pointer coupled to an
observable A of a pre- and post-selected system accumulates the real part of
the weak value

    A_w(t) = <Phi_f(t)| A |Phi_i(t)> / <Phi_f| U(T) |Phi_i>,

where the pre-selected ket evolves forward from t=0 and the post-selected bra
evolves backward from t=T.  The denominator is time independent, so a single
near-orthogonality check covers the whole trace.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PostSelectionError
from .oscillator import DualState, StateVector

OVERLAP_FLOOR = 1e-8


@dataclass(frozen=True)
class MeasurementSchedule:
    """Coupling profile g(t) over a window of length `duration`.

    ramp_fraction is the fraction of the window spent in each raised-cosine
    ramp; the plateau height is 1 / (duration * (1 - ramp_fraction)) so that
    the closed-form integral of g equals 1 exactly.
    """

    duration: float
    ramp_fraction: float = 0.05
    steps: int = 4096

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0.0 <= self.ramp_fraction <= 0.5:
            raise ValueError(f"ramp_fraction must lie in [0, 0.5], got {self.ramp_fraction}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")

    @property
    def plateau(self) -> float:
        return 1.0 / (self.duration * (1.0 - self.ramp_fraction))

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.duration, self.steps + 1)

    def g(self, t):
        """Coupling strength at time t (vectorized, zero outside the window)."""
        t = np.asarray(t, dtype=float)
        h, T = self.plateau, self.duration
        ramp = self.ramp_fraction * T
        out = np.where((t >= 0.0) & (t <= T), h, 0.0)
        # each ramp is evaluated only where it applies: elsewhere t / ramp
        # overflows for a subnormal ramp
        up = (t >= 0.0) & (t < ramp)
        down = ~up & (t > T - ramp) & (t <= T)
        out[up] = 0.5 * h * (1.0 - np.cos(np.pi * t[up] / ramp))
        out[down] = 0.5 * h * (1.0 - np.cos(np.pi * (T - t[down]) / ramp))
        return out if out.shape else float(out)

    def cumulative(self, t):
        """Closed-form integral of g over [0, t]; cumulative(duration) == 1."""
        h, T = self.plateau, self.duration
        ramp = self.ramp_fraction * T
        tc = np.clip(np.asarray(t, dtype=float), 0.0, T)
        out = np.asarray(0.5 * h * ramp + h * (tc - ramp))
        up = tc < ramp
        down = ~up & (tc > T - ramp)
        rise, tail = tc[up], T - tc[down]
        out[up] = 0.5 * h * (rise - (ramp / np.pi) * np.sin(np.pi * rise / ramp))
        out[down] = 1.0 - 0.5 * h * (tail - (ramp / np.pi) * np.sin(np.pi * tail / ramp))
        return out if out.shape else float(out)


def as_matrix(A) -> np.ndarray:
    """Accept a bare matrix or anything carrying `.entries` (ProjectorMatrix)."""
    return np.asarray(getattr(A, "entries", A))


def _require_hermitian(A: np.ndarray):
    scale = max(1.0, float(np.max(np.abs(A))))
    defect = float(np.max(np.abs(A - A.conj().T)))
    if defect > 1e-10 * scale:
        raise ValueError(f"operator is not Hermitian (defect {defect:.3e})")


def expectation(A, state: StateVector) -> float:
    """<state|A|state> for Hermitian A; the roundoff imaginary part is dropped."""
    mat = as_matrix(A)
    _require_hermitian(mat)
    val = complex(np.vdot(state.amplitudes, mat @ state.amplitudes))
    return val.real


def weak_value(A, pre: StateVector, post: DualState, t: float, duration: float,
               overlap_floor: float = OVERLAP_FLOOR) -> complex:
    """The exact weak value of A at time t within a window of length `duration`."""
    mat = as_matrix(A)
    energies = pre.basis.energies()
    ket = pre.amplitudes * np.exp(-1j * energies * t)
    bra = post.amplitudes * np.exp(-1j * energies * (duration - t))
    den = complex(np.dot(bra, ket))
    if abs(den) < overlap_floor:
        raise PostSelectionError(
            f"pre/post overlap {abs(den):.3e} below floor {overlap_floor:g}; "
            "weak value unreliable")
    return complex(np.dot(bra, mat @ ket)) / den


def weak_value_series(A, pre: StateVector, post: DualState, times,
                      duration: float,
                      overlap_floor: float = OVERLAP_FLOOR):
    """Vectorized weak values on a time grid.

    Returns (values, flagged): flagged marks grid points whose overlap fell
    below the floor; those values are NaN rather than extrapolated.
    """
    mat = as_matrix(A)
    energies = pre.basis.energies()
    times = np.asarray(times, dtype=float)
    ket = pre.amplitudes[:, None] * np.exp(-1j * np.outer(energies, times))
    bra = post.amplitudes[:, None] * np.exp(-1j * np.outer(energies, duration - times))
    den = np.sum(bra * ket, axis=0)
    num = np.sum(bra * (mat @ ket), axis=0)
    flagged = np.abs(den) < overlap_floor
    values = np.where(flagged, np.nan + 0j, num / np.where(flagged, 1.0, den))
    return values, flagged


@dataclass(frozen=True)
class WeakValueSample:
    """One weak-value sample; real and equal to the expectation value when
    the post-selection is the evolved pre-selection."""

    t: float
    value: complex


def weak_value_samples(A, pre: StateVector, post: DualState, times,
                       duration: float,
                       overlap_floor: float = OVERLAP_FLOOR) -> list:
    """Weak values on a grid as labeled samples (flagged points excluded)."""
    values, flagged = weak_value_series(A, pre, post, times, duration, overlap_floor)
    return [WeakValueSample(float(t), complex(v))
            for t, v, bad in zip(np.asarray(times), values, flagged) if not bad]


def closed_form_pvi_weak(alpha_mod: float, delta: float, x0: float,
                         omega: float, duration: float, t):
    """Point-interval weak-value density at x0 for |0> pre / <alpha| post.

    Evaluates the oscillatory closed form

        pi^{-1/2} e^{(|a|^2 - x0^2)/2} cos(Xi(t))
            * exp(-[x0 - sqrt(2)|a| cos(omega (T-t) + delta)]^2 / 2)

    with Xi(t) = omega T / 2 + (|a|^2 / 2) sin(2 (omega (T-t) + delta))
    - sqrt(2) |a| x0 sin(omega (T-t) + delta).  The value is per unit interval
    width; multiply by w to approximate the weak value of P over an interval
    of width w around x0.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > duration):
        raise ValueError("t must lie inside the measurement window [0, duration]")
    theta = omega * (duration - t) + delta
    xi = (omega * duration / 2.0
          + 0.5 * alpha_mod ** 2 * np.sin(2.0 * theta)
          - np.sqrt(2.0) * alpha_mod * x0 * np.sin(theta))
    envelope = np.exp(-0.5 * (x0 - np.sqrt(2.0) * alpha_mod * np.cos(theta)) ** 2)
    out = np.pi ** -0.5 * np.exp((alpha_mod ** 2 - x0 ** 2) / 2.0) * np.cos(xi) * envelope
    return out if out.shape else float(out)


@dataclass(frozen=True, eq=False)
class PointerTrace:
    """Expected pointer reading against time, coupling-normalized."""

    times: np.ndarray
    readings: np.ndarray
    values: np.ndarray       # integrand: Re weak value, or expectation value
    flagged: np.ndarray      # grid points where the overlap floor was violated

    @property
    def final_reading(self) -> float:
        return float(self.readings[-1])

    @property
    def any_flagged(self) -> bool:
        return bool(np.any(self.flagged))


def pointer_trace(schedule: MeasurementSchedule, pre: StateVector, A,
                  post: DualState | None = None,
                  overlap_floor: float = OVERLAP_FLOOR) -> PointerTrace:
    """Accumulated pointer reading for a post-selected (or trivial) measurement.

    readings(t) = integral over [0, t] of g(t') * Re A_w(t') dt', accumulated
    by the trapezoid rule on the schedule grid.  With `post=None` (trivial
    post-selection) the integrand is the expectation value in the evolved
    pre-selected state.  Flagged grid points contribute zero and are reported
    on the trace instead of failing the run.
    """
    times = schedule.times
    mat = as_matrix(A)
    if post is None:
        _require_hermitian(mat)
        energies = pre.basis.energies()
        ket = pre.amplitudes[:, None] * np.exp(-1j * np.outer(energies, times))
        values = np.sum(np.conj(ket) * (mat @ ket), axis=0).real
        flagged = np.zeros(times.shape, dtype=bool)
    else:
        wv, flagged = weak_value_series(A, pre, post, times, schedule.duration,
                                        overlap_floor)
        values = np.where(flagged, 0.0, wv.real)
    rate = schedule.g(times) * values
    increments = 0.5 * (rate[1:] + rate[:-1]) * np.diff(times)
    readings = np.concatenate([[0.0], np.cumsum(increments)])
    return PointerTrace(times=times, readings=readings, values=values, flagged=flagged)
