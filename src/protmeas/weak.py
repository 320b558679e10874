"""Weak values and pointer traces for pre- and post-selected measurements.

The coupling profile g(t) is a 1/T plateau with raised-cosine ramps at both
ends, rescaled so its integral is exactly 1.  A pointer coupled to an
observable A of a pre- and post-selected system accumulates the real part of
the weak value

    A_w(t) = <Phi_f(t)| A |Psi_i(t)> / <Phi_f| U(T) |Psi_i>,

where the pre-selected ket evolves forward from t=0 and the post-selected bra
evolves backward from t=T.  `weak_value_series` is the one implementation of
this quotient, at any set of times (a single time is a one-element list);
`pointer_trace` integrates its real part, taking the trivial post-selection
to be the bra <Psi_i| U(T)^dagger, for which A_w(t) is the expectation value
in the evolved pre-selected state.  The denominator is time independent, so
it is computed once per call by `post_selection_overlap` (which `twostate`
shares) and checked once against OVERLAP_FLOOR: below the floor the whole
run fails with PostSelectionError, and a pointer trace records one flag.

With <Phi_f| = sum_m d_m <m| and |Psi_i> = sum_n a_n |n>, the numerator is

    N(t) = sum_{m,n} d_m e^{-i E_m T} A_mn a_n e^{i (E_m - E_n) t}
         = sum_k c_k z^k,    z = e^{i omega t},

because E_m - E_n = (m - n) omega under either zero-point convention (the
zero point enters only through e^{-i E_m T}).  The 2 dim - 1 coefficients
c_k, k = m - n, are the diagonal sums of a time-independent dim x dim
matrix, so N(t) is a trigonometric polynomial evaluated at arbitrary times
by Horner's rule in z for k >= 0 and in conj(z) for k < 0, one vector
multiply-add per coefficient.  Horner's rule is backward stable, and for
|z| = 1 its error stays at roundoff times sum |c_k| (Higham, Accuracy and
Stability of Numerical Algorithms, sec. 5.1); summing the two halves from
k = 0 outward keeps the phase error of each term proportional to |k|, as in
a direct evaluation of every e^{-i E_n t}.

Number- and coherent-state amplitudes fall off faster than exponentially, so
`_significant` cuts the bra and the a_n before the fold, and each half of
the c_k before Horner's rule, to the terms above rounding level; the cut
moves N(t) by at most 3 u max|A_mn| ||d||_1 ||a||_1, u = eps/2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PostSelectionError
from .oscillator import (DualState, StateVector, _real_matmul, _row_blocks, _significant,
                         _state_phases, check_positive, evolve, hermitian_defect)
from .projectors import ProjectorMatrix

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
        check_positive(self.duration, "duration")
        if not 0.0 <= self.ramp_fraction <= 0.5:
            raise ValueError(f"ramp_fraction must lie in [0, 0.5], got {self.ramp_fraction}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        width = self.duration * (1.0 - self.ramp_fraction)   # zero if it underflows
        if not (width > 0.0 and 1.0 / width < math.inf):
            raise ValueError(f"the plateau height 1/(duration (1 - ramp_fraction)) overflows "
                             f"at duration={self.duration:g}")

    @property
    def plateau(self) -> float:
        return 1.0 / (self.duration * (1.0 - self.ramp_fraction))

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.duration, self.steps + 1)

    def _ramps(self, t):
        """(ramp length, rise mask, fall mask) of the float array t.

        The rise is [0, ramp) and the fall the rest of (T - ramp, T].  Each
        ramp is evaluated only where it applies: elsewhere t / ramp
        overflows for a subnormal ramp.
        """
        T = self.duration
        ramp = self.ramp_fraction * T
        up = (t >= 0.0) & (t < ramp)
        return ramp, up, ~up & (t > T - ramp) & (t <= T)

    def g(self, t):
        """Coupling strength at time t (vectorized, zero outside the window)."""
        t = np.asarray(t, dtype=float)
        h, T = self.plateau, self.duration
        ramp, up, down = self._ramps(t)
        out = np.where((t >= 0.0) & (t <= T), h, 0.0)
        out[up] = 0.5 * h * (1.0 - np.cos(np.pi * t[up] / ramp))
        out[down] = 0.5 * h * (1.0 - np.cos(np.pi * (T - t[down]) / ramp))
        return out if out.shape else float(out)

    def cumulative(self, t):
        """Closed-form integral of g over [0, t]; cumulative(duration) == 1."""
        h, T = self.plateau, self.duration
        tc = np.clip(np.asarray(t, dtype=float), 0.0, T)
        ramp, up, down = self._ramps(tc)
        out = np.asarray(0.5 * h * ramp + h * (tc - ramp))
        rise, tail = tc[up], T - tc[down]
        out[up] = 0.5 * h * (rise - (ramp / np.pi) * np.sin(np.pi * rise / ramp))
        out[down] = 1.0 - 0.5 * h * (tail - (ramp / np.pi) * np.sin(np.pi * tail / ramp))
        return out if out.shape else float(out)


def as_matrix(A) -> np.ndarray:
    """Accept a bare matrix or anything carrying `.entries` (ProjectorMatrix)."""
    return np.asarray(getattr(A, "entries", A))


def _apply(A, v) -> np.ndarray:
    """A v for the vector v; a real A acts on the (re, im) pairs of v.

    `mat @ v` would make a complex copy of a real A.
    """
    mat = as_matrix(A)
    return _real_matmul(mat, v[:, None])[:, 0] if np.isrealobj(mat) else mat @ v


def _require_hermitian(A):
    """Refuse a non-Hermitian operator; a ProjectorMatrix is exactly symmetric as built."""
    if isinstance(A, ProjectorMatrix):
        return
    A = as_matrix(A)
    scale = max(1.0, float(np.max([np.max(np.abs(A[rows])) for rows in _row_blocks(A)])))
    defect = hermitian_defect(A)
    # an infinite entry makes the scale infinite too, so refuse inf outright
    if defect == np.inf or defect > 1e-10 * scale:
        raise ValueError(f"operator is not Hermitian (defect {defect:.3e})")


def expectation(A, state: StateVector) -> float:
    """<state|A|state> for Hermitian A; the roundoff imaginary part is dropped."""
    _require_hermitian(A)
    a = state.amplitudes
    return complex(np.vdot(a, _apply(A, a))).real


def post_selection_overlap(pre: StateVector, post: DualState, duration: float) -> complex:
    """The weak-value denominator <Phi_f| U(T) |Psi_i>, checked against OVERLAP_FLOOR.

    U(T) multiplies each a_n by e^{-i E_n T} with no renormalization, so a
    NaN or infinite amplitude makes the overlap non-finite.  Raises
    PostSelectionError unless its modulus is finite and at least the floor,
    and ValueError (from `check_phase`) if the phase E_max * duration overflows.
    """
    phases = _state_phases(pre.basis, duration, "duration")
    den = complex(np.dot(post.amplitudes, pre.amplitudes * phases))
    if not OVERLAP_FLOOR <= abs(den) < np.inf:
        raise PostSelectionError(
            f"pre/post overlap {abs(den):.3e} is not a finite value above floor "
            f"{OVERLAP_FLOOR:g}; weak value unreliable")
    return den


def _horner(coeffs, z):
    """sum_k coeffs[k] z^k by Horner's rule, one vector multiply-add per coefficient.

    The trailing run that `_significant` cuts, at most u sum |coeffs| at |z| = 1, is left out.
    """
    coeffs = _significant(coeffs)
    values = np.full(z.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        values *= z
        values += c
    return values


def weak_value_series(A, pre: StateVector, post: DualState, times, duration: float):
    """Weak values A_w(t) at arbitrary times inside a window of length `duration`.

    The numerator is the trigonometric polynomial sum_k c_k e^{i k omega t}
    of the module docstring: its coefficients are folded once from the
    terms d_m e^{-i E_m T} A_mn a_n along the diagonals m - n = k, then it
    is evaluated by Horner's rule, O(dim) vector operations over the times
    and no dim x times array.  Only the bra entries and amplitudes a_n that
    `_significant` keeps are folded, and each half of the c_k is cut the
    same way before Horner's rule: A_w moves by at most 3 u max|A_mn|
    ||d||_1 ||a||_1 / |<Phi_f|U(T)|Psi_i>| (u = eps/2), and vectors with no
    negligible tail give the full fold exactly.  The denominator is formed
    once: below OVERLAP_FLOOR the PostSelectionError of
    `post_selection_overlap` propagates.  Times outside [0, duration], or
    NaN, raise ValueError.
    """
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & (times <= duration)):
        raise ValueError(f"times must lie inside the measurement window [0, {duration}]")
    den = post_selection_overlap(pre, post, duration)
    basis = pre.basis
    bra = _significant(post.amplitudes * _state_phases(basis, duration, "duration"))
    ket = _significant(pre.amplitudes)
    terms = bra[:, None] * as_matrix(A)[:bra.size, :ket.size] * ket[None, :]
    # c_k sums the diagonal m - n = k and is stored at index zero + k
    zero = basis.dim - 1
    diagonal = (np.arange(bra.size)[:, None] - np.arange(ket.size)[None, :] + zero).ravel()
    coeffs = (np.bincount(diagonal, terms.real.ravel(), 2 * basis.dim - 1)
              + 1j * np.bincount(diagonal, terms.imag.ravel(), 2 * basis.dim - 1))
    z = np.exp(1j * basis.omega * times)
    values = _horner(coeffs[zero:], z) + _horner(coeffs[zero - 1::-1], z.conj()) * z.conj()
    return values / den


def closed_form_pvi_weak(alpha_mod: float, delta: float, x0: float,
                         omega: float, duration: float, t):
    """Point-interval weak-value density at x0 for |0> pre / <alpha| post.

    Evaluates the oscillatory closed form

        pi^{-1/2} e^{(|a|^2 - x0^2)/2} cos(Xi(t))
            * exp(-[x0 - sqrt(2)|a| cos(omega (T-t) + delta)]^2 / 2)

    with Xi(t) = omega T / 2 + (|a|^2 / 2) sin(2 (omega (T-t) + delta))
    - sqrt(2) |a| x0 sin(omega (T-t) + delta).  The value is per unit interval
    width; multiply by w to approximate the weak value of P over an interval
    of width w around x0.  delta enters only through sines and cosines, so it
    is first reduced to [-pi, pi], which leaves such a delta as it is.
    Raises ValueError if |a|^2 or x0^2 overflows a float or is NaN, or if
    the prefactor's exponent (|a|^2 - x0^2)/2 exceeds ln(float max) = 709.78,
    as from |a| = 37.7 at x0 = 1: the envelope peaks at 1 over theta, so the
    density itself has no finite peak there, and the overflowing prefactor
    times an underflowing envelope would be NaN.
    """
    # checked on Python floats, whose product gives inf where a numpy float's ** 2
    # warns and a Python float's ** 2 raises OverflowError
    if not all(math.isfinite(float(v) * float(v)) for v in (alpha_mod, x0)):
        raise ValueError(f"alpha={alpha_mod!r}, x0={x0!r}: |alpha|^2 or x0^2 "
                         f"overflows a float or is NaN")
    exponent = (alpha_mod ** 2 - x0 ** 2) / 2.0
    if not exponent <= math.log(np.finfo(float).max):
        raise ValueError(f"alpha={alpha_mod!r}, x0={x0!r}: the closed form's prefactor "
                         f"e^((|alpha|^2 - x0^2)/2) = e^{exponent:.6g} overflows a float")
    delta = math.remainder(delta, 2.0 * math.pi)
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t <= duration)):
        raise ValueError("t must lie inside the measurement window [0, duration]")
    theta = omega * (duration - t) + delta
    xi = (omega * duration / 2.0
          + 0.5 * alpha_mod ** 2 * np.sin(2.0 * theta)
          - np.sqrt(2.0) * alpha_mod * x0 * np.sin(theta))
    envelope = np.exp(-0.5 * (x0 - np.sqrt(2.0) * alpha_mod * np.cos(theta)) ** 2)
    out = np.pi ** -0.5 * np.exp(exponent) * np.cos(xi) * envelope
    return out if out.shape else float(out)


@dataclass(frozen=True, eq=False)
class PointerTrace:
    """Expected pointer reading against time, coupling-normalized."""

    times: np.ndarray
    readings: np.ndarray
    values: np.ndarray       # integrand: Re weak value (0 when flagged)
    flagged: bool            # the overlap is below the floor

    @property
    def final_reading(self) -> float:
        return float(self.readings[-1])


def pointer_trace(schedule: MeasurementSchedule, pre: StateVector, A,
                  post: DualState | None = None) -> PointerTrace:
    """Accumulated pointer reading for a post-selected (or trivial) measurement.

    readings(t) = integral over [0, t] of g(t') * Re A_w(t') dt', accumulated
    by the trapezoid rule on the schedule grid.  With `post=None` (trivial
    post-selection) the bra is the evolved pre-selection <Psi_i| U(T)^dagger,
    for which the weak value is the expectation value in the evolved
    pre-selected state.  A post-selection below OVERLAP_FLOOR does not fail
    the run: the trace has zero values and readings and `flagged` set.
    """
    times = schedule.times
    if post is None:
        _require_hermitian(A)
        post = evolve(pre, schedule.duration).dual()
    try:
        values = weak_value_series(A, pre, post, times, schedule.duration).real
    except PostSelectionError:
        return PointerTrace(times=times, readings=np.zeros(times.shape),
                            values=np.zeros(times.shape), flagged=True)
    rate = schedule.g(times) * values
    increments = 0.5 * (rate[1:] + rate[:-1]) * np.diff(times)
    readings = np.concatenate([[0.0], np.cumsum(increments)])
    return PointerTrace(times=times, readings=readings, values=values, flagged=False)
