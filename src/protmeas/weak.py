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
it is computed once per call, with the evolved bra, by `_weak_parts` (which
`twostate` shares) and checked once against OVERLAP_FLOOR: below the floor
the whole run fails with PostSelectionError, and a pointer trace records one
flag.

With <Phi_f| = sum_m d_m <m| and |Psi_i> = sum_n a_n |n>, the numerator is

    N(t) = sum_{m,n} d_m e^{-i E_m T} A_mn a_n e^{i (E_m - E_n) t}
         = sum_k c_k z^k,    z = e^{i omega t},

because E_m - E_n = (m - n) omega under either zero-point convention (the
zero point enters only through e^{-i E_m T}).  The 2 dim - 1 coefficients
c_k, k = m - n, are the diagonal sums of a time-independent dim x dim
matrix, so N(t) is a trigonometric polynomial of K significant terms.

On a grid, a 1-D array of S >= 2 times equal to its own np.linspace(t_0,
t_{S-1}, S) (every MeasurementSchedule.times is one), N is one complex
matrix product: with J = isqrt(S), Q = ceil(S / J), j = J q + r and dt the
grid step, e^{i k omega t_j} = e^{i k omega t_{Jq}} e^{i k omega r dt}, so
the Q x K array c_k e^{i k omega t_{Jq}} times the K x J array
e^{i k omega r dt} gives all S values from one BLAS call and about
K sqrt(S) exponentials (the factors of k < 0 are the conjugates of those of
-k).  The times t_{Jq} + r dt part from the linspace's t_j by about
2 u max|t|, and each phase is rounded once, so a term moves by a few
u |k| omega max|t| |c_k| and the sums round by a few u K sum |c_k|.

Every other time array (a scalar, an empty, one-element or 2-D array, or
arbitrary times) takes Horner's rule in z for k >= 0 and in conj(z) for
k < 0, one vector multiply-add per coefficient.  Horner's rule is backward
stable, and for |z| = 1 its error stays at roundoff times sum |c_k|
(Higham, Accuracy and Stability of Numerical Algorithms, sec. 5.1); summing
the two halves from k = 0 outward keeps the phase error of each term
proportional to |k|, as in a direct evaluation of every e^{-i E_n t}.

Number- and coherent-state amplitudes fall off faster than exponentially, so
`_significant` cuts the bra and the a_n before the fold, and each half of
the c_k before either evaluation, to the terms above rounding level; the
cut moves N(t) by at most 3 u max|A_mn| ||d||_1 ||a||_1, u = eps/2.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import PostSelectionError
from .oscillator import (DualState, StateVector, _real_matmul, _row_blocks, _significant,
                         _state_phases, check_count, check_phase, check_positive, evolve,
                         hermitian_defect)
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
        if not isinstance(self.ramp_fraction, numbers.Real):
            raise ValueError(f"ramp_fraction must be a real number, got {self.ramp_fraction!r}")
        if not 0.0 <= self.ramp_fraction <= 0.5:
            raise ValueError(f"ramp_fraction must lie in [0, 0.5], got {self.ramp_fraction}")
        check_count(self.steps, "steps", 2)
        width = self.duration * (1.0 - self.ramp_fraction)   # zero if it underflows
        if not (width > 0.0 and 1.0 / width < math.inf):
            raise ValueError(f"the plateau height 1/(duration (1 - ramp_fraction)) overflows "
                             f"at duration={self.duration:g}")

    @property
    def plateau(self) -> float:
        return 1.0 / (self.duration * (1.0 - self.ramp_fraction))

    @functools.cached_property
    def times(self) -> np.ndarray:
        """The steps + 1 grid times, formed once and read-only, so every user shares them."""
        times = np.linspace(0.0, self.duration, self.steps + 1)
        times.flags.writeable = False
        return times

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
    """A v for the vector or matrix of columns v; a real A acts on the (re, im) pairs of v.

    `mat @ v` would make a complex copy of a real A.
    """
    mat = as_matrix(A)
    if not np.isrealobj(mat):
        return mat @ v
    return _real_matmul(mat, v) if v.ndim == 2 else _real_matmul(mat, v[:, None])[:, 0]


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
    return _overlap(pre, post, _state_phases(pre.basis, duration, "duration"))


def _overlap(pre: StateVector, post: DualState, phases) -> complex:
    """<Phi_f| U(T) |Psi_i> from the phases e^{-i E T} of U(T), checked as above."""
    den = complex(np.dot(post.amplitudes, pre.amplitudes * phases))
    if not OVERLAP_FLOOR <= abs(den) < np.inf:
        raise PostSelectionError(
            f"pre/post overlap {abs(den):.3e} is not a finite value above floor "
            f"{OVERLAP_FLOOR:g}; weak value unreliable")
    return den


def _window_times(times, duration: float) -> np.ndarray:
    """times as a float array, once each lies in the window [0, duration] (NaN does not)."""
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & (times <= duration)):
        raise ValueError(f"a time lies outside the measurement window [0, {duration}]")
    return times


def _weak_parts(A, pre: StateVector, post: DualState, times, duration: float):
    """The parts of a weak value that do not depend on t, formed once per call.

    Returns (times, den, bra, its cut, the cut a_n): the times as a float
    array, den = <Phi_f|U(T)|Psi_i>, the bra d o e^{-i E T} and the
    `_significant` cuts of that bra and of the amplitudes a_n; the phases
    e^{-i E T} are formed once for den and the bra.  Raises ValueError for
    a time outside [0, duration] or NaN, then unless pre and post share one
    basis and A is dim x dim on it, and PostSelectionError for an overlap
    below OVERLAP_FLOOR.
    """
    times = _window_times(times, duration)
    if post.basis != pre.basis or as_matrix(A).shape != (pre.basis.dim, pre.basis.dim):
        raise ValueError(f"a weak value needs one basis and a dim x dim operator: pre on "
                         f"{pre.basis}, post on {post.basis}, operator {as_matrix(A).shape}")
    phases = _state_phases(pre.basis, duration, "duration")
    den = _overlap(pre, post, phases)
    bra = post.amplitudes * phases
    return times, den, bra, _significant(bra), _significant(pre.amplitudes)


def _horner(coeffs, z):
    """sum_k coeffs[k] z^k by Horner's rule, one vector multiply-add per coefficient."""
    values = np.full(z.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        values *= z
        values += c
    return values


def _on_grid(times) -> bool:
    """Whether times is a 1-D array of at least two points, equal to its own linspace."""
    return (times.ndim == 1 and times.size > 1
            and np.array_equal(times, np.linspace(times[0], times[-1], times.size)))


def _grid_series(ahead, behind, omega, times):
    """sum_k c_k e^{i k omega t} on the linspace `times` as one matrix product.

    ahead holds c_0, c_1, ... and behind c_{-1}, c_{-2}, ...  With
    J = isqrt(S) and j = J q + r, e^{i k omega t_j} is the product of
    e^{i k omega t_{Jq}} (a row) and e^{i k omega r dt} (a column); the
    factors of k < 0 are the conjugates of those of -k.
    """
    size = times.size
    cols = math.isqrt(size)
    dt = (times[-1] - times[0]) / (size - 1)
    rate = omega * np.arange(max(ahead.size, behind.size + 1))
    rows = np.exp(1j * np.outer(times[::cols], rate))
    phases = np.exp(1j * np.outer(rate, dt * np.arange(cols)))
    back = slice(1, behind.size + 1)
    rows = np.hstack([ahead * rows[:, :ahead.size], behind * rows[:, back].conj()])
    phases = np.vstack([phases[:ahead.size], phases[back].conj()])
    return (rows @ phases).ravel()[:size]


def weak_value_series(A, pre: StateVector, post: DualState, times, duration: float):
    """Weak values A_w(t) at arbitrary times inside a window of length `duration`.

    The numerator is the trigonometric polynomial sum_k c_k e^{i k omega t}
    of the module docstring: its coefficients are folded once from the
    terms d_m e^{-i E_m T} A_mn a_n along the diagonals m - n = k, then it
    is evaluated with no dim x times array.  A linspace grid of two or more
    times takes one (Q x K)(K x J) matrix product, J = isqrt(times.size),
    within a few u K (1 + omega max|t|) sum |c_k| / |<Phi_f|U(T)|Psi_i>| of
    Horner's rule; any other times (a scalar, an empty, one-element or 2-D
    array, arbitrary times) take Horner's rule, O(dim) vector operations
    over the times.  Only the bra entries and amplitudes a_n that
    `_significant` keeps are folded, and each half of the c_k is cut the
    same way before either evaluation: A_w moves by at most 3 u max|A_mn|
    ||d||_1 ||a||_1 / |<Phi_f|U(T)|Psi_i>| (u = eps/2), and under Horner's
    rule vectors with no negligible tail give the full fold exactly.  The
    denominator is formed once, by `_weak_parts`, which raises ValueError
    for a time outside [0, duration] or NaN, unless pre and post share one
    basis and A is dim x dim on it, and PostSelectionError below
    OVERLAP_FLOOR.
    """
    times, den, _, bra, ket = _weak_parts(A, pre, post, times, duration)
    basis = pre.basis
    terms = bra[:, None] * as_matrix(A)[:bra.size, :ket.size] * ket[None, :]
    # c_k sums the diagonal m - n = k and is stored at index zero + k
    zero = basis.dim - 1
    diagonal = (np.arange(bra.size)[:, None] - np.arange(ket.size)[None, :] + zero).ravel()
    coeffs = (np.bincount(diagonal, terms.real.ravel(), 2 * basis.dim - 1)
              + 1j * np.bincount(diagonal, terms.imag.ravel(), 2 * basis.dim - 1))
    # k >= 0 and k < 0 (from k = -1 down), each cut to its significant run
    ahead, behind = _significant(coeffs[zero:]), _significant(coeffs[zero - 1::-1])
    if _on_grid(times):
        values = _grid_series(ahead, behind, basis.omega, times)
    else:
        z = np.exp(1j * basis.omega * times)
        values = _horner(ahead, z) + _horner(behind, z.conj()) * z.conj()
    values /= den   # in place: no second array of the times' size
    return values


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
    Raises ValueError naming omega unless it is positive and finite, delta
    unless it is finite, for a t outside [0, duration] or NaN, if |a|^2 or
    x0^2 overflows a float or is NaN, or if
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
    check_positive(omega, "omega")
    check_phase(1.0, delta, "delta")
    delta = math.remainder(delta, 2.0 * math.pi)
    t = _window_times(t, duration)
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

    The trace shares the schedule's times and keeps two real arrays of its
    own, the values and the readings; the complex series is freed on return,
    and the trapezoid is summed in the readings array, so a trace on S times
    peaks at three arrays of S floats beyond the times.
    """
    times = schedule.times
    if post is None:
        _require_hermitian(A)
        post = evolve(pre, schedule.duration).dual()
    try:
        values = weak_value_series(A, pre, post, times, schedule.duration).real.copy()
    except PostSelectionError:
        return PointerTrace(times=times, readings=np.zeros(times.shape),
                            values=np.zeros(times.shape), flagged=True)
    rate = schedule.g(times)
    rate *= values
    # readings[1:] = cumsum(0.5 (rate[1:] + rate[:-1]) diff(times)), operation
    # for operation, with rate[1:] holding diff(times) once its sums are taken
    readings = np.zeros(times.shape)
    increments = np.add(rate[1:], rate[:-1], out=readings[1:])
    increments *= 0.5
    increments *= np.subtract(times[1:], times[:-1], out=rate[1:])
    np.cumsum(increments, out=increments)
    return PointerTrace(times=times, readings=readings, values=values, flagged=False)
