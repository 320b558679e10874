"""Thermal weights, their purification, and two-state density readings.

A thermal oscillator is diagonal in the energy basis, with the Boltzmann
weights of `thermal_weights`; the pure "purification" state, whose
amplitudes are the square roots of those weights, gives the same averages
for every energy-diagonal observable.  A pre- and post-selected pair
defines the generally non-Hermitian two-state density
rho(t) = |Psi(t)><Phi(t)| / <Phi|U(T)|Psi>, which has unit trace, obeys the
von Neumann equation, and reproduces weak values through tr(A rho) / tr(rho).
It has rank one, so `two_state_readings` reads that trace formula and the
Hermiticity defect off its two vectors.  Its denominator and overlap floor
are those of the direct weak value (`weak.post_selection_overlap`);
tr(A rho) / tr(rho) divides that denominator out again, so the trace
formula stays an independent check of the direct weak value.
"""

import math

import numpy as np

from .errors import TruncationError
from .oscillator import DualState, OscillatorBasis, StateVector, check_positive, evolve
from .weak import _apply, post_selection_overlap

THERMAL_TAIL_LIMIT = 1e-10


def _boltzmann_check(beta: float, basis: OscillatorBasis) -> float:
    """beta omega, once it and the truncation tail are checked.

    Raises ValueError naming beta unless beta and beta omega are positive
    and finite, and TruncationError if the tail
    e^{-dim beta omega} / (1 - e^{-beta omega}) exceeds THERMAL_TAIL_LIMIT.
    The tail is formed on Python floats, which overflow to inf without a
    warning, and its denominator as -expm1(-beta omega), which is positive
    for every positive beta omega.
    """
    check_positive(beta, "beta")
    bw = float(beta) * float(basis.omega)
    check_positive(bw, "beta*omega")
    tail = math.exp(-basis.dim * bw) / -math.expm1(-bw)
    if tail > THERMAL_TAIL_LIMIT:
        raise TruncationError(
            f"thermal tail {tail:.3e} exceeds {THERMAL_TAIL_LIMIT:g} at "
            f"beta*omega={bw:g}, dim={basis.dim}; enlarge dim or cool down")
    return bw


def thermal_weights(beta: float, basis: OscillatorBasis) -> np.ndarray:
    """The Boltzmann occupations e^{-beta omega n}, renormalized on the truncated basis.

    The thermal state is the diagonal matrix of these weights; they are
    formed in O(dim), with no dense matrix.
    """
    bw = _boltzmann_check(beta, basis)
    with np.errstate(over="ignore"):   # -bw n overflows to -inf, whose exp is the 0 it stands for
        w = np.exp(-bw * np.arange(basis.dim))
    return w / w.sum()


def thermal_purification(beta: float, basis: OscillatorBasis) -> StateVector:
    """Pure state whose amplitudes are sqrt-Boltzmann weights.

    Its expectation values equal thermal averages for every observable
    diagonal in the energy basis; off-diagonal observables see the phases
    between components and generally disagree with the mixture.
    """
    bw = _boltzmann_check(beta, basis)
    with np.errstate(over="ignore"):   # as in thermal_weights
        amps = np.exp(-0.5 * bw * np.arange(basis.dim))
    return StateVector(amps.astype(np.complex128), basis)


def two_state_readings(A, pre: StateVector, post: DualState, times, duration: float):
    """(weak values, Hermiticity defects) of the two-state density at each time.

    rho(t) = |k><b| / (b.k), with k = U(t)|Psi> and <b| = <Phi|U(T - t), has
    rank one and unit trace, so both readings come off the two vectors and
    no dim x dim density is formed: the trace-formula weak value
    tr(A rho) / tr(rho) = b.(A k) / (b.k), and, k being a unit vector,
    ||rho - rho^dag||_F = sqrt(2) ||c|| / |b.k|, with c = b - (b.k) conj(k)
    the conjugate of the part of conj(b) orthogonal to k.  c is formed as a
    vector, so a defect near 0 (trivial post-selection) stays at rounding
    level, where the equal form sqrt(2 (||b||^2 / |b.k|^2 - 1)) cancels to
    about 1e-8, or to a ratio below 1.  A number-state Psi only gains a
    global phase, which cancels from rho, so k is Psi at every t: A k is
    formed once, each time costs O(dim), and c is b with entry n cancelled
    (exactly, for `number_state`).  Any other Psi forms one A k per time.
    Both readings are invariant to the scale of b, so b is the phase product
    d o e^{-i E (T - t)} and is not renormalized.  Raises PostSelectionError
    below OVERLAP_FLOOR (from `post_selection_overlap`) and ValueError for a
    time outside [0, duration], or NaN.
    """
    if not all(0.0 <= t <= duration for t in times):
        raise ValueError(f"a time lies outside the measurement window [0, {duration}]")
    post_selection_overlap(pre, post, duration)
    rate = -1j * post.basis.energies()
    stationary = np.count_nonzero(pre.amplitudes) == 1
    weak, defect = np.empty(len(times), dtype=complex), np.empty(len(times))
    for i, t in enumerate(times):
        if i == 0 or not stationary:
            k = pre.amplitudes if stationary else evolve(pre, t).amplitudes
            Ak, k_bar = _apply(A, k), k.conj()
        b = post.amplitudes * np.exp(rate * (duration - t))
        overlap = b @ k
        weak[i] = b @ Ak / overlap
        b -= overlap * k_bar   # c, in place
        defect[i] = math.sqrt(2.0 * np.vdot(b, b).real) / abs(overlap)
    return weak, defect
