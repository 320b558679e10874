"""Thermal weights, their purification, and two-state density readings.

A thermal oscillator is diagonal in the energy basis, with the Boltzmann
weights of `thermal_weights`; the pure "purification" state, whose
amplitudes are the square roots of those weights, gives the same averages
for every energy-diagonal observable.  A pre- and post-selected pair
defines the generally non-Hermitian two-state density
rho(t) = |Psi(t)><Phi(t)| / <Phi|U(T)|Psi>, which has unit trace, obeys the
von Neumann equation, and reproduces weak values through tr(A rho) / tr(rho).
It has rank one, so `two_state_readings` reads both off its two vectors on
one path for every pre-state: the trace formula at each time, in blocks of
times at O(K_b K_a) per time, and the Hermiticity defect, which is the same
at every time, once.  Its denominator and overlap floor are those of the
direct weak value (`weak.post_selection_overlap`); tr(A rho) / tr(rho)
divides that denominator out again, so the trace formula stays an
independent check of the direct weak value.
"""

import math

import numpy as np

from .errors import TruncationError
from .oscillator import (_BLOCK_BYTES, DualState, OscillatorBasis, StateVector, _significant,
                         _state_phases, check_positive)
from .weak import _apply, as_matrix, post_selection_overlap

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
    """(weak values at each time, Hermiticity defect) of the two-state density.

    rho(t) = |k><b| / (b.k), with k = U(t)|Psi> and <b| = <Phi|U(T - t), has
    rank one and unit trace, so both readings come off the two vectors and
    no dim x dim density is formed.  The trace-formula weak value
    tr(A rho) / tr(rho) = b.(A k) / (b.k) is read at each time.  k and b are
    the `_significant` K_a and K_b amplitudes of Psi and of d o e^{-i E T},
    times the phases e^{-i E t} and their conjugates: one exponential array
    per block of times of about _BLOCK_BYTES, and one real product A k per
    block on A[:K_b, :K_a], so S times cost O(K_b K_a S).

    k being a unit vector, ||rho - rho^dag||_F = sqrt(2) ||c(t)|| / |b.k|,
    c(t) = b - (b.k) conj(k).  U is a diagonal of phases, so b.k is the
    overlap den = <Phi|U(T)|Psi> and c(t) = e^{i E t} o c, with
    c = d o e^{-i E T} - den conj(a): the defect is the one float
    sqrt(2) ||c|| / |den|.  c is formed as a vector, so a trivial
    post-selection reads rounding level (exactly 0 for pre and post |0>
    with E_0 = 0), where the equal sqrt(2 (||d||^2 / |den|^2 - 1)) cancels
    to about 1e-8, or to a ratio below 1.  Raises PostSelectionError below
    OVERLAP_FLOOR (from `post_selection_overlap`) and ValueError for a time
    outside [0, duration], or NaN.
    """
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & (times <= duration)):
        raise ValueError(f"a time lies outside the measurement window [0, {duration}]")
    den = post_selection_overlap(pre, post, duration)
    bra = post.amplitudes * _state_phases(post.basis, duration, "duration")
    defect = math.sqrt(2.0) * float(np.linalg.norm(bra - den * pre.amplitudes.conj())) / abs(den)
    bra, ket = _significant(bra), _significant(pre.amplitudes)
    rate = -1j * post.basis.energies()[:max(bra.size, ket.size)]
    weak, step = np.empty(times.size, dtype=complex), max(1, _BLOCK_BYTES // rate.nbytes)
    for start in range(0, times.size, step):
        U = np.exp(np.outer(rate, times[start:start + step]))   # diag U(t), a column per time
        # k = U(t) a, and b = bra o U(t)^* from U conjugated in place once k is formed
        k, b = ket[:, None] * U[:ket.size], bra[:, None] * np.conj(U, out=U)[:bra.size]
        weak[start:start + step] = ((b * _apply(as_matrix(A)[:bra.size, :ket.size], k)).sum(0)
                                    / (b[:ket.size] * k[:bra.size]).sum(0))
    return weak, defect
