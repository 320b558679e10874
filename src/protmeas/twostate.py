"""Thermal weights, their purification, and two-state density operators.

A thermal oscillator is diagonal in the energy basis, with the Boltzmann
weights of `thermal_weights`; the pure "purification" state, whose
amplitudes are the square roots of those weights, gives the same averages
for every energy-diagonal observable.  A pre- and post-selected pair
defines the generally non-Hermitian two-state density
rho(t) = |Psi(t)><Phi(t)| / <Phi|U(T)|Psi>, which has unit trace, obeys the
von Neumann equation, and reproduces weak values through tr(A rho) / tr(rho).
Its denominator and overlap floor are those of the direct weak value
(`weak.post_selection_overlap`); tr(A rho) / tr(rho) divides that
denominator out again, so the trace formula stays an independent check of
the direct weak value.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .oscillator import (DualState, OscillatorBasis, StateVector, backward_state,
                         check_positive, evolve)
from .weak import as_matrix, post_selection_overlap

THERMAL_TAIL_LIMIT = 1e-10


@dataclass(frozen=True, eq=False)
class TwoStateDensity:
    """Normalized |Psi(t)><Phi(t)| outer product; non-Hermitian in general."""

    entries: np.ndarray

    def __post_init__(self):
        if not abs(np.trace(self.entries) - 1.0) <= 1e-10:
            raise ValueError("two-state density trace differs from 1")

    def hermiticity_defect(self) -> float:
        return float(np.linalg.norm(self.entries - self.entries.conj().T))


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


def two_state_density(pre: StateVector, post: DualState, t: float,
                      duration: float) -> TwoStateDensity:
    """The two-state density at time t inside a window of length `duration`."""
    ket = evolve(pre, t).amplitudes
    bra = backward_state(post, t, duration).amplitudes
    entries = np.outer(ket, bra) / post_selection_overlap(pre, post, duration)
    return TwoStateDensity(entries=entries)


def weak_value_from_density(A, rho: TwoStateDensity) -> complex:
    """A_w = tr(A rho) / tr(rho); identical to the direct two-state formula."""
    # tr(A rho) as sum_mn A_mn rho_nm, O(dim^2) without the product A rho
    return complex(np.sum(as_matrix(A) * rho.entries.T) / np.trace(rho.entries))


def von_neumann_residual(pre: StateVector, post: DualState, H, t: float,
                         dt: float, duration: float) -> float:
    """Frobenius norm of the central-difference von Neumann defect.

    || i (rho(t+dt) - rho(t-dt)) / (2 dt) - [H, rho(t)] ||_F, which shrinks
    as O(dt^2) for the exact two-state evolution.  `duration` fixes the
    backward-evolution reference time.
    """
    check_positive(dt, "dt")
    mat = as_matrix(H)
    rho_p = two_state_density(pre, post, t + dt, duration).entries
    rho_m = two_state_density(pre, post, t - dt, duration).entries
    rho_0 = two_state_density(pre, post, t, duration).entries
    lhs = 1j * (rho_p - rho_m) / (2.0 * dt)
    rhs = mat @ rho_0 - rho_0 @ mat
    return float(np.linalg.norm(lhs - rhs))

