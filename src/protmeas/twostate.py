"""Thermal ensembles and two-state density operators.

A thermal oscillator is diagonal with Boltzmann weights; the same averages
for energy-diagonal observables come out of the pure "purification" state
whose amplitudes are the square roots of those weights.  A pre- and
post-selected pair defines the generally non-Hermitian two-state density
rho(t) = |Psi(t)><Phi(t)| / <Phi|U(T)|Psi>, which has unit trace, obeys the
von Neumann equation, and reproduces weak values through tr(A rho) / tr(rho).
Its denominator and overlap floor are those of the direct weak value
(`weak.post_selection_overlap`); tr(A rho) / tr(rho) divides that
denominator out again, so the trace formula stays an independent check of
the direct weak value.
"""

from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .oscillator import (DualState, OscillatorBasis, StateVector, backward_state,
                         evolve, number_state)
from .weak import as_matrix, hermitian_defect, post_selection_overlap

THERMAL_TAIL_LIMIT = 1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive density operator."""

    entries: np.ndarray
    basis: OscillatorBasis

    def __post_init__(self):
        e = self.entries
        if hermitian_defect(e) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(e) - 1.0) > 1e-10:
            raise ValueError("density matrix trace differs from 1")
        if float(np.min(np.linalg.eigvalsh(e))) < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")


@dataclass(frozen=True, eq=False)
class TwoStateDensity:
    """Normalized |Psi(t)><Phi(t)| outer product; non-Hermitian in general."""

    entries: np.ndarray
    basis: OscillatorBasis

    def __post_init__(self):
        if abs(np.trace(self.entries) - 1.0) > 1e-10:
            raise ValueError("two-state density trace differs from 1")

    def hermiticity_defect(self) -> float:
        return float(np.linalg.norm(self.entries - self.entries.conj().T))


def _boltzmann_check(beta: float, basis: OscillatorBasis):
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    bw = beta * basis.omega
    tail = np.exp(-basis.dim * bw) / (1.0 - np.exp(-bw))
    if tail > THERMAL_TAIL_LIMIT:
        raise TruncationError(
            f"thermal tail {tail:.3e} exceeds {THERMAL_TAIL_LIMIT:g} at "
            f"beta*omega={bw:g}, dim={basis.dim}; enlarge dim or cool down")
    return bw


def thermal_density(beta: float, basis: OscillatorBasis) -> DensityMatrix:
    """Boltzmann thermal state, renormalized on the truncated basis."""
    bw = _boltzmann_check(beta, basis)
    w = np.exp(-bw * np.arange(basis.dim))
    w /= w.sum()
    return DensityMatrix(np.diag(w).astype(np.complex128), basis)


def thermal_purification(beta: float, basis: OscillatorBasis) -> StateVector:
    """Pure state whose amplitudes are sqrt-Boltzmann weights.

    Its expectation values equal thermal averages for every observable
    diagonal in the energy basis; off-diagonal observables see the phases
    between components and generally disagree with the mixture.
    """
    bw = _boltzmann_check(beta, basis)
    amps = np.exp(-0.5 * bw * np.arange(basis.dim))
    return StateVector(amps.astype(np.complex128), basis)


def sample_thermal_eigenstate(beta: float, basis: OscillatorBasis,
                              seed: int) -> tuple[int, StateVector]:
    """Boltzmann-sample one energy eigenstate.

    Models switching the bath off before measuring: the measurement then
    probes a single pure |n> drawn with weight e^{-beta E_n} instead of the
    mixture.
    """
    rho = thermal_density(beta, basis)
    weights = np.diag(rho.entries).real
    n = int(np.random.default_rng(seed).choice(basis.dim, p=weights / weights.sum()))
    return n, number_state(basis, n)


def thermal_pointer_rate(A, rho: DensityMatrix) -> float:
    """Pointer drift rate tr(A rho) with the bath kept on during measurement."""
    return float(np.trace(as_matrix(A) @ rho.entries).real)


def two_state_density(pre: StateVector, post: DualState, t: float,
                      duration: float) -> TwoStateDensity:
    """The two-state density at time t inside a window of length `duration`."""
    ket = evolve(pre, t).amplitudes
    bra = backward_state(post, t, duration).amplitudes
    entries = np.outer(ket, bra) / post_selection_overlap(pre, post, duration)
    return TwoStateDensity(entries=entries, basis=pre.basis)


def weak_value_from_density(A, rho: TwoStateDensity) -> complex:
    """A_w = tr(A rho) / tr(rho); identical to the direct two-state formula.

    tr(A rho) is sum_mn A_mn rho_nm, O(dim^2) without the product A rho.
    """
    mat = as_matrix(A)
    return complex(np.sum(mat * rho.entries.T) / np.trace(rho.entries))


def von_neumann_residual(pre: StateVector, post: DualState, H, t: float,
                         dt: float, duration: float | None = None) -> float:
    """Frobenius norm of the central-difference von Neumann defect.

    || i (rho(t+dt) - rho(t-dt)) / (2 dt) - [H, rho(t)] ||_F, which shrinks
    as O(dt^2) for the exact two-state evolution.  `duration` fixes the
    backward-evolution reference time and defaults to t + dt.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if duration is None:
        duration = t + dt
    mat = as_matrix(H)
    rho_p = two_state_density(pre, post, t + dt, duration).entries
    rho_m = two_state_density(pre, post, t - dt, duration).entries
    rho_0 = two_state_density(pre, post, t, duration).entries
    lhs = 1j * (rho_p - rho_m) / (2.0 * dt)
    rhs = mat @ rho_0 - rho_0 @ mat
    return float(np.linalg.norm(lhs - rhs))


def two_state_canonical(beta: float, basis: OscillatorBasis) -> TwoStateDensity:
    """Canonical two-state density on the truncated basis.

    The double-coordinate Boltzmann weighting multiplies the |m><n| kernel
    component by e^{-beta E_m} e^{+beta E_n}; applied to the
    infinite-temperature kernel (the identity) and normalized by the
    truncated trace this leaves the maximally mixed operator, whose weak
    values (e.g. of H) depend on the truncation dim.  The untruncated trace
    diverges, so every result is tied to `basis.dim`.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    energies = basis.energies()
    if abs(beta * energies[-1]) > 700.0:
        raise ValueError(
            f"beta*E_max = {beta * energies[-1]:.3g} overflows the two-sided "
            "Boltzmann weights; reduce beta or dim")
    weights = np.exp(-beta * energies[:, None] + beta * energies[None, :])
    kernel = weights * np.eye(basis.dim)
    entries = kernel / np.trace(kernel)
    return TwoStateDensity(entries=entries.astype(np.complex128), basis=basis)
