"""The dense two-state density, the tests' reference for `twostate.two_state_readings`.

rho(t) = |Psi(t)><Phi(t)| / <Phi|U(T)|Psi> is formed here as a dim x dim
matrix, from `evolve`, the normalized backward-evolving bra
`backward_state` and the direct weak value's denominator, so the trace
formula and the von Neumann residual (criteria 7 and 8) read the density
itself rather than its two vectors.
"""

import numpy as np

from protmeas.oscillator import DualState, _state_phases, check_positive, evolve
from protmeas.weak import as_matrix, post_selection_overlap


def backward_state(final: DualState, t: float, duration: float) -> DualState:
    """The backward-evolving bra at time t: <Phi_f(t)| = <Phi_f| U(duration - t).

    For a coherent bra <alpha| this is the bra of |alpha e^{i omega (T-t)}| up
    to a global phase, so its position-space mean sits at
    sqrt(2)|alpha| cos(omega (T-t) + delta).
    """
    if not 0.0 <= t <= duration:
        raise ValueError(f"t={t} outside the measurement window [0, {duration}]")
    phases = _state_phases(final.basis, duration - t, "duration - t")
    return DualState(final.amplitudes * phases, final.basis)


def two_state_density(pre, post, t, duration) -> np.ndarray:
    """The two-state density at time t inside a window of length `duration`."""
    ket = evolve(pre, t).amplitudes
    bra = backward_state(post, t, duration).amplitudes
    return np.outer(ket, bra) / post_selection_overlap(pre, post, duration)


def hermiticity_defect(rho) -> float:
    """||rho - rho^dag||_F."""
    return float(np.linalg.norm(rho - rho.conj().T))


def weak_value_from_density(A, rho) -> complex:
    """A_w = tr(A rho) / tr(rho), as sum_mn A_mn rho_nm without the product A rho."""
    return complex(np.sum(as_matrix(A) * rho.T) / np.trace(rho))


def von_neumann_residual(pre, post, H, t, dt, duration) -> float:
    """Frobenius norm of the central-difference von Neumann defect.

    || i (rho(t+dt) - rho(t-dt)) / (2 dt) - [H, rho(t)] ||_F, which shrinks
    as O(dt^2) for the exact two-state evolution.
    """
    check_positive(dt, "dt")
    mat = as_matrix(H)
    rho_p, rho_m, rho_0 = (two_state_density(pre, post, s, duration)
                           for s in (t + dt, t - dt, t))
    lhs = 1j * (rho_p - rho_m) / (2.0 * dt)
    return float(np.linalg.norm(lhs - (mat @ rho_0 - rho_0 @ mat)))
