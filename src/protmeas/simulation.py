"""Joint system-pointer dynamics and Zeno-type protection.

The bipartite model couples the oscillator to a continuous pointer through
H = H_sys x 1 + g(t) P_V x p (Aharonov, Anandan and Vaidman, PRA 47, 4616
(1993)).  The pointer has no free Hamiltonian, so its momentum p is
conserved: for each p the system evolves on its own under
H_sys + g(t) p P_V, and the pointer position moves as dX/dt = g(t) P_V.
The pointer shift is therefore the average over p of integral g <P_V>_p dt,
and conditional on a projector eigenvalue lambda the pointer translates by
lambda * integral(g) = lambda.  The initial pointer is a Gaussian of
position spread sigma, so p is Gaussian with spread 1 / (2 sigma).  Each
p-column is analytic in p, and the four Gauss-Hermite momenta of
GAUSS_HERMITE (Golub and Welsch, Math. Comp. 23, 221 (1969)) carry the
average; survival and the energy shift are the same weighted averages.

Only the raised-cosine ramps are stepped, by Strang splitting (second
order).  The interaction kick exp(-i theta p P_V) is diagonal once the
system side is rotated into the eigenbasis of P_V; it moves the pointer by
exactly theta <P_V> and leaves <P_V> alone.  The system's free step between
kicks is diagonal in the number basis and does not move the pointer, so the
scheme's shift is the sum of theta <P_V> over the kicks.  The basis change
is not re-unitarised: at the default steps the norm drifts by less than
1e-12 from dim 64 to 1024.

On the plateau g = h is constant, so each node's propagator is exact: one
eigendecomposition of H_sys + h p P_V per node, and the plateau's share of
the shift is a closed form in its eigenbasis (see `_exact_plateau`).  The
plateau does not depend on the step count, so the ladder's rungs share it.
The pointer enters only through the nodes: no pointer wavefunction is
stored and no pointer column is cut.

Zeno protection is modeled as repeated projection onto the initial
superposition at equally spaced times, which halts the free dephasing of the
superposition; the measured operator, watched in the Heisenberg picture,
changes abruptly at each projection.  Only the norm of each jump is kept.
The loop keeps the operator fixed and moves the state, U^k s, so each
protection is one matrix-vector product and one rank-two update: O(dim^2),
with no dim x dim array formed per protection.
"""

from dataclasses import dataclass
from math import isfinite, pi, sqrt

import numpy as np

from .errors import NumericalError
from .oscillator import (StateVector, _real_matmul, _sinc, _state_phases, check_count,
                         check_phase, check_positive, hamiltonian, number_state)
from .projectors import ProjectorMatrix
from .weak import MeasurementSchedule, _require_hermitian, as_matrix


# the Gauss-Hermite pointer momenta and weights, bit for bit the floats
# numpy.polynomial.hermite.hermgauss(4) returns (the closed forms
# sqrt((3 -+ sqrt(6)) / 2) round 1 ulp away), formed without importing
# numpy.polynomial; 8 and 16 nodes agree with 4 within 3e-14 in the shift,
# survival and energy shift at dim 64 and 256, T = 5 to 100
GAUSS_HERMITE = (
    np.array([-1.6506801238857847, -0.5246476232752904, 0.5246476232752904, 1.6506801238857847]),
    np.array([0.08131283544724519, 0.8049140900055127, 0.8049140900055127, 0.08131283544724519]))


@dataclass(frozen=True)
class BipartiteResult:
    pointer_shift: float
    energy_shift_per_p: float
    survival_probability: float
    steps_used: int
    final_norm: float
    # |s_2n - s_n| over the last two ladder rungs: an estimate of the step
    # error in pointer_shift (see bipartite_protective_sim)
    ladder_error: float


def _strang_ramp(S, W, energies, lam, p, schedule: MeasurementSchedule, t0: float,
                 t1: float, steps: int):
    """Strang-split evolution over [t0, t1] of S, (system, node), in the
    eigenbasis W of P_V.

    The step sequence kick/2 - free step - kick/2 - kick/2 - free step - ...
    merges each pair of adjacent half-kicks into one phase; a free step is
    diagonal in the number basis, one product with W on each side.  Returns
    S and the pointer shift per node, the sum of theta <P_V> over the kicks.
    """
    kicks = np.diff(schedule.cumulative(np.linspace(t0, t1, steps + 1)))
    merged = 0.5 * (np.append(kicks, 0.0) + np.insert(kicks, 0, 0.0))
    free = np.exp(-1j * (energies * (t1 - t0) / steps))[:, None]
    lam_p = np.outer(lam, p)
    S = np.exp(-1j * (merged[0] * lam_p)) * S
    moments = [lam @ np.abs(S) ** 2]
    for theta in merged[1:]:
        S = np.exp(-1j * (theta * lam_p)) * _real_matmul(W.T, free * _real_matmul(W, S))
        moments.append(lam @ np.abs(S) ** 2)
    return S, merged @ np.array(moments)


def _exact_plateau(S, A, lam, p, h: float, tau: float):
    """Evolve S, (rung, system, node), in place through a plateau of length
    2 tau at coupling h.

    Node k evolves under the time-independent A + h p_k diag(lam) =
    V diag(e) V^T, so in its eigenbasis y(t) = exp(-i e t) y(0) and
    <P_V>(t) = sum_ij conj(y_i) y_j Q_ij exp(i (e_i - e_j) t), Q = V^T diag(lam) V.
    With z = y(tau), the midpoint state, the plateau's shift is
    h integral <P_V> dt = h z^dag (Q o G) z, G_ij = 2 tau _sinc((e_i - e_j) tau),
    the integral of exp(i (e_i - e_j) t) over [-tau, tau].  Each node's eigh
    serves every rung, and the nodes go one at a time, so memory stays a few
    dim x dim arrays.  Returns (shift, h <P_V> at the midpoint), each
    (rung, node).
    """
    shift = np.empty((len(S), len(p)))
    energy = np.empty((len(S), len(p)))
    for k, pk in enumerate(p):
        e, V = np.linalg.eigh(A + np.diag(h * pk * lam))
        phase = np.exp(-1j * tau * e)[:, None]
        z = phase * _real_matmul(V.T, S[:, :, k].T)            # (system, rung)
        QG = 2.0 * tau * _sinc(tau * np.subtract.outer(e, e))
        QG *= V.T @ (lam[:, None] * V)
        shift[:, k] = h * np.sum(z.conj() * _real_matmul(QG, z), axis=0).real
        energy[:, k] = h * (lam @ np.abs(_real_matmul(V, z)) ** 2)
        S[:, :, k] = _real_matmul(V, phase * z).T
    return shift, energy


def _bipartite_model(P: ProjectorMatrix, schedule: MeasurementSchedule, pre: StateVector, sigma):
    """The ladder's fixed inputs, formed once per call.

    `sigma` is the pointer's position spread, so its momentum is a Gaussian
    of std dev 1 / (2 sigma), carried by the GAUSS_HERMITE momenta p with
    weights w.  Returns the tuple (p, w, lam, W, energies, A, start, ref):
    P_V = W diag(lam) W^T, the plateau's free generator A = W^T diag(E) W,
    and the pre-selected state and its freely evolved survival reference,
    both in P_V's eigenbasis.  Raises ValueError if a momentum reaches
    2**52 or the phase E_max * duration overflows.
    """
    xi, w = GAUSS_HERMITE
    with np.errstate(over="ignore"):
        p = xi / (sqrt(2.0) * sigma)
    # the window's kick phase reaches max|p| * integral(g) = max|p|, whose ulp is
    # 1 rad or more from 2**52 on: no step count resolves it
    if not np.abs(p).max() < 2.0 ** 52:
        raise ValueError(f"pointer sigma={sigma:g} makes the pointer momenta reach 2**52")
    phases = _state_phases(P.basis, schedule.duration, "duration")
    lam, W = np.linalg.eigh(P.entries)
    energies = P.basis.energies()
    return (p, w / sqrt(pi), lam, W, energies, W.T @ (energies[:, None] * W),
            W.T @ pre.amplitudes, W.T @ (pre.amplitudes * phases))


def _rungs(model, schedule: MeasurementSchedule, rungs):
    """Each rung's ramps Strang-stepped at about dt = T/steps; one exact plateau.

    `model` is the tuple from `_bipartite_model` and `rungs` lists the step
    counts.  Every momentum p_k carries its own system state, and each
    quantity is the weighted average sum_k w_k f(p_k).  Returns arrays over
    the rungs: (pointer shift, dE per p, survival, norm).
    """
    p, w, lam, W, energies, A, start, ref = model
    T = schedule.duration
    ramp = schedule.ramp_fraction * T
    ramp_steps = ([max(1, round(n * schedule.ramp_fraction)) for n in rungs]
                  if ramp > 0 else [])
    S = np.tile(start[:, None], (len(rungs), 1, len(p)))    # (rung, system, node)
    shift = np.zeros((len(rungs), len(p)))

    for r, k in enumerate(ramp_steps):
        S[r], kicked = _strang_ramp(S[r], W, energies, lam, p, schedule, 0.0, ramp, k)
        shift[r] += kicked
    plateau, energy = _exact_plateau(S, A, lam, p, schedule.plateau, 0.5 * T - ramp)
    shift += plateau
    for r, k in enumerate(ramp_steps):
        S[r], kicked = _strang_ramp(S[r], W, energies, lam, p, schedule, T - ramp, T, k)
        shift[r] += kicked

    norm2 = np.sum(np.abs(S) ** 2, axis=1)                 # (rung, node)
    survival = np.abs(ref.conj() @ S) ** 2 / norm2         # of each node's final state
    return shift @ w, energy @ w, survival @ w, np.sqrt(norm2 @ w)


# window steps of the ladder's first rung, and the doublings it tries: the
# rungs run from (512, 1024) to (16384, 32768).  The ramps are 5 % of the
# window each at the defaults, so the first rung steps each ramp 26 times
LADDER_START = 512
REFINEMENTS = 6


def bipartite_protective_sim(P: ProjectorMatrix, schedule: MeasurementSchedule,
                             pre: StateVector | None = None,
                             pointer_sigma: float = 10.0,
                             steps: int = LADDER_START,
                             shift_tol: float = 1e-4) -> BipartiteResult:
    """Evolve system x pointer through a full measurement window.

    The plateau is propagated exactly; only the two ramps are Strang-stepped,
    at dt = duration/steps.  The ladder runs `steps` and 2 `steps` through
    one plateau pass and accepts the finer rung if the pointer shift changed
    by less than `shift_tol`; otherwise it doubles `steps`, up to REFINEMENTS
    times.  `steps_used` is the accepted rung.
    The initial pointer is a Gaussian of position spread `pointer_sigma`.
    Raises ValueError if steps is not an integer >= 2, if pointer_sigma is
    not positive and finite or so small that a pointer momentum reaches
    2**52, if shift_tol is negative or NaN or if the phase E_max * duration
    overflows, and NumericalError if a rung's pointer shift is not finite
    or the ladder is exhausted without convergence.

    `ladder_error` is the full gap |s_2n - s_n| between the last two rungs,
    an estimate of the accepted rung's step error, not a bound.  In the
    O(dt^2) regime the error is a third of the gap, but at the default start
    the ramps are not always there: against a 16384-step run the gap covered
    the error at dim 64 and 256 for T = 5, 20 and 40, and at dim 64 for
    T = 100, while at dim 256, T = 100 it read 6.3e-11 against 1.2e-10.
    """
    check_count(steps, "steps", 2)
    check_positive(pointer_sigma, "pointer sigma")
    if not shift_tol >= 0:
        raise ValueError(f"shift_tol must be non-negative, got {shift_tol}")
    if pre is None:
        pre = number_state(P.basis, 0)
    model = _bipartite_model(P, schedule, pre, pointer_sigma)

    for _ in range(REFINEMENTS):
        shift, de_per_p, survival, norm = _rungs(model, schedule, [steps, 2 * steps])
        steps *= 2
        gap = abs(shift[1] - shift[0])
        if not np.isfinite(gap):
            raise NumericalError(f"pointer shift is not finite at {steps} steps")
        if gap < shift_tol:
            return BipartiteResult(
                pointer_shift=float(shift[1]), energy_shift_per_p=float(de_per_p[1]),
                survival_probability=float(survival[1]), steps_used=steps,
                final_norm=float(norm[1]), ladder_error=float(gap))
    raise NumericalError(
        f"pointer shift did not converge: last change {gap:.3e} "
        f"at {steps} steps (tol {shift_tol:g})")


@dataclass(frozen=True, eq=False)
class ZenoResult:
    survival_probability: float
    # Frobenius norm of each protection's jump
    jump_norms: np.ndarray


def zeno_protect_sim(initial: StateVector, n_protections: int, duration: float,
                     measured, coupling: float = 0.0) -> ZenoResult:
    """Survival under repeated projection onto the initial state.

    The state evolves freely (optionally with a flat measurement coupling
    coupling/T * P added to the Hamiltonian) for duration/n between
    projections onto s = |initial>.  The `measured` observable B, a
    Hermitian operator, is watched in the Heisenberg picture, U^dag^k B U^k
    at protection k, in the eigenbasis of H.  The loop works in the frame
    where the state evolves: it keeps B and projects onto
    s_k = U^k s = e^{-i E k dt} o s, which conjugates every update by U^k
    and leaves its norm alone, so B changes only by its rank-two updates.
    The non-selective update B -> Pi B Pi + Q B Q, Pi = s_k s_k^dag, is
    B - s_k a^dag - a s_k^dag with a = Q B s_k, and its jump norm is
    sqrt(2) |a|.  The update is Hermitian, so B stays Hermitian to rounding
    (not bit for bit: numpy's vectorized complex products round the entries
    of s_k a^dag and of a s_k^dag differently).  Raises ValueError if
    n_protections is not an integer >= 1, if `measured` is not Hermitian,
    if the coupling rate coupling / duration is NaN or infinite, or if the
    phase E_max duration overflows the float range.
    """
    check_count(n_protections, "n_protections", 1)
    check_positive(duration, "protection window")
    # the update below holds for a Hermitian B only, and eigh would read only the
    # lower triangle of a coupled H; a ProjectorMatrix passes unchecked
    _require_hermitian(measured)
    # a NaN or overflowing rate would reach eigh through H, which fails on it
    rate = float(coupling) / float(duration)
    if not isfinite(rate):
        raise ValueError(f"the coupling rate coupling/duration={rate:g} is not finite "
                         f"at coupling={coupling:g}, duration={duration:g}")
    if coupling == 0.0:
        # H is diagonal: eigh would return exactly its energies and the identity
        evals, vecs = initial.basis.energies(), None
    else:
        H = hamiltonian(initial.basis) + rate * as_matrix(measured)
        evals, vecs = np.linalg.eigh(H)
    # protection k forms its phases from k dt, up to E_max T
    check_phase(np.max(np.abs(evals)), duration, "duration")
    dt = duration / n_protections
    phase = np.exp(-1j * evals * dt)
    # U stays dense in the number basis: phase * s rounds differently from U @ s
    U = np.diag(phase) if vecs is None else (vecs * phase) @ vecs.conj().T

    s = initial.amplitudes
    amp = complex(np.vdot(s, U @ s))          # state resets to s at each projection
    survival = abs(amp) ** (2 * n_protections)

    B = as_matrix(measured)
    if vecs is not None:
        B, s = vecs.conj().T @ B @ vecs, vecs.conj().T @ s
    B = B.astype(np.complex128)
    # the rank-two update reuses two buffers: fresh dim^2 temporaries at
    # every protection would each be mapped afresh by the allocator
    step, term = np.empty_like(B), np.empty_like(B)
    norms = np.empty(n_protections)     # |a| of each protection, whose jump is sqrt(2) |a|
    for k in range(n_protections):
        # U^(k+1) s, its phases formed from (k + 1) dt in long double (80-bit on
        # x86): a state stepped by U, or phase ** k, drifts in modulus, and a
        # double argument E k dt carries noise of ulp(E T) into the small jumps
        sk = np.exp(-1j * evals * (np.longdouble(dt) * (k + 1))).astype(complex) * s
        v = B @ sk
        a = v - np.vdot(sk, v) * sk
        norms[k] = np.linalg.norm(a)
        B -= np.add(np.outer(sk, a.conj(), out=step), np.outer(a, sk.conj(), out=term), out=step)
    return ZenoResult(survival_probability=float(survival), jump_norms=np.hypot(norms, norms))
