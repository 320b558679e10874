"""Joint system-pointer dynamics and Zeno-type protection.

The bipartite model couples the oscillator to a continuous pointer through
H = H_sys x 1 + g(t) P_V x p.  The pointer lives on a uniform position grid
and is kept in its momentum representation.  The pointer has no free
Hamiltonian, so its momentum is conserved and each momentum column p evolves
on its own under H_sys + g(t) p P_V: conditional on a projector eigenvalue
lambda the pointer translates by lambda * integral(g) = lambda.

On the plateau g is constant, so each column's propagator is exact: one
eigendecomposition of H_sys + h p P_V per column.  Only the raised-cosine
ramps are stepped, by Strang splitting (second order): the interaction kick
exp(-i theta P_V x p) is diagonal once the system side is rotated into the
eigenbasis of P_V, and the system's own evolution is a dense matrix applied
between kicks.  That matrix is not re-unitarised: at the default steps the
norm drifts by less than 1e-12 from dim 64 to 1024.  The plateau does not
depend on the step count, so the ladder's rungs share one plateau pass.

Because each column evolves unitarily, its weight |FFT(initial wave)|^2 is
fixed for the whole run, and only the columns that carry weight are
propagated.  If the dropped columns weigh W in total and a is the kept part
of the final state, the pointer mean moves by at most 2 ||X a|| sqrt(W) + L W,
where L is the largest |x| on the grid; with ||X a|| <= L the bound is known
before the run.  The lightest columns are dropped while 2 L sqrt(W) + L W
stays within shift_tol / 10 (21 of 512 columns at the defaults), and they
rejoin as zeros before the position-space FFT.  Survival and the energy shift
lose at most W and h W.

Zeno protection is modeled as repeated projection onto the initial
superposition at equally spaced times, which halts the free dephasing of the
superposition; the measured operator, watched in the Heisenberg picture,
changes abruptly at each projection.  Only the norm of each jump is kept,
and each protection costs O(dim^2).
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import NumericalError
from .oscillator import StateVector, check_phase, check_positive, hamiltonian, number_state
from .projectors import ProjectorMatrix
from .weak import MeasurementSchedule, as_matrix


# half-width of the pointer grid in units of the initial Gaussian's sigma
SPAN_SIGMAS = 8.0


@dataclass(frozen=True)
class PointerGrid:
    """Uniform pointer position grid; sigma is the initial Gaussian std dev."""

    points: int = 512
    sigma: float = 10.0

    def __post_init__(self):
        if self.points < 8 or self.points & (self.points - 1):
            raise ValueError(f"pointer grid size must be a power of two >= 8, got {self.points}")
        check_positive(self.sigma, "pointer sigma")

    @property
    def extent(self) -> float:
        """The largest |x| on the grid."""
        return SPAN_SIGMAS * self.sigma

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.points, endpoint=False)

    @property
    def dx(self) -> float:
        return 2.0 * self.extent / self.points

    @property
    def p(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)

    def initial_wave(self) -> np.ndarray:
        psi = np.exp(-self.x ** 2 / (4.0 * self.sigma ** 2)).astype(np.complex128)
        return psi / np.linalg.norm(psi)


@dataclass(frozen=True)
class BipartiteResult:
    pointer_shift: float
    energy_shift_per_p: float
    survival_probability: float
    steps_used: int
    pointer_mean_final: float
    final_norm: float = 1.0
    # pointer-momentum columns propagated, the initial weight W of the rest,
    # and the bound 2 ||X a|| sqrt(W) + L W that W puts on pointer_shift
    kept_columns: int = 0
    dropped_weight: float = 0.0
    shift_bound: float = 0.0
    # |s_2n - s_n| over the last two ladder rungs: an estimate of the step
    # error in pointer_shift (see bipartite_protective_sim)
    ladder_error: float = 0.0


def _phase(x: np.ndarray) -> np.ndarray:
    """exp(-i x) for real x; cos and sin cost about a third of complex exp."""
    out = np.empty(x.shape, dtype=np.complex128)
    np.cos(x, out=out.real)
    np.sin(-x, out=out.imag)
    return out


def _strang_ramp(S, M, lam_p, schedule: MeasurementSchedule, t0: float, t1: float,
                 steps: int):
    """Strang-split evolution over [t0, t1]; M is the system step propagator.

    The step sequence kick/2 - M - kick/2 - kick/2 - M - ... merges each
    pair of adjacent half-kicks into one phase.
    """
    kicks = np.diff(schedule.cumulative(np.linspace(t0, t1, steps + 1)))
    merged = 0.5 * (np.append(kicks, 0.0) + np.insert(kicks, 0, 0.0))
    S = _phase(merged[0] * lam_p) * S
    for theta in merged[1:]:
        S = _phase(theta * lam_p) * (M @ S)
    return S


# pointer columns per batched eigh: as shift_tol -> 0 every column is kept,
# and all 512 at dim 512 in one batch would need several GB
PLATEAU_CHUNK = 16


def _exact_plateau(S, A, lam, p, h: float, tau: float) -> np.ndarray:
    """Evolve S, stacked along a leading rung axis, in place through a
    plateau of length 2 tau at coupling h.

    Pointer momentum is conserved, so column l evolves under the
    time-independent A + h p_l diag(lam); one batched eigh per chunk of
    columns diagonalizes it for every rung.  Returns sum(lam |S|^2) per rung
    after the first tau.
    """
    weight = np.zeros(len(S))
    for c in range(0, len(p), PLATEAU_CHUNK):
        cols = slice(c, c + PLATEAU_CHUNK)
        e, V = np.linalg.eigh(A + (h * p[cols])[:, None, None] * np.diag(lam))
        phase = np.exp(-1j * tau * e)[:, :, None]
        # (column, system, rung): each column's rungs share its eigenvectors
        y = phase * (V.conj().transpose(0, 2, 1) @ S[:, :, cols].transpose(2, 1, 0))
        weight += np.sum(lam[:, None] * np.abs(V @ y) ** 2, axis=(0, 1))
        S[:, :, cols] = (V @ (phase * y)).transpose(2, 1, 0)
    return weight


def _kept_columns(grid: PointerGrid, shift_tol: float):
    """Pointer-momentum columns to propagate and the weight W of the others.

    The lightest columns are dropped while the a-priori bound
    2 L sqrt(W) + L W on the pointer-mean error stays within shift_tol / 10;
    the heaviest column is always kept.  Returns (sorted indices, W).
    """
    weight = np.abs(np.fft.fft(grid.initial_wave(), norm="ortho")) ** 2
    order = np.argsort(weight, kind="stable")
    dropped = np.cumsum(weight[order])
    L = grid.extent
    n_drop = min(int(np.count_nonzero(2.0 * L * np.sqrt(dropped) + L * dropped
                                      <= shift_tol / 10.0)), grid.points - 1)
    return np.sort(order[n_drop:]), (float(dropped[n_drop - 1]) if n_drop else 0.0)


def _rungs(P: ProjectorMatrix, schedule: MeasurementSchedule, pre: StateVector,
           grid: PointerGrid, rungs, columns: np.ndarray):
    """Each rung's ramps Strang-stepped at about dt = T/steps; one exact plateau.

    `rungs` lists the step counts.  Only the pointer-momentum `columns` are
    propagated; the others rejoin as zeros before the position-space FFT.
    Returns arrays over the rungs: (pointer mean, dE per p, survival, norm,
    ||X a||), a the kept part of the final state.
    """
    basis = P.basis
    lam, W = np.linalg.eigh(P.entries)
    energies = basis.energies()
    T = schedule.duration
    ramp = schedule.ramp_fraction * T
    ramp_steps = ([max(1, round(n * schedule.ramp_fraction)) for n in rungs]
                  if ramp > 0 else [])

    p = grid.p[columns]
    lam_p = np.outer(lam, p)
    pointer_p = np.fft.fft(grid.initial_wave(), norm="ortho")[columns]
    sys0 = W.conj().T @ pre.amplitudes
    S = np.repeat((sys0[:, None] * pointer_p[None, :])[None], len(rungs), axis=0)

    # system propagator over one ramp step of each rung, in the projector eigenbasis
    M = [W.conj().T @ (np.exp(-1j * energies * ramp / k)[:, None] * W) for k in ramp_steps]
    for r, k in enumerate(ramp_steps):
        S[r] = _strang_ramp(S[r], M[r], lam_p, schedule, 0.0, ramp, k)
    A = W.conj().T @ (energies[:, None] * W)
    energy_shift_per_p = schedule.plateau * _exact_plateau(
        S, A, lam, p, schedule.plateau, 0.5 * T - ramp)
    for r, k in enumerate(ramp_steps):
        S[r] = _strang_ramp(S[r], M[r], lam_p, schedule, T - ramp, T, k)

    # pointer moments in position space
    full = np.zeros((len(rungs), basis.dim, grid.points), dtype=np.complex128)
    full[:, :, columns] = S
    prob_x = np.sum(np.abs(np.fft.ifft(full, axis=2, norm="ortho")) ** 2, axis=1)
    mean_final = prob_x @ grid.x
    x_norm = np.sqrt(prob_x @ grid.x ** 2)

    # survival against the freely evolved pre-selected state
    ref = W.conj().T @ (pre.amplitudes * np.exp(-1j * energies * schedule.duration))
    survival = np.sum(np.abs(ref.conj() @ S) ** 2, axis=1)   # <ref|S> per column
    norm = np.linalg.norm(S, axis=(1, 2))
    return mean_final, energy_shift_per_p, survival, norm, x_norm


# window steps of the ladder's first rung, and the doublings it tries: the
# rungs run from (512, 1024) to (16384, 32768).  The ramps are 5 % of the
# window each at the defaults, so the first rung steps each ramp 26 times
LADDER_START = 512
REFINEMENTS = 6


def bipartite_protective_sim(P: ProjectorMatrix, schedule: MeasurementSchedule,
                             pre: StateVector | None = None,
                             grid: PointerGrid = PointerGrid(),
                             steps: int = LADDER_START,
                             shift_tol: float = 1e-4) -> BipartiteResult:
    """Evolve system x pointer through a full measurement window.

    The plateau is propagated exactly; only the two ramps are Strang-stepped,
    at dt = duration/steps.  The ladder runs `steps` and 2 `steps` through
    one plateau pass and accepts the finer rung if the pointer shift changed
    by less than `shift_tol`; otherwise it doubles `steps`, up to REFINEMENTS
    times.  `steps_used` is the accepted rung.  Only the pointer-momentum
    columns chosen by `_kept_columns(grid, shift_tol)` are propagated.
    Raises ValueError if shift_tol is negative or NaN or the phase
    E_max * duration overflows, and NumericalError if a rung's pointer shift
    is not finite or the ladder is exhausted without convergence.

    `ladder_error` is the full gap |s_2n - s_n| between the last two rungs,
    an estimate of the accepted rung's step error, not a bound.  In the
    O(dt^2) regime the error is a third of the gap, but at the default start
    the ramps are not always there: against a 16384-step run the gap covered
    the error at dim 64 and 256 for T = 5, 20 and 40, and at dim 64 for
    T = 100, while at dim 256, T = 100 it read 6.3e-11 against 1.2e-10.
    """
    if not shift_tol >= 0:
        raise ValueError(f"shift_tol must be non-negative, got {shift_tol}")
    check_phase(P.basis.energies()[-1], schedule.duration, "duration")
    if pre is None:
        pre = number_state(P.basis, 0)
    columns, dropped = _kept_columns(grid, shift_tol)

    for _ in range(REFINEMENTS):
        mean, de_per_p, survival, norm, x_norm = _rungs(P, schedule, pre, grid,
                                                        [steps, 2 * steps], columns)
        steps *= 2
        gap = abs(mean[1] - mean[0])
        if not np.isfinite(gap):
            raise NumericalError(f"pointer shift is not finite at {steps} steps")
        if gap < shift_tol:
            x0 = float(np.sum(grid.x * np.abs(grid.initial_wave()) ** 2))
            return BipartiteResult(
                pointer_shift=float(mean[1]) - x0, energy_shift_per_p=float(de_per_p[1]),
                survival_probability=float(survival[1]), steps_used=steps,
                pointer_mean_final=float(mean[1]), final_norm=float(norm[1]),
                kept_columns=len(columns), dropped_weight=dropped,
                shift_bound=2.0 * float(x_norm[1]) * sqrt(dropped) + grid.extent * dropped,
                ladder_error=gap)
    raise NumericalError(
        f"pointer shift did not converge: last change {gap:.3e} "
        f"at {steps} steps (tol {shift_tol:g})")


@dataclass(frozen=True, eq=False)
class ZenoResult:
    survival_probability: float
    n_protections: int
    # Frobenius norm of each protection's jump; empty if nothing is measured
    jump_norms: np.ndarray


def zeno_protect_sim(initial: StateVector, n_protections: int, duration: float,
                     measured=None, coupling: float = 0.0) -> ZenoResult:
    """Survival under repeated projection onto the initial state.

    The state evolves freely (optionally with a flat measurement coupling
    coupling/T * P added to the Hamiltonian) for duration/n between
    projections onto s = |initial>.  The `measured` operator B, Hermitian or
    not, is tracked in the Heisenberg picture in the eigenbasis of H, where
    U^dag B U is an elementwise phase product.  The non-selective update
    B -> Pi B Pi + Q B Q, Pi = s s^dag, is B - s b - a s^dag with
    a = Q B s and b = s^dag B Q, and its jump norm is sqrt(|a|^2 + |b|^2).
    Raises ValueError if a phase E dt overflows the float range.
    """
    if n_protections < 1:
        raise ValueError(f"need at least one protection, got {n_protections}")
    check_positive(duration, "protection window")
    H = hamiltonian(initial.basis)
    if coupling != 0.0:
        if measured is None:
            raise ValueError("a measurement coupling requires a measured operator")
        H = H + (coupling / duration) * as_matrix(measured)
    evals, vecs = np.linalg.eigh(H)
    dt = duration / n_protections
    check_phase(np.max(np.abs(evals)), dt, "dt")
    U = (vecs * np.exp(-1j * evals * dt)) @ vecs.conj().T

    s = initial.amplitudes
    amp = complex(np.vdot(s, U @ s))          # state resets to s at each projection
    survival = abs(amp) ** (2 * n_protections)

    jumps = np.empty(0 if measured is None else n_protections)
    if measured is not None:
        B = (vecs.conj().T @ as_matrix(measured) @ vecs).astype(np.complex128)
        s = vecs.conj().T @ s
        phase = np.exp(1j * evals * dt)
        R = np.outer(phase, phase.conj())
        for k in range(n_protections):
            B *= R
            v, w = B @ s, s.conj() @ B
            mu = np.vdot(s, v)
            a, b = v - mu * s, w - mu * s.conj()
            jumps[k] = np.hypot(np.linalg.norm(a), np.linalg.norm(b))
            B -= np.outer(s, b) + np.outer(a, s.conj())
    return ZenoResult(survival_probability=float(survival),
                      n_protections=n_protections, jump_norms=jumps)
