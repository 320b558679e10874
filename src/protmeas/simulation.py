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
between kicks.

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
from .oscillator import StateVector, hamiltonian, number_state
from .projectors import ProjectorMatrix
from .weak import MeasurementSchedule, as_matrix


@dataclass(frozen=True)
class PointerGrid:
    """Uniform pointer position grid; sigma is the initial Gaussian std dev."""

    points: int = 512
    sigma: float = 10.0
    span_sigmas: float = 8.0

    def __post_init__(self):
        if self.points < 8 or self.points & (self.points - 1):
            raise ValueError(f"pointer grid size must be a power of two >= 8, got {self.points}")
        if self.sigma <= 0 or self.span_sigmas <= 0:
            raise ValueError("pointer sigma and span must be positive")

    @property
    def extent(self) -> float:
        """The largest |x| on the grid."""
        return self.span_sigmas * self.sigma

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
    pointer_mean_initial: float
    pointer_mean_final: float
    # descriptor of the final joint state: (system dim, pointer points, norm)
    final_state_shape: tuple = ()
    final_norm: float = 1.0
    # pointer-momentum columns propagated, the initial weight W of the rest,
    # and the bound 2 ||X a|| sqrt(W) + L W that W puts on pointer_shift
    kept_columns: int = 0
    dropped_weight: float = 0.0
    shift_bound: float = 0.0
    # |s_2n - s_n| / 3 over the last two ladder rungs: the O(dt^2) estimate
    # of the step error in pointer_shift
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


def _exact_plateau(S, A, lam, p, h: float, tau: float) -> float:
    """Evolve S in place through a plateau of length 2 tau at coupling h.

    Pointer momentum is conserved, so column l evolves under the
    time-independent A + h p_l diag(lam); one batched eigh per chunk of
    columns diagonalizes it.  Returns sum(lam |S|^2) after the first tau.
    """
    weight = 0.0
    for c in range(0, len(p), PLATEAU_CHUNK):
        cols = slice(c, c + PLATEAU_CHUNK)
        e, V = np.linalg.eigh(A + (h * p[cols])[:, None, None] * np.diag(lam))
        phase = np.exp(-1j * tau * e)[:, :, None]
        y = phase * (V.conj().transpose(0, 2, 1) @ S[:, cols].T[:, :, None])
        weight += float(np.sum(lam * np.abs(V @ y)[:, :, 0] ** 2))
        S[:, cols] = (V @ (phase * y))[:, :, 0].T
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


def _rung(P: ProjectorMatrix, schedule: MeasurementSchedule, pre: StateVector,
          grid: PointerGrid, steps: int, columns: np.ndarray):
    """Strang-step the ramps at about dt = T/steps; the plateau is exact.

    Only the pointer-momentum `columns` are propagated; the others rejoin
    as zeros before the position-space FFT.  Returns (pointer mean, dE per p,
    survival, norm, ||X a||), a the kept part of the final state.
    """
    basis = P.basis
    lam, W = np.linalg.eigh(P.entries)
    energies = basis.energies()
    T = schedule.duration
    ramp = schedule.ramp_fraction * T
    ramp_steps = max(1, round(steps * schedule.ramp_fraction)) if ramp > 0 else 0

    p = grid.p[columns]
    lam_p = np.outer(lam, p)
    pointer_p = np.fft.fft(grid.initial_wave(), norm="ortho")[columns]
    sys0 = W.conj().T @ pre.amplitudes
    S = sys0[:, None] * pointer_p[None, :]

    if ramp_steps:
        # system propagator over one ramp step, in the projector eigenbasis,
        # made unitary to roundoff so the norm does not drift over the ramps
        M = W.conj().T @ (np.exp(-1j * energies * ramp / ramp_steps)[:, None] * W)
        U, _, Vh = np.linalg.svd(M)
        M = U @ Vh
        S = _strang_ramp(S, M, lam_p, schedule, 0.0, ramp, ramp_steps)
    A = W.conj().T @ (energies[:, None] * W)
    weight = _exact_plateau(S, A, lam, p, schedule.plateau, 0.5 * T - ramp)
    energy_shift_per_p = schedule.plateau * weight
    if ramp_steps:
        S = _strang_ramp(S, M, lam_p, schedule, T - ramp, T, ramp_steps)

    # pointer moments in position space
    full = np.zeros((basis.dim, grid.points), dtype=np.complex128)
    full[:, columns] = S
    Sx = np.fft.ifft(full, axis=1, norm="ortho")
    prob_x = np.sum(np.abs(Sx) ** 2, axis=0)
    mean_final = float(np.sum(grid.x * prob_x))
    x_norm = float(np.sqrt(np.sum(grid.x ** 2 * prob_x)))

    # survival against the freely evolved pre-selected state
    ref = W.conj().T @ (pre.amplitudes * np.exp(-1j * energies * schedule.duration))
    rho_ref = S.conj().T @ ref           # <ref|S> per pointer column
    survival = float(np.sum(np.abs(rho_ref) ** 2))
    return mean_final, energy_shift_per_p, survival, float(np.linalg.norm(S)), x_norm


def _run_bipartite(P: ProjectorMatrix, schedule: MeasurementSchedule,
                   pre: StateVector, grid: PointerGrid, steps: int):
    """One rung on every pointer column as (pointer mean, dE per p, survival, norm).

    No column is cut: this is the reference the column cut is measured against.
    """
    return _rung(P, schedule, pre, grid, steps, np.arange(grid.points))[:4]


# step doublings the ladder tries after its first rung
REFINEMENTS = 3


def bipartite_protective_sim(P: ProjectorMatrix, schedule: MeasurementSchedule,
                             pre: StateVector | None = None,
                             grid: PointerGrid = PointerGrid(),
                             steps: int = 4096,
                             shift_tol: float = 1e-4) -> BipartiteResult:
    """Evolve system x pointer through a full measurement window.

    The plateau is propagated exactly; only the two ramps are Strang-stepped,
    at dt = duration/steps.  The ladder doubles `steps`, which refines the
    ramps alone, up to REFINEMENTS times until the pointer shift changes by
    less than `shift_tol`; `steps_used` is the accepted rung.  Only the
    pointer-momentum columns chosen by `_kept_columns(grid, shift_tol)` are
    propagated.  Raises NumericalError if the ladder is exhausted without
    convergence.
    """
    if pre is None:
        pre = number_state(P.basis, 0)
    x0 = float(np.sum(grid.x * np.abs(grid.initial_wave()) ** 2))
    columns, dropped = _kept_columns(grid, shift_tol)

    shift = _rung(P, schedule, pre, grid, steps, columns)[0] - x0
    for _ in range(REFINEMENTS):
        steps *= 2
        mean, de_per_p, survival, norm, x_norm = _rung(P, schedule, pre, grid, steps,
                                                       columns)
        shift2 = mean - x0
        gap = abs(shift2 - shift)
        if gap < shift_tol:
            return BipartiteResult(
                pointer_shift=shift2, energy_shift_per_p=de_per_p,
                survival_probability=survival, steps_used=steps,
                pointer_mean_initial=x0, pointer_mean_final=mean,
                final_state_shape=(P.basis.dim, grid.points), final_norm=norm,
                kept_columns=len(columns), dropped_weight=dropped,
                shift_bound=2.0 * x_norm * sqrt(dropped) + grid.extent * dropped,
                ladder_error=gap / 3.0)
        shift = shift2
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
    """
    if n_protections < 1:
        raise ValueError(f"need at least one protection, got {n_protections}")
    if duration <= 0:
        raise ValueError(f"protection window must be positive, got {duration}")
    H = hamiltonian(initial.basis)
    if coupling != 0.0:
        if measured is None:
            raise ValueError("a measurement coupling requires a measured operator")
        H = H + (coupling / duration) * as_matrix(measured)
    evals, vecs = np.linalg.eigh(H)
    dt = duration / n_protections
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
