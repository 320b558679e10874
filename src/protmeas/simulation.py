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

Zeno protection is modeled as repeated projection onto the initial
superposition at equally spaced times, which halts the free dephasing of the
superposition; the measured operator, watched in the Heisenberg picture,
changes abruptly at each projection.
"""

from dataclasses import dataclass

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
    def x(self) -> np.ndarray:
        half = self.span_sigmas * self.sigma
        return np.linspace(-half, half, self.points, endpoint=False)

    @property
    def dx(self) -> float:
        return 2.0 * self.span_sigmas * self.sigma / self.points

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


# pointer columns per batched eigh: all 512 at once doubles the peak RSS
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


def _run_bipartite(P: ProjectorMatrix, schedule: MeasurementSchedule,
                   pre: StateVector, grid: PointerGrid, steps: int):
    """Strang-step the two ramps at about dt = T/steps; the plateau is exact."""
    basis = P.basis
    entries = P.entries.real if not np.any(P.entries.imag) else P.entries
    lam, W = np.linalg.eigh(entries)
    energies = basis.energies()
    T = schedule.duration
    ramp = schedule.ramp_fraction * T
    ramp_steps = max(1, round(steps * schedule.ramp_fraction)) if ramp > 0 else 0

    p = grid.p
    lam_p = np.outer(lam, p)
    pointer_p = np.fft.fft(grid.initial_wave(), norm="ortho")
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

    # pointer mean in position space
    Sx = np.fft.ifft(S, axis=1, norm="ortho")
    prob_x = np.sum(np.abs(Sx) ** 2, axis=0)
    mean_final = float(np.sum(grid.x * prob_x))

    # survival against the freely evolved pre-selected state
    ref = W.conj().T @ (pre.amplitudes * np.exp(-1j * energies * schedule.duration))
    rho_ref = S.conj().T @ ref           # <ref|S> per pointer column
    survival = float(np.sum(np.abs(rho_ref) ** 2))
    return mean_final, energy_shift_per_p, survival, float(np.linalg.norm(S))


def bipartite_protective_sim(P: ProjectorMatrix, schedule: MeasurementSchedule,
                             pre: StateVector | None = None,
                             grid: PointerGrid = PointerGrid(),
                             steps: int = 4096,
                             shift_tol: float = 1e-4,
                             max_refinements: int = 3) -> BipartiteResult:
    """Evolve system x pointer through a full measurement window.

    The plateau is propagated exactly; only the two ramps are Strang-stepped,
    at dt = duration/steps.  The ladder doubles `steps`, which refines the
    ramps alone, until the pointer shift changes by less than `shift_tol`;
    `steps_used` is the accepted rung.  Raises NumericalError if the ladder
    is exhausted without convergence.
    """
    if pre is None:
        pre = number_state(P.basis, 0)
    x0 = float(np.sum(grid.x * np.abs(grid.initial_wave()) ** 2))

    mean, de_per_p, survival, norm = _run_bipartite(P, schedule, pre, grid, steps)
    shift = mean - x0
    for _ in range(max_refinements):
        steps *= 2
        mean2, de2, surv2, norm2 = _run_bipartite(P, schedule, pre, grid, steps)
        shift2 = mean2 - x0
        if abs(shift2 - shift) < shift_tol:
            return BipartiteResult(
                pointer_shift=shift2, energy_shift_per_p=de2,
                survival_probability=surv2, steps_used=steps,
                pointer_mean_initial=x0, pointer_mean_final=mean2,
                final_state_shape=(P.basis.dim, grid.points), final_norm=norm2)
        shift, de_per_p, survival = shift2, de2, surv2
    raise NumericalError(
        f"pointer shift did not converge: last change {abs(shift2 - shift):.3e} "
        f"at {steps} steps (tol {shift_tol:g})")


@dataclass(frozen=True, eq=False)
class OperatorSnapshot:
    """Measured operator just before and just after one protection."""

    time: float
    before: np.ndarray
    after: np.ndarray

    @property
    def jump_norm(self) -> float:
        return float(np.linalg.norm(self.after - self.before))


@dataclass(frozen=True, eq=False)
class ZenoResult:
    survival_probability: float
    n_protections: int
    snapshots: list


def zeno_protect_sim(initial: StateVector, n_protections: int, duration: float,
                     measured=None, coupling: float = 0.0) -> ZenoResult:
    """Survival under repeated projection onto the initial state.

    The state evolves freely (optionally with a flat measurement coupling
    coupling/T * P added to the Hamiltonian) for duration/n between
    projections onto |initial><initial|.  The returned snapshots track the
    `measured` operator in the Heisenberg picture: unitary conjugation across
    each interval, then the non-selective update O -> Pi O Pi + Q O Q at the
    protection, which is where the abrupt changes show up.
    """
    if n_protections < 1:
        raise ValueError(f"need at least one protection, got {n_protections}")
    basis = initial.basis
    H = hamiltonian(basis)
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

    snapshots = []
    if measured is not None:
        O = as_matrix(measured).astype(np.complex128)
        proj = np.outer(s, s.conj())
        comp = np.eye(basis.dim) - proj
        for k in range(1, n_protections + 1):
            before = U.conj().T @ O @ U
            after = proj @ before @ proj + comp @ before @ comp
            snapshots.append(OperatorSnapshot(time=k * dt, before=before, after=after))
            O = after
    return ZenoResult(survival_probability=float(survival),
                      n_protections=n_protections, snapshots=snapshots)
