"""Truncated Fock-space harmonic oscillator: states, wavefunctions, evolution.

Everything is dimensionless: positions in units of sqrt(hbar/(m*omega)) = 1
and hbar = 1, so the energy ladder is n*omega or (n + 1/2)*omega depending on
the phase convention of the basis.  The two conventions differ by a global
phase only; any expectation value or weak value computed downstream is
identical under either choice.

States are plain complex amplitude vectors over |0>, ..., |dim-1>.  Bras are
represented by :class:`DualState`, whose components d_n satisfy
<Phi| = sum_n d_n <n| (i.e. d_n is the conjugate of the corresponding ket
amplitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError

COHERENT_TAIL_LIMIT = 1e-10
MAX_COHERENT_DIM = 100_000
# Beyond x^2/2 = 700 the Gaussian factor exp(-x^2/2) leaves the normal floats
_GAUSSIAN_FLOOR = 700.0
_RESCALE_BITS = 256
_SPLIT_BITS = 512
# phi_n(x) underflows for every n < 1e13 beyond this, so clipping x changes no value
_X_CLIP = 1e7


@dataclass(frozen=True)
class OscillatorBasis:
    """Truncated number basis of a single oscillator mode.

    dim:
        truncation size; the basis spans |0> .. |dim-1>.
    omega:
        angular frequency in rad/s.
    include_zero_point:
        if True the evolution phases use E_n = (n + 1/2)*omega, otherwise
        E_n = n*omega.
    """

    dim: int = 64
    omega: float = 1.0
    include_zero_point: bool = False

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"basis dim must be >= 2, got {self.dim}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")

    def energies(self) -> np.ndarray:
        n = np.arange(self.dim, dtype=float)
        if self.include_zero_point:
            n = n + 0.5
        return self.omega * n

    def period(self) -> float:
        return 2.0 * np.pi / self.omega


def _normalized(amplitudes, dim) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=np.complex128).copy()
    if a.shape != (dim,):
        raise ValueError(f"amplitude vector has shape {a.shape}, expected ({dim},)")
    if not np.all(np.isfinite(a)):
        raise ValueError("cannot normalize an amplitude vector with NaN or infinite entries")
    norm = np.linalg.norm(a)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero amplitude vector")
    return a / norm


@dataclass(frozen=True, eq=False)
class StateVector:
    """Forward-evolving ket; amplitudes are normalized on construction."""

    amplitudes: np.ndarray
    basis: OscillatorBasis

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _normalized(self.amplitudes, self.basis.dim))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def dual(self) -> "DualState":
        """The bra <psi| of this ket."""
        return DualState(np.conj(self.amplitudes), self.basis)

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2; the global-phase-free comparison."""
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


@dataclass(frozen=True, eq=False)
class DualState:
    """Backward-evolving bra with row components d_n: <Phi| = sum d_n <n|."""

    amplitudes: np.ndarray
    basis: OscillatorBasis

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _normalized(self.amplitudes, self.basis.dim))


def overlap(dual: DualState, state: StateVector) -> complex:
    """<Phi|Psi> for a bra and a ket over the same basis."""
    return complex(np.dot(dual.amplitudes, state.amplitudes))


def number_state(basis: OscillatorBasis, n: int) -> StateVector:
    """The energy eigenstate |n>."""
    if not 0 <= n < basis.dim:
        raise ValueError(f"number state index {n} outside [0, {basis.dim})")
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(amps, basis)


def _log_poisson(lam: float, n: int) -> float:
    return -lam + n * math.log(lam) - math.lgamma(n + 1)


def coherent_tail(dim: int, alpha: complex) -> float:
    """Probability weight of a coherent state beyond the truncation.

    This is the Poisson survival function sum_{n>=dim} |alpha|^2n e^-|alpha|^2 / n!.
    Above the mean the terms fall from n = dim on and are summed upward;
    otherwise the tail is 1 minus the head sum over n < dim.  A non-finite
    alpha raises ValueError.
    """
    if not math.isfinite(abs(alpha)):
        raise ValueError(f"coherent amplitude alpha={alpha} is not finite")
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 0.0
    total, term = 0.0, 1.0
    if dim > lam:
        n = dim
        while term > 1e-17 * total:
            total += term
            n += 1
            term *= lam / n
        return math.exp(_log_poisson(lam, dim)) * total
    for n in range(dim - 1, -1, -1):
        total += term
        term *= n / lam
    return 1.0 - math.exp(_log_poisson(lam, dim - 1)) * total


def required_coherent_dim(alpha: complex, limit: float = COHERENT_TAIL_LIMIT) -> int:
    """Smallest truncation for which the coherent tail drops below `limit`.

    The tail falls as dim grows, so this bisects `coherent_tail` on
    [2, MAX_COHERENT_DIM].
    """
    if coherent_tail(MAX_COHERENT_DIM, alpha) >= limit:
        raise TruncationError(f"no reasonable truncation holds alpha={alpha!r}")
    lo, hi = 1, MAX_COHERENT_DIM       # the answer lies in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if coherent_tail(mid, alpha) < limit:
            hi = mid
        else:
            lo = mid
    return hi


def coherent_state(basis: OscillatorBasis, alpha: complex) -> StateVector:
    """The coherent state |alpha> with c_n = e^{-|a|^2/2} a^n / sqrt(n!).

    The truncated amplitude vector is renormalized; construction fails if the
    discarded tail weight exceeds COHERENT_TAIL_LIMIT.
    """
    tail = coherent_tail(basis.dim, alpha)
    if tail >= COHERENT_TAIL_LIMIT:
        need = required_coherent_dim(alpha)
        raise TruncationError(
            f"coherent state alpha={alpha!r} has truncation tail {tail:.3e} "
            f"on dim={basis.dim}; requires dim >= {need}"
        )
    if alpha == 0:
        return number_state(basis, 0)
    n = np.arange(basis.dim)
    # log-domain to keep n! under control for large dim
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    log_mag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - log_fact / 2
    amps = np.exp(log_mag) * np.exp(1j * np.angle(alpha) * n)
    return StateVector(amps, basis)


def evolve(state: StateVector, t: float) -> StateVector:
    """Free evolution: c_n -> e^{-i E_n t} c_n."""
    phases = np.exp(-1j * state.basis.energies() * t)
    return StateVector(state.amplitudes * phases, state.basis)


def backward_state(final: DualState, t: float, duration: float) -> DualState:
    """The backward-evolving bra at time t: <Phi_f(t)| = <Phi_f| U(duration - t).

    For a coherent bra <alpha| this is the bra of |alpha e^{i omega (T-t)}| up
    to a global phase, so its position-space mean sits at
    sqrt(2)|alpha| cos(omega (T-t) + delta).
    """
    if not 0.0 <= t <= duration:
        raise ValueError(f"t={t} outside the measurement window [0, {duration}]")
    phases = np.exp(-1j * final.basis.energies() * (duration - t))
    return DualState(final.amplitudes * phases, final.basis)


def _hermite_rows(x, n_max: int):
    """Yield phi_0(x), ..., phi_{n_max-1}(x), each a flat array over x.ravel().

    Runs the stable three-term recurrence on the normalized functions
    phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1},
    which never forms raw Hermite polynomials and stays finite for large n.
    Every point carries an integer exponent e and the recurrence runs on
    psi_n = phi_n 2^-e.  e is 0 where exp(-x^2/2) is a normal float; beyond
    (|x| > 37.4) it takes up the Gaussian factor and every later rescaling
    (Bunck, BIT 49 (2009) 281), so phi_n is right wherever it is a normal
    float.  Only psi_{n-1} and psi_n are held: memory is O(points) for any
    n_max.
    """
    x = np.clip(np.asarray(x, dtype=float).ravel(), -_X_CLIP, _X_CLIP)
    half_sq = 0.5 * x * x
    e = np.where(half_sq > _GAUSSIAN_FLOOR, -np.floor(half_sq / math.log(2.0)), 0.0)
    half_sq += e * math.log(2.0)
    e = e.astype(np.int64)
    scaled = bool(e.any())
    scale = _unscaling(e)
    prev, cur = 0.0, np.pi ** -0.25 * np.exp(-half_sq)
    for n in range(n_max):
        if n:
            prev, cur = cur, np.sqrt(2.0 / n) * x * cur - np.sqrt((n - 1) / n) * prev
            if scaled:
                big = np.abs(cur) > 2.0 ** _RESCALE_BITS
                if big.any():
                    prev[big] *= 2.0 ** -_RESCALE_BITS
                    cur[big] *= 2.0 ** -_RESCALE_BITS
                    e[big] += _RESCALE_BITS
                    scale = _unscaling(e)
        # a scaled row is handed out as a new array, so the rescaling above
        # never touches a row the caller holds
        yield cur * scale * 2.0 ** -_SPLIT_BITS if scaled else cur


def _unscaling(e):
    """2^(e + _SPLIT_BITS), so that psi 2^e = (psi * _unscaling(e)) * 2^-_SPLIT_BITS.

    A yielded psi is at most 2^256 in magnitude (larger ones were just
    rescaled), so the first product, phi 2^_SPLIT_BITS, is exact wherever
    |phi| > 2^-1534, and only the second one rounds, once, as ldexp(psi, e)
    would, at a fraction of its cost; below that both give zero.  Every e
    below -1022 - _SPLIT_BITS gives phi = 0 and is raised to it, which keeps
    this factor a normal float.
    """
    return np.ldexp(1.0, np.maximum(e, -1022 - _SPLIT_BITS) + _SPLIT_BITS)


def hermite_functions(x, n_max: int) -> np.ndarray:
    """Orthonormal Hermite-Gaussian eigenfunctions phi_0..phi_{n_max-1} at x.

    The rows of the scaled recurrence of `_hermite_rows`, stacked.
    Returns an array of shape (n_max,) + shape(x); n_max = 0 gives an
    empty one.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max, x.size))
    for n, row in enumerate(_hermite_rows(x, n_max)):
        out[n] = row
    return out.reshape((n_max,) + x.shape)


def position_wavefunction(state: StateVector, x):
    """psi(x) = sum_n c_n phi_n(x); scalar in, scalar out.

    The sum is accumulated along the Hermite recurrence, one phi_n at a
    time, with the real and imaginary parts of c_n kept apart and zero parts
    skipped; the recurrence stops at the last nonzero c_n.  No n x points
    table is formed, so memory is O(points) for any dim.
    """
    xarr = np.asarray(x, dtype=float)
    amps = state.amplitudes
    top = np.flatnonzero(amps)[-1] + 1
    re, im = np.zeros(xarr.size), np.zeros(xarr.size)
    for c, row in zip(amps[:top], _hermite_rows(xarr, top)):
        if c.real:
            re += c.real * row
        if c.imag:
            im += c.imag * row
    psi = (re + 1j * im).reshape(xarr.shape)
    return complex(psi) if xarr.shape == () else psi


def hamiltonian(basis: OscillatorBasis) -> np.ndarray:
    """H as a dense complex matrix (diagonal in this basis)."""
    return np.diag(basis.energies()).astype(np.complex128)
