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
# hermite_functions runs the recurrence on Python floats up to this many points.
# At 513 rows a point costs about 0.1 ms there, against about 3 ms for the
# vector path at any count up to the crossover near 25 points (2-vCPU Xeon)
_FEW_POINTS = 8
# dim x dim builds and checks go through row blocks of about this many bytes
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class OscillatorBasis:
    """Truncated number basis of a single oscillator mode.

    dim:
        truncation size; the basis spans |0> .. |dim-1>.
    omega:
        angular frequency in rad/s, positive and finite, with a finite top
        energy omega (dim - 1) (or omega (dim - 1/2) with the zero point).
    include_zero_point:
        if True the evolution phases use E_n = (n + 1/2)*omega, otherwise
        E_n = n*omega.
    """

    dim: int = 64
    omega: float = 1.0
    include_zero_point: bool = False

    def __post_init__(self):
        check_count(self.dim, "basis dim", 2)
        check_positive(self.omega, "omega")
        # on Python floats, which overflow to inf without a warning
        top = float(self.omega) * (self.dim - 1 + 0.5 * self.include_zero_point)
        if not math.isfinite(top):
            raise ValueError(f"omega={self.omega:g} makes the top energy overflow at "
                             f"dim={self.dim}")

    def energies(self) -> np.ndarray:
        n = np.arange(self.dim, dtype=float)
        if self.include_zero_point:
            n = n + 0.5
        return self.omega * n


def _normalized(amplitudes, dim) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=np.complex128)
    if a.shape != (dim,):
        raise ValueError(f"amplitude vector has shape {a.shape}, expected ({dim},)")
    if not np.all(np.isfinite(a)):
        raise ValueError("cannot normalize an amplitude vector with NaN or infinite entries")
    # rescaled first where its largest real or imaginary part lies outside
    # [1e-150, 1e150], so that no square in the norm overflows or underflows; the
    # (re, im) pairs are divided as reals, since a complex division by a
    # subnormal overflows.  A vector of ordinary magnitude keeps its bits
    pairs = np.ascontiguousarray(a).view(np.float64)
    scale = np.abs(pairs).max()
    if scale == 0.0:
        raise ValueError("cannot normalize a zero amplitude vector")
    if not 1e-150 <= scale <= 1e150:
        a = (pairs / scale).view(np.complex128)
    return a / np.linalg.norm(a)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Forward-evolving ket; amplitudes are normalized on construction."""

    amplitudes: np.ndarray
    basis: OscillatorBasis

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _normalized(self.amplitudes, self.basis.dim))

    def dual(self) -> "DualState":
        """The bra <psi| of this ket."""
        return DualState(np.conj(self.amplitudes), self.basis)


@dataclass(frozen=True, eq=False)
class DualState:
    """Backward-evolving bra with row components d_n: <Phi| = sum d_n <n|."""

    amplitudes: np.ndarray
    basis: OscillatorBasis

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _normalized(self.amplitudes, self.basis.dim))


def number_state(basis: OscillatorBasis, n: int) -> StateVector:
    """The energy eigenstate |n>."""
    check_count(n, "n", 0)
    if n >= basis.dim:
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
    alpha, or one whose |alpha|^2 overflows, raises ValueError.
    """
    # a Python float product overflows to inf, where abs(alpha) ** 2 raises
    # OverflowError and a numpy product warns
    if not math.isfinite(float(abs(alpha)) * float(abs(alpha))):
        raise ValueError(f"coherent amplitude alpha={alpha} is not finite or its |alpha|^2 "
                         f"overflows")
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


def _plain(z) -> str:
    """A complex number as a message shows it: 40 for 40+0j, 3+4j otherwise."""
    return f"{z.real:g}" if z.imag == 0 else f"{complex(z):g}"


def required_coherent_dim(alpha: complex, limit: float = COHERENT_TAIL_LIMIT) -> int:
    """Smallest truncation for which the coherent tail drops below `limit`.

    The tail falls as dim grows, so this bisects `coherent_tail` on
    [2, MAX_COHERENT_DIM].
    """
    if coherent_tail(MAX_COHERENT_DIM, alpha) >= limit:
        raise TruncationError(f"no reasonable truncation holds alpha={_plain(alpha)}")
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
            f"coherent state alpha={_plain(alpha)} has truncation tail {tail:.3e} "
            f"on dim={basis.dim}; requires dim >= {need}"
        )
    if alpha == 0:
        return number_state(basis, 0)
    n = np.arange(basis.dim)
    # log-domain to keep n! under control for large dim
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(basis.dim)])
    log_mag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - log_fact / 2
    amps = np.exp(log_mag) * np.exp(1j * np.angle(alpha) * n)
    return StateVector(amps, basis)


def check_positive(value: float, name: str) -> None:
    """Raise ValueError naming `name` unless 0 < value < inf (NaN fails too)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_count(value, name: str, minimum: int) -> None:
    """Raise ValueError naming `name` unless value is a Python or numpy integer >= minimum.

    A float, even an integral one such as 16.0, a string or None is not a
    count: it would reach range(), np.arange or np.linspace as it is.  Nor is
    a bool, which Python counts as an int: number_state(basis, True) would
    set every amplitude, as amps[True] indexes the whole array.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _row_blocks(A):
    """Slices of consecutive rows of the 2-d array A, about _BLOCK_BYTES each, in order.

    A pass that writes or reads A one block at a time needs temporaries of
    one block, not of A: they stay in cache and are not paged in afresh.
    """
    step = max(1, _BLOCK_BYTES // max(1, A.shape[1] * A.itemsize))
    return [slice(i, i + step) for i in range(0, A.shape[0], step)]


def _significant(v):
    """v less its longest trailing run of weight <= u ||v||_1, u = eps/2; one entry is kept.

    A vector whose 1-norm is NaN or infinite is not cut: such entries reach the sum.
    """
    tail = np.cumsum(np.abs(v[::-1]))
    cut = np.count_nonzero(tail <= 0.5 * np.finfo(float).eps * tail[-1])
    return v[:v.size - cut or 1] if np.isfinite(tail[-1]) else v


def _real_matmul(W, S):
    """W @ S for real W and complex S, as one real product on S's (re, im) pairs."""
    return (W @ np.ascontiguousarray(S).view(np.float64)).view(np.complex128)


def hermitian_defect(A) -> float:
    """max |A - A^H| over the entries; inf if any entry is NaN or infinite.

    A NaN or infinite entry makes some entry of A - A^H NaN or infinite
    (inf - inf is NaN), so the maximum is NaN or inf.  A is read in the row
    blocks of `_row_blocks`, so the temporaries are a block, not a copy of
    A.  Callers compare the defect with their own tolerance.
    """
    A = np.asarray(A)
    with np.errstate(invalid="ignore"):
        defect = float(np.max([np.max(np.abs(A[rows] - A[:, rows].conj().T))
                               for rows in _row_blocks(A)]))
    return defect if defect == defect else np.inf


def check_phase(rate: float, t: float, name: str = "t") -> None:
    """Raise ValueError unless t and the phase rate * |t| are finite.

    `rate` is the largest frequency a caller multiplies by t, so this one
    Python float product (which overflows to inf without a warning) stands
    for every entry of the phase array it bounds.  A NaN or infinite t is
    named as such, before any product.
    """
    if not math.isfinite(float(t)):
        raise ValueError(f"{name}={t:g} is not finite")
    if not math.isfinite(float(rate) * abs(float(t))):
        raise ValueError(f"the phase {rate:g}*|{name}| overflows at {name}={t:g}")


def _state_phases(basis: OscillatorBasis, t: float, name: str = "t") -> np.ndarray:
    """e^{-i E_n t} for each level n, the free evolution of the amplitudes over t.

    Raises ValueError (from `check_phase`, naming `name`) if the largest
    phase E_max |t| overflows.
    """
    energies = basis.energies()
    check_phase(energies[-1], t, name)
    return np.exp(-1j * energies * t)


def _heisenberg_phases(basis: OscillatorBasis, t: float, name: str = "t") -> np.ndarray:
    """The real matrix (m - n) omega t, the phase of A(t)_mn = e^{i (m - n) omega t} A_mn.

    A(t) is U(t)^dag A U(t), and E_m - E_n = (m - n) omega under either
    zero-point convention.  Raises ValueError (from `check_phase`, naming
    `name`) if the largest phase (dim - 1) omega |t| overflows.
    """
    check_phase(basis.omega * (basis.dim - 1), t, name)
    m = np.arange(basis.dim)
    return (m[:, None] - m[None, :]) * basis.omega * t


def _sinc(x) -> np.ndarray:
    """sin(x) / x for each entry of the real array x, and exactly 1 where x is 0.

    It is the window integral of a phase: (1 / 2 tau) times the integral of
    e^{i nu t} over [-tau, tau] is _sinc(nu tau).  No 0 / 0 is formed, so
    nothing warns.
    """
    out = np.ones_like(x)
    np.divide(np.sin(x), x, out=out, where=x != 0.0)
    return out


def evolve(state: StateVector, t: float) -> StateVector:
    """Free evolution: c_n -> e^{-i E_n t} c_n."""
    return StateVector(state.amplitudes * _state_phases(state.basis, t), state.basis)


def _hermite_rows(x, targets):
    """Yield (n, out) for each (n, out) of `targets`, with phi_n(x.ravel()) written into out.

    The n of `targets` increase; the recurrence stops at the last one, and
    only the rows asked for are unscaled and written.  It runs the stable
    three-term recurrence on the normalized functions
    phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1},
    which never forms raw Hermite polynomials and stays finite for large n,
    on three buffers: a row forms (x sqrt(2/m)) psi_{m-1} in the scratch
    buffer, scales psi_{m-2} in place and overwrites it with the
    difference, so it allocates nothing.  The operands and their order are
    those of the formula, so the bits do not depend on the buffers.
    Every point carries an integer exponent e and the recurrence runs on
    psi_n = phi_n 2^-e.  e is 0 where exp(-x^2/2) is a normal float; beyond
    (|x| > 37.4) it takes up the Gaussian factor and every later rescaling
    (Bunck, BIT 49 (2009) 281), so phi_n is right wherever it is a normal
    float.  Memory is O(points) for any n.

    Rescaling: a check on row n multiplies psi_{n-1} and psi_n by 2^-256,
    and adds 256 to e, wherever |psi_n| > 2^256.  A point with e = 0 has
    |psi_n| = |phi_n| <= pi^-1/4 and is never rescaled.  Each row grows
    max(|psi_{n-1}|, |psi_n|) by at most g = sqrt(2) max|x| + 1 over the
    points with e != 0 (|x| <= _X_CLIP), so checking the two rows n = -1, 0
    (mod k), k = floor(256 / log2 g) >= 10, keeps both at most 2^256 after
    them and at most 2^512 before the next pair, and one rescaling is
    enough.  Every row handed out is checked too, because `_unscaling`
    needs |psi_n| <= 2^256.  Scaling by 2^-256 is exact, so the rows on
    which the checks run change no bit of any phi_n.
    """
    x = np.clip(np.asarray(x, dtype=float).ravel(), -_X_CLIP, _X_CLIP)
    half_sq = 0.5 * x * x
    e = np.where(half_sq > _GAUSSIAN_FLOOR, -np.floor(half_sq / math.log(2.0)), 0.0)
    half_sq += e * math.log(2.0)
    e = e.astype(np.int64)
    scaled = bool(e.any())
    if scaled:
        growth = math.sqrt(2.0) * float(np.max(np.abs(x[e != 0]))) + 1.0
        cadence = int(_RESCALE_BITS // math.log2(growth))
    scale = None
    prev, cur = np.zeros_like(x), np.pi ** -0.25 * np.exp(-half_sq)
    a = np.empty_like(x)
    targets = list(targets)     # the last n is the last row the recurrence forms
    up, down = _recurrence_coefficients(targets[-1][0] + 1 if targets else 0)
    m = 0
    for n, out in targets:
        while m < n:
            m += 1
            np.multiply(x, up[m - 1], a)
            a *= cur
            prev *= down[m - 1]
            np.subtract(a, prev, prev)
            prev, cur = cur, prev
            if scaled and (m % cadence in (0, cadence - 1) or m == n):
                big = np.abs(cur) > 2.0 ** _RESCALE_BITS
                if big.any():
                    np.multiply(prev, 2.0 ** -_RESCALE_BITS, out=prev, where=big)
                    np.multiply(cur, 2.0 ** -_RESCALE_BITS, out=cur, where=big)
                    np.add(e, _RESCALE_BITS, out=e, where=big)
                    scale = None
        if scaled:
            if scale is None:
                scale = _unscaling(e)
            np.multiply(cur, scale, out=out)
            out *= 2.0 ** -_SPLIT_BITS
        else:
            out[...] = cur
        yield n, out


def _unscaling(e):
    """2^(e + _SPLIT_BITS), so that psi 2^e = (psi * _unscaling(e)) * 2^-_SPLIT_BITS.

    A psi is checked to be at most 2^256 in magnitude before it is
    unscaled, so the first product, phi 2^_SPLIT_BITS, is exact wherever
    |phi| > 2^-1534, and only the second one rounds, once, as ldexp(psi, e)
    would, at a fraction of its cost; below that both give zero.  Every e
    below -1022 - _SPLIT_BITS gives phi = 0 and is raised to it, which keeps
    this factor a normal float.
    """
    return np.ldexp(1.0, np.maximum(e, -1022 - _SPLIT_BITS) + _SPLIT_BITS)


def _recurrence_coefficients(n_max: int):
    """The lists of sqrt(2/m) and of sqrt((m-1)/m), m = 1..n_max-1, as Python floats.

    Both recurrences read their coefficients here, so they share every float.
    """
    m = np.arange(1, n_max, dtype=float)
    return np.sqrt(2.0 / m).tolist(), np.sqrt((m - 1.0) / m).tolist()


def _few_point_columns(x, n_max: int):
    """phi_0..phi_{n_max-1} at each point of x, one list per point, on Python floats.

    The unscaled recurrence of `_hermite_rows` (every point has e = 0), with
    the same coefficients and operations in the same order, (x sqrt(2/m))
    phi_{m-1} - phi_{m-2} sqrt((m-1)/m), from the same numpy phi_0: the
    values are the vector path's, bit for bit.
    """
    up, down = _recurrence_coefficients(n_max)
    seeds = (np.pi ** -0.25 * np.exp(-(0.5 * x * x))).tolist()
    for xj, cur in zip(x.tolist(), seeds):
        prev, column = 0.0, [cur]
        for u, d in zip(up, down):
            prev, cur = cur, (xj * u) * cur - prev * d
            column.append(cur)
        yield column


def hermite_functions(x, n_max: int) -> np.ndarray:
    """Orthonormal Hermite-Gaussian eigenfunctions phi_0..phi_{n_max-1} at x.

    At most _FEW_POINTS points, none beyond the Gaussian floor (|x| <=
    37.4, so none is ever rescaled), run the recurrence on Python floats
    (`_few_point_columns`): interval edges are one or two points, for which
    numpy's per-call overhead costs more than the arithmetic.  Every other
    input takes the rows of the scaled recurrence of `_hermite_rows`, each
    written straight into its row of the result.  Both give the same bits.
    Returns an array of shape (n_max,) + shape(x); n_max = 0 gives an empty one.
    """
    check_count(n_max, "n_max", 0)
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty((n_max, x.size))
    # on Python floats, where 0.5 x^2 overflows to inf without a warning
    if n_max and flat.size <= _FEW_POINTS and all(0.5 * v * v <= _GAUSSIAN_FLOOR
                                                  for v in flat.tolist()):
        for j, column in enumerate(_few_point_columns(flat, n_max)):
            out[:, j] = column
    else:
        for _ in _hermite_rows(x, enumerate(out)):
            pass
    return out.reshape((n_max,) + x.shape)


def position_wavefunction(state: StateVector, x):
    """psi(x) = sum_n c_n phi_n(x); scalar in, scalar out.

    The sum is accumulated along the Hermite recurrence, which unscales
    and hands out only the phi_n with c_n != 0 and stops at the last one;
    the real and imaginary parts of c_n are kept apart and zero parts
    skipped.  No n x points table is formed, so memory is O(points) for any
    dim.
    """
    xarr = np.asarray(x, dtype=float)
    amps = state.amplitudes
    re, im, term, phi = (np.zeros(xarr.size) for _ in range(4))
    for n, row in _hermite_rows(xarr, ((n, phi) for n in np.flatnonzero(amps))):
        c = amps[n]
        if c.real:
            re += np.multiply(row, c.real, out=term)
        if c.imag:
            im += np.multiply(row, c.imag, out=term)
    psi = (re + 1j * im).reshape(xarr.shape)
    return complex(psi) if xarr.shape == () else psi


def hamiltonian(basis: OscillatorBasis) -> np.ndarray:
    """H as a dense complex matrix (diagonal in this basis)."""
    return np.diag(basis.energies()).astype(np.complex128)
