"""Classical oscillator time/ensemble averages and the correspondence check.

A classical oscillator x(t) = A cos(omega t + phase) spends the fraction

    (1/pi) * [arcsin(b/A) - arcsin(a/A)]

of each period inside [a, b] (clipped to the turning points); sampled time
averages and uniform-phase ensemble averages both converge to it.  The
quantum analogue of the dwell fraction is <n|P_V|n>, which approaches the
classical value of the energy-matched amplitude A = sqrt(2n+1) for highly
excited states and bins wide enough to average over the wavefunction's
oscillations.
"""

from dataclasses import dataclass

import numpy as np

from .oscillator import _BLOCK_BYTES, OscillatorBasis, check_positive
from .projectors import IntervalRegion
from .quadrature import interval_diagonal


@dataclass(frozen=True, eq=False)
class ClassicalEnsemble:
    """Oscillator ensemble as (amplitude, phase) pairs with optional weights."""

    amplitudes: np.ndarray
    phases: np.ndarray
    omega: float = 1.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=float)
        p = np.asarray(self.phases, dtype=float)
        if a.size < 1 or a.shape != p.shape:
            raise ValueError("need matching, non-empty amplitude and phase arrays")
        if not np.all((a > 0) & (a < np.inf) & np.isfinite(p)):
            raise ValueError("amplitudes must be positive and finite, phases finite")
        check_positive(self.omega, "omega")
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "phases", p)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != a.shape or np.any(w < 0) or w.sum() == 0:
                raise ValueError("weights must be non-negative and match the members")
            object.__setattr__(self, "weights", w / w.sum())

    @property
    def size(self) -> int:
        return int(self.amplitudes.size)


def uniform_phase_ensemble(size: int, amplitude: float, omega: float,
                           seed: int) -> ClassicalEnsemble:
    """Common amplitude, phases drawn uniformly on [0, 2 pi)."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size)
    return ClassicalEnsemble(np.full(size, float(amplitude)), phases, omega)


@dataclass(frozen=True)
class DwellReport:
    time_average: float
    analytic_fraction: float
    statistical_error: float
    quantum_fraction: float | None = None

    def __post_init__(self):
        for name in ("time_average", "analytic_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.quantum_fraction is not None and not 0.0 <= self.quantum_fraction <= 1.0:
            raise ValueError(f"quantum_fraction={self.quantum_fraction} outside [0, 1]")


def classical_time_average(amplitude: float, phase: float, omega: float,
                           region: IntervalRegion, duration: float,
                           n_samples: int) -> float:
    """Fraction of sample times j*T/n at which the trajectory lies in `region`.

    The positions amplitude * cos(omega * (T * j / n) + phase) are formed
    in place, in blocks of _BLOCK_BYTES of floats, so memory does not
    depend on n_samples.  Raises ValueError naming the parameter unless
    amplitude, omega and duration are positive and finite and n_samples >= 1.
    """
    check_positive(amplitude, "amplitude")
    check_positive(omega, "omega")
    check_positive(duration, "duration")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    block = _BLOCK_BYTES // np.dtype(float).itemsize
    inside = 0
    for start in range(1, n_samples + 1, block):
        x = np.arange(start, min(start + block, n_samples + 1), dtype=float)
        x *= duration
        x /= n_samples
        x *= omega
        x += phase
        np.cos(x, out=x)
        x *= amplitude
        inside += int(np.count_nonzero(region.contains(x)))
    return float(inside / n_samples)


def classical_ensemble_average(ensemble: ClassicalEnsemble, region: IntervalRegion,
                               t: float = 0.0) -> float:
    """Weighted fraction of members inside `region` at time t."""
    x = ensemble.amplitudes * np.cos(ensemble.omega * t + ensemble.phases)
    inside = region.contains(x)
    if ensemble.weights is None:
        return float(np.count_nonzero(inside) / ensemble.size)
    return float(np.sum(ensemble.weights[inside]))


def classical_dwell_fraction(amplitude: float, region: IntervalRegion) -> float:
    """Closed-form dwell fraction of one oscillator in `region`."""
    check_positive(amplitude, "amplitude")
    lo = max(region.lower, -amplitude)
    hi = min(region.upper, amplitude)
    if lo >= hi:
        return 0.0
    return float((np.arcsin(hi / amplitude) - np.arcsin(lo / amplitude)) / np.pi)


def sampling_error(fraction: float, n_samples: int) -> float:
    """Binomial-style standard error estimate for a sampled fraction."""
    return float(np.sqrt(max(fraction * (1.0 - fraction), 1e-30) / n_samples))


def correspondence_check(n: int, region: IntervalRegion, basis: OscillatorBasis,
                         n_samples: int = 200_001, n_periods: int = 1000) -> DwellReport:
    """Quantum dwell <n|P|n> against the energy-matched classical oscillator.

    The classical amplitude is A = sqrt(2n+1) so both sides carry the energy
    (n + 1/2) omega.  The sampled time average uses a sample count coprime
    with the number of periods to equidistribute phases.  <n|P|n> is read
    off the diagonal recurrence, which needs phi_0..phi_n only, so it does
    not depend on basis.dim.  Raises ValueError unless n_periods >= 1.
    """
    if n_periods < 1:
        raise ValueError(f"n_periods must be >= 1, got {n_periods}")
    quantum = interval_diagonal(region.lower, region.upper, n + 1)[n]
    amplitude = float(np.sqrt(2.0 * n + 1.0))
    analytic = classical_dwell_fraction(amplitude, region)
    duration = n_periods * 2.0 * np.pi / basis.omega
    time_avg = classical_time_average(amplitude, 0.0, basis.omega, region,
                                      duration, n_samples)
    err = sampling_error(time_avg, n_samples)
    return DwellReport(time_average=time_avg, analytic_fraction=analytic,
                       statistical_error=err,
                       quantum_fraction=float(np.clip(quantum, 0.0, 1.0)))
