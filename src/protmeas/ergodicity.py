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

from .oscillator import OscillatorBasis
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
        if np.any(a <= 0):
            raise ValueError("all amplitudes must be positive")
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
    ensemble_average: float
    analytic_fraction: float
    statistical_error: float
    quantum_fraction: float | None = None

    def __post_init__(self):
        for name in ("time_average", "ensemble_average", "analytic_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.quantum_fraction is not None and not 0.0 <= self.quantum_fraction <= 1.0:
            raise ValueError(f"quantum_fraction={self.quantum_fraction} outside [0, 1]")


def classical_time_average(amplitude: float, phase: float, omega: float,
                           region: IntervalRegion, duration: float,
                           n_samples: int) -> float:
    """Fraction of sample times j*T/n at which the trajectory lies in `region`."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    t = duration * np.arange(1, n_samples + 1) / n_samples
    x = amplitude * np.cos(omega * t + phase)
    return float(np.count_nonzero(region.contains(x)) / n_samples)


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
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    lo = max(region.lower, -amplitude)
    hi = min(region.upper, amplitude)
    if lo >= hi:
        return 0.0
    return float((np.arcsin(hi / amplitude) - np.arcsin(lo / amplitude)) / np.pi)


def sampling_error(fraction: float, n_samples: int) -> float:
    """Binomial-style standard error estimate for a sampled fraction."""
    return float(np.sqrt(max(fraction * (1.0 - fraction), 1e-30) / n_samples))


def correspondence_check(n: int, region: IntervalRegion, basis: OscillatorBasis,
                         n_samples: int = 200_001, n_periods: int = 1000,
                         ensemble_size: int = 0, seed: int | None = None) -> DwellReport:
    """Quantum dwell <n|P|n> against the energy-matched classical oscillator.

    The classical amplitude is A = sqrt(2n+1) so both sides carry the energy
    (n + 1/2) omega.  The sampled time average uses a sample count coprime
    with the number of periods to equidistribute phases; an ensemble average
    is included when `ensemble_size` and `seed` are given.  <n|P|n> is read
    off the diagonal recurrence, which needs phi_0..phi_n only, so it does
    not depend on basis.dim once the dim >= 2n margin holds.
    """
    if basis.dim < 2 * n:
        raise ValueError(
            f"truncation margin violated: need dim >= {2 * n} for n={n}, "
            f"got dim={basis.dim}")
    quantum = interval_diagonal(region.lower, region.upper, n + 1)[n]
    amplitude = float(np.sqrt(2.0 * n + 1.0))
    analytic = classical_dwell_fraction(amplitude, region)
    duration = n_periods * 2.0 * np.pi / basis.omega
    time_avg = classical_time_average(amplitude, 0.0, basis.omega, region,
                                      duration, n_samples)
    err = sampling_error(time_avg, n_samples)
    if ensemble_size > 0:
        if seed is None:
            raise ValueError("an ensemble average requires an explicit seed")
        ens = uniform_phase_ensemble(ensemble_size, amplitude, basis.omega, seed)
        ens_avg = classical_ensemble_average(ens, region)
        err = float(np.hypot(err, sampling_error(ens_avg, ensemble_size)))
    else:
        ens_avg = analytic
    return DwellReport(time_average=time_avg, ensemble_average=ens_avg,
                       analytic_fraction=analytic, statistical_error=err,
                       quantum_fraction=float(np.clip(quantum, 0.0, 1.0)))
