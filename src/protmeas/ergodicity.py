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

from dataclasses import dataclass, replace

import numpy as np

from .oscillator import _BLOCK_BYTES, OscillatorBasis, check_positive
from .projectors import IntervalRegion
from .quadrature import interval_diagonal


@dataclass(frozen=True)
class DwellReport:
    time_average: float
    analytic_fraction: float
    statistical_error: float
    quantum_fraction: float | None = None

    def __post_init__(self):
        for name in ("time_average", "analytic_fraction", "quantum_fraction"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


def classical_time_average(amplitude: float, omega: float, region: IntervalRegion,
                           duration: float, n_samples: int) -> float:
    """Fraction of sample times j*T/n at which the trajectory lies in `region`.

    The positions amplitude * cos(omega * (T * j / n)) are formed in place,
    in blocks of _BLOCK_BYTES of floats, so memory does not depend on
    n_samples.  Raises ValueError naming the parameter unless amplitude,
    omega and duration are positive and finite and n_samples >= 1.
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
        np.cos(x, out=x)
        x *= amplitude
        inside += int(np.count_nonzero(region.contains(x)))
    return float(inside / n_samples)


def classical_ensemble_average(size: int, amplitude: float, omega: float, seed: int,
                               region: IntervalRegion, t: float = 0.0) -> float:
    """Fraction of `size` oscillators inside `region` at time t.

    The members share the amplitude and omega; their phases are drawn
    uniformly on [0, 2 pi) from `seed`.  Raises ValueError naming the
    parameter unless size >= 1 and amplitude and omega are positive and
    finite.
    """
    if size < 1:
        raise ValueError(f"ensemble size must be >= 1, got {size}")
    check_positive(amplitude, "amplitude")
    check_positive(omega, "omega")
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size)
    x = float(amplitude) * np.cos(omega * t + phases)
    return float(np.count_nonzero(region.contains(x)) / size)


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


def dwell_report(amplitude: float, region: IntervalRegion, omega: float, n_samples: int,
                 n_periods: int) -> DwellReport:
    """One oscillator's dwell in `region`: sampled over n_periods periods and in closed form.

    The trajectory amplitude * cos(omega t) is sampled n_samples times over
    the window n_periods * 2 pi / omega; the report carries that time
    average, its sampling error and the arcsin fraction.  Raises ValueError
    naming omega or n_periods unless omega is positive and finite and
    n_periods >= 1, and classical_time_average's refusals otherwise.
    """
    check_positive(omega, "omega")
    if n_periods < 1:
        raise ValueError(f"n_periods must be >= 1, got {n_periods}")
    time_avg = classical_time_average(amplitude, omega, region,
                                      n_periods * 2.0 * np.pi / omega, n_samples)
    return DwellReport(time_average=time_avg,
                       analytic_fraction=classical_dwell_fraction(amplitude, region),
                       statistical_error=sampling_error(time_avg, n_samples))


def correspondence_check(n: int, region: IntervalRegion, basis: OscillatorBasis,
                         n_samples: int = 200_001, n_periods: int = 1000) -> DwellReport:
    """Quantum dwell <n|P|n> against the energy-matched classical oscillator.

    The classical side is dwell_report at A = sqrt(2n+1), so both sides
    carry the energy (n + 1/2) omega; a sample count coprime with the number
    of periods equidistributes the phases.  <n|P|n> is read off the diagonal
    recurrence, which needs phi_0..phi_n only, so it does not depend on
    basis.dim.  Raises ValueError unless n >= 0, and dwell_report's refusals.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    classical = dwell_report(float(np.sqrt(2.0 * n + 1.0)), region, basis.omega,
                             n_samples, n_periods)
    quantum = interval_diagonal(region.lower, region.upper, n + 1)[n]
    return replace(classical, quantum_fraction=float(np.clip(quantum, 0.0, 1.0)))
