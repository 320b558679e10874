import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from protmeas import (IntervalRegion, OscillatorBasis, classical_dwell_fraction,
                      classical_ensemble_average, classical_time_average,
                      correspondence_check, dwell_report, expectation, number_state,
                      projector_matrix)
from protmeas import oscillator, projectors, quadrature
from protmeas.cli import main
from protmeas.ergodicity import sampling_error

from conftest import edge_regions

ERF_ONE = 0.8427007929497148   # quantum dwell of |0> in [-1, 1]


# ------------------------------------------------------------ time averages

def test_time_average_full_line():
    assert classical_time_average(1.0, 1.0, IntervalRegion(-np.inf, np.inf), 100.0, 1000) == 1.0


def test_time_average_half_line():
    n = 40001
    avg = classical_time_average(1.0, 1.0, IntervalRegion(0.0, np.inf),
                                 1000 * 2 * np.pi, n)
    assert abs(avg - 0.5) < 2.0 / np.sqrt(n)


def test_time_average_matches_arcsin_fraction():
    # 1000 periods sampled at a coprime count equidistributes the phase
    n = 100_001
    region = IntervalRegion(0.5, 1.0)
    avg = classical_time_average(1.0, 1.0, region, 1000 * 2 * np.pi, n)
    assert classical_dwell_fraction(1.0, region) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert abs(avg - 1.0 / 3.0) < 2.0 / np.sqrt(n)


def test_time_average_converges_with_samples():
    region = IntervalRegion(0.5, 1.0)
    target = 1.0 / 3.0
    for n in (1001, 10_001, 100_001):
        avg = classical_time_average(1.0, 1.0, region, 1000 * 2 * np.pi, n)
        assert abs(avg - target) <= 2.0 / np.sqrt(n)


def test_time_average_validation():
    with pytest.raises(ValueError):
        classical_time_average(1.0, 1.0, IntervalRegion(-np.inf, np.inf), 10.0, 0)


_BLOCK = oscillator._BLOCK_BYTES // 8   # samples in one block of the time average


@pytest.mark.parametrize("n", [1, 7, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1_001])
def test_time_average_counts_the_one_array_samples(n):
    # the blocked, in-place evaluation gives every sample the bits of this
    # one-array expression: an edge placed on a sample counts that sample
    # only if it does, in the first, a middle and the last (partial) block
    amplitude, omega, duration = 1.7, 2.1, 1000 * 2 * np.pi
    x = amplitude * np.cos(omega * (duration * np.arange(1, n + 1) / n))
    for edge in x[[0, n // 2, n - 1]]:
        for region in (IntervalRegion(edge, np.inf), IntervalRegion(-np.inf, edge),
                       IntervalRegion(edge, edge + 0.5)):
            want = np.count_nonzero(region.contains(x)) / n
            assert classical_time_average(amplitude, omega, region, duration, n) == want


def test_time_average_memory_does_not_grow_with_samples():
    # one array of the 10^6 sample positions alone is 8 MB
    n = 1_000_000
    tracemalloc.start()
    try:
        avg = classical_time_average(1.0, 1.0, IntervalRegion(0.5, 1.0),
                                     1000 * 2 * np.pi, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert abs(avg - 1.0 / 3.0) < 2.0 / np.sqrt(n)


_HALF = IntervalRegion(0.5, 1.0)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: classical_time_average(np.nan, 1.0, _HALF, 10.0, 100),
                 "amplitude", id="time-average-nan-amplitude"),
    pytest.param(lambda: classical_time_average(-1.0, 1.0, _HALF, 10.0, 100),
                 "amplitude", id="time-average-negative-amplitude"),
    pytest.param(lambda: classical_time_average(1.0, np.nan, _HALF, 10.0, 100),
                 "omega", id="time-average-nan-omega"),
    pytest.param(lambda: classical_time_average(1.0, np.inf, _HALF, 10.0, 100),
                 "omega", id="time-average-inf-omega"),
    pytest.param(lambda: classical_time_average(1.0, 1.0, _HALF, 0.0, 100),
                 "duration", id="time-average-zero-duration"),
    pytest.param(lambda: classical_time_average(1.0, 1.0, _HALF, np.inf, 100),
                 "duration", id="time-average-inf-duration"),
    pytest.param(lambda: correspondence_check(50, IntervalRegion(2.0, 4.0),
                                              OscillatorBasis(dim=128), n_periods=0),
                 "n_periods", id="correspondence-zero-periods"),
    pytest.param(lambda: dwell_report(1.0, _HALF, 0.0, 100, 10), "omega",
                 id="dwell-zero-omega"),
    pytest.param(lambda: dwell_report(1.0, _HALF, 1.0, 100, 0), "n_periods",
                 id="dwell-zero-periods"),
])
def test_averages_refuse_what_they_cannot_average(call, name):
    # each of these returned a number: 0.0 for a NaN amplitude or omega, the
    # t = 0 fraction for a zero duration, 0.0 against 0.0665 for no periods
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("size", [0, -1])
def test_an_ensemble_without_members_is_refused_by_its_size(size):
    with pytest.raises(ValueError, match=f"ensemble size must be >= 1, got {size}"):
        classical_ensemble_average(size, 1.0, 1, _HALF)


# -------------------------------------------------------- ensemble averages

def test_ensemble_agrees_with_time_average():
    # the ergodic hypothesis at desk scale: one trajectory vs 10^5 members
    region = IntervalRegion(0.5, 1.0)
    n_time, n_ens = 100_001, 100_000
    t_avg = classical_time_average(1.0, 1.0, region, 1000 * 2 * np.pi, n_time)
    e_avg = classical_ensemble_average(n_ens, 1.0, 20260809, region, 0.0)
    combined = np.hypot(sampling_error(t_avg, n_time), sampling_error(e_avg, n_ens))
    assert abs(t_avg - e_avg) <= 3.0 * combined


@pytest.mark.parametrize("t", [1e15, 1e17, 1e308])
def test_ensemble_keeps_its_phases_at_large_t(t, tmp_path):
    # t + phase rounded the phases to multiples of ulp(t), 0.125 at 1e15 and 16 at
    # 1e17, and away at 1e308: `ergodic --seed 1` read a gap of 7.3 sigma at 1e15,
    # and an ensemble average of 0.0, 224 sigma off, at 1e17 and 1e308
    n_ens = 100_000
    e_avg = classical_ensemble_average(n_ens, 1.0, 1, _HALF, t)
    assert abs(e_avg - 1.0 / 3.0) <= 5.0 * sampling_error(1.0 / 3.0, n_ens)
    assert main(["ergodic", "--seed", "1", "--t", repr(t), "--out", str(tmp_path)]) == 0
    header, row = (tmp_path / "ergodic.csv").read_text().splitlines()
    assert dict(zip(header.split(","), map(float, row.split(","))))["gap_sigmas"] <= 5.0


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_ensemble_refuses_a_non_finite_time_by_name(t):
    # named before math.remainder, which raises a bare "math domain error" at +-inf
    # and lets nan through as an ensemble average of 0.0
    with pytest.raises(ValueError, match=f"^t={t:g} is not finite"):
        classical_ensemble_average(10, 1.0, 1, _HALF, t)


def test_the_finite_time_check_moves_no_ensemble():
    assert classical_ensemble_average(100_000, 1.0, 1, _HALF, 1e17) == 0.33401


def test_ensemble_validation():
    with pytest.raises(ValueError, match="amplitude"):
        classical_ensemble_average(10, 0.0, 1, _HALF)


# ------------------------------------------------------------ dwell fraction

def test_dwell_fraction_covers():
    assert classical_dwell_fraction(1.0, IntervalRegion(-2.0, 2.0)) == 1.0
    assert classical_dwell_fraction(1.0, IntervalRegion(0.0, 1.0)) == pytest.approx(0.5)
    assert classical_dwell_fraction(1.0, IntervalRegion(2.0, 3.0)) == 0.0
    assert classical_dwell_fraction(1.0, IntervalRegion(0.5, 1.0)) == pytest.approx(1.0 / 3.0)


# ----------------------------------------------------------- correspondence

def test_correspondence_ground_state_window():
    report = correspondence_check(0, IntervalRegion(-1.0, 1.0), OscillatorBasis(dim=32))
    oracle, _ = integrate.quad(lambda x: np.exp(-x * x) / np.sqrt(np.pi), -1.0, 1.0)
    assert report.quantum_fraction == pytest.approx(oracle, abs=1e-9)
    assert report.quantum_fraction == pytest.approx(ERF_ONE, abs=1e-9)


def test_correspondence_high_quantum_number():
    report = correspondence_check(50, IntervalRegion(2.0, 4.0), OscillatorBasis(dim=128))
    gap = abs(report.quantum_fraction - report.analytic_fraction)
    assert gap / report.analytic_fraction <= 0.05
    assert abs(report.time_average - report.analytic_fraction) \
        <= 3.0 * report.statistical_error + 1e-4


def test_correspondence_beyond_turning_point():
    # a window pinned just past the turning point: classically forbidden,
    # quantum tail only, shrinking with n
    b = OscillatorBasis(dim=160)
    previous = 1.0
    for n in (10, 20, 40):
        A = np.sqrt(2.0 * n + 1.0)
        region = IntervalRegion(A + 0.5, A + 1.5)
        report = correspondence_check(n, region, b, n_samples=101, n_periods=7)
        assert report.analytic_fraction == 0.0
        assert report.time_average == 0.0
        assert 0.0 < report.quantum_fraction < 0.01
        assert report.quantum_fraction < previous
        previous = report.quantum_fraction


def test_correspondence_margin_check():
    # dim below 2n needs no margin and gives the same bits: <40|P|40> needs phi_0..phi_40 only
    fractions = [correspondence_check(40, IntervalRegion(0.0, 1.0), OscillatorBasis(dim=dim),
                                      n_samples=1001, n_periods=10).quantum_fraction
                 for dim in (64, 1024)]
    assert fractions == [0.03390070902506814] * 2


def test_correspondence_builds_no_projector(monkeypatch):
    # <n|P|n> comes off the diagonal recurrence, bit for bit the projector's entry
    region, basis = IntervalRegion(2.0, 4.0), OscillatorBasis(dim=128)
    entry = projector_matrix(region, basis).entries[50, 50]

    def no_projector(*args):
        raise AssertionError("correspondence_check built a dim x dim projector")
    monkeypatch.setattr(quadrature, "interval_overlaps", no_projector)
    monkeypatch.setattr(projectors, "interval_overlaps", no_projector)
    report = correspondence_check(50, region, basis, n_samples=1001, n_periods=10)
    assert report.quantum_fraction == entry


def test_ergodic_and_correspondence_read_one_dwell_report(tmp_path):
    # both runners take the window, time average, arcsin fraction and error from
    # dwell_report, bit for bit; the window is n_periods * 2 pi / omega, and
    # ergodic reads it at omega = 1
    region, omega = IntervalRegion(0.5, 1.5), 1.3
    fields = ("time_average", "analytic_fraction", "statistical_error")
    for n in (0, 3, 50):
        amplitude = float(np.sqrt(2.0 * n + 1.0))
        report = correspondence_check(n, region, OscillatorBasis(dim=128, omega=omega),
                                      n_samples=1001, n_periods=10)
        dwell = dwell_report(amplitude, region, omega, 1001, 10)
        assert [getattr(report, f) for f in fields] == [getattr(dwell, f) for f in fields]
        assert dwell.time_average == classical_time_average(
            amplitude, omega, region, 10 * 2.0 * np.pi / omega, 1001)
    assert main(["ergodic", "--seed", "1", "--amplitude", "1.7", "--a", "0.5", "--b", "1.5",
                 "--n-samples", "1001", "--periods", "10", "--ensemble-n", "100",
                 "--out", str(tmp_path)]) == 0
    header, row = (tmp_path / "ergodic.csv").read_text().splitlines()
    row = dict(zip(header.split(","), map(float, row.split(","))))
    dwell = dwell_report(1.7, region, 1.0, 1001, 10)
    assert [row[c] for c in ("time_average", "analytic_fraction", "stat_error_time")] \
        == [getattr(dwell, f) for f in fields]


def test_quantum_fraction_does_not_depend_on_dim():
    region = IntervalRegion(2.0, 4.0)
    fractions = [correspondence_check(200, region, OscillatorBasis(dim=dim), n_samples=1001,
                                      n_periods=10).quantum_fraction for dim in (512, 1024)]
    assert fractions[0] == fractions[1]
    assert abs(fractions[0] - classical_dwell_fraction(np.sqrt(401.0), region)) < 0.02


def test_quantum_partition_sums_to_one(basis):
    # dwell fractions over a partition stay below 1 and approach it as L grows
    st = number_state(basis, 3)
    totals = []
    for extent in (4.0, 6.0):
        total = sum(expectation(projector_matrix(r, basis), st)
                    for r in edge_regions(width=0.5, extent=extent))
        totals.append(total)
    assert totals[0] <= 1.0 + 1e-10
    assert totals[1] <= 1.0 + 1e-10
    assert totals[1] > totals[0]
    assert totals[1] > 0.999
