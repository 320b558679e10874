import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks

from protmeas import (IntervalRegion, MeasurementSchedule, OscillatorBasis,
                      PostSelectionError, coherent_state, evolve, expectation,
                      number_state, pointer_trace, projector_matrix, weak_value,
                      weak_value_series)
from protmeas.projectors import bin_regions
from protmeas.weak import closed_form_pvi_weak

from conftest import random_hermitian, random_state

HALF_TAIL = 0.07864960352514258   # erfc(1)/2


# ---------------------------------------------------------------- schedule

def test_schedule_integral_is_one():
    s = MeasurementSchedule(100.0, ramp_fraction=0.05)
    assert s.cumulative(s.duration) == pytest.approx(1.0, abs=1e-12)
    sampled = np.trapezoid(s.g(s.times), s.times)
    assert sampled == pytest.approx(1.0, abs=1e-6)


def test_schedule_rectangular_limit():
    s = MeasurementSchedule(10.0, ramp_fraction=0.0, steps=16)
    assert np.allclose(s.g(s.times), 0.1)
    assert s.cumulative(5.0) == pytest.approx(0.5, abs=1e-14)


def test_schedule_cumulative_matches_sampled_integral():
    s = MeasurementSchedule(20.0, ramp_fraction=0.1, steps=4096)
    g = s.g(s.times)
    running = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(s.times))])
    assert np.max(np.abs(running - s.cumulative(s.times))) < 1e-6


def test_schedule_validation():
    with pytest.raises(ValueError):
        MeasurementSchedule(0.0)
    with pytest.raises(ValueError):
        MeasurementSchedule(10.0, ramp_fraction=0.6)
    with pytest.raises(ValueError):
        MeasurementSchedule(10.0, steps=1)


# ------------------------------------------------------------- expectation

def test_expectation_identity(basis, rng):
    st = random_state(rng, basis)
    assert expectation(np.eye(basis.dim), st) == pytest.approx(1.0, abs=1e-12)


def test_expectation_tail_projector(basis):
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    assert expectation(P, number_state(basis, 0)) == pytest.approx(HALF_TAIL, abs=1e-9)


def test_expectation_number_state_reads_diagonal(basis):
    P = projector_matrix(IntervalRegion(-0.5, 1.5), basis)
    for n in (0, 2, 9):
        assert expectation(P, number_state(basis, n)) == pytest.approx(
            P.entries[n, n].real, abs=1e-14)


def test_expectation_rejects_non_hermitian(basis, rng):
    st = random_state(rng, basis)
    A = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    with pytest.raises(ValueError):
        expectation(A, st)


# -------------------------------------------------------------- weak value

def test_weak_value_trivial_post_selection_is_expectation(basis, rng):
    T = 12.0
    for _ in range(100):
        A = random_hermitian(rng, basis.dim)
        pre = random_state(rng, basis)
        t = float(rng.uniform(0, T))
        post = evolve(pre, T).dual()
        wv = weak_value(A, pre, post, t, T)
        assert abs(wv.imag) < 1e-10
        assert wv.real == pytest.approx(expectation(A, evolve(pre, t)), abs=1e-10)


def test_weak_value_identity_is_one(basis, rng):
    pre = number_state(basis, 0)
    post = coherent_state(basis, 2.5).dual()
    wv = weak_value(np.eye(basis.dim), pre, post, 3.7, 10.0)
    assert abs(wv - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 64), T=st.floats(0.1, 100.0), t_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_weak_value_linearity(dim, T, t_frac, seed):
    rng = np.random.default_rng(seed)
    basis = OscillatorBasis(dim=dim)
    pre = random_state(rng, basis)
    post = random_state(rng, basis).dual()
    A = random_hermitian(rng, basis.dim)
    B = random_hermitian(rng, basis.dim)
    t = t_frac * T
    lhs = weak_value(A + B, pre, post, t, T)
    rhs = weak_value(A, pre, post, t, T) + weak_value(B, pre, post, t, T)
    assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def test_weak_value_orthogonal_post_selection_raises(basis):
    pre = number_state(basis, 0)
    post = number_state(basis, 1).dual()
    with pytest.raises(PostSelectionError):
        weak_value(np.eye(basis.dim), pre, post, 1.0, 10.0)


def test_weak_value_series_matches_scalar(basis, rng):
    P = projector_matrix(IntervalRegion(0.975, 1.025), basis)
    pre = number_state(basis, 0)
    post = coherent_state(basis, 2.5).dual()
    times = np.linspace(0.0, 10.0, 7)
    series, flagged = weak_value_series(P, pre, post, times, 10.0)
    assert not flagged.any()
    for t, v in zip(times, series):
        assert abs(v - weak_value(P, pre, post, float(t), 10.0)) < 1e-13


def test_partition_sum_rule(basis):
    # completeness survives post-selection: sum of interval weak values is 1
    pre = number_state(basis, 0)
    post = coherent_state(basis, 2.5).dual()
    regions = bin_regions(width=0.25, extent=6.0)
    regions = [IntervalRegion(-np.inf, -6.0)] + regions + [IntervalRegion(6.0, np.inf)]
    times = np.linspace(0.0, 100.0, 21)
    total = np.zeros(times.size, dtype=complex)
    for region in regions:
        P = projector_matrix(region, basis)
        vals, flagged = weak_value_series(P, pre, post, times, 100.0)
        assert not flagged.any()
        total += vals
    assert np.max(np.abs(total - 1.0)) < 1e-8


# -------------------------------------------------------------- closed form

def test_closed_form_alpha_zero_is_constant():
    T, x0 = 25.0, 1.0
    want = np.pi ** -0.5 * np.exp(-x0 ** 2 / 2) * np.cos(T / 2) * np.exp(-x0 ** 2 / 2)
    t = np.linspace(0.0, T, 50)
    vals = closed_form_pvi_weak(0.0, 0.0, x0, 1.0, T, t)
    assert np.allclose(vals, want, atol=1e-14)


def test_closed_form_periodicity():
    T = 100.0
    t = np.linspace(0.0, 50.0, 200)
    a = closed_form_pvi_weak(2.5, 0.0, 1.0, 1.0, T, t)
    b = closed_form_pvi_weak(2.5, 0.0, 1.0, 1.0, T, t + 2.0 * np.pi)
    assert np.max(np.abs(a - b)) < 1e-10


def test_closed_form_window_check():
    with pytest.raises(ValueError):
        closed_form_pvi_weak(2.5, 0.0, 1.0, 1.0, 10.0, 11.0)


def test_closed_form_amplitude_ordering():
    # larger |alpha| means a larger oscillation amplitude at fixed x0
    t = np.linspace(0.0, 100.0, 20001)
    big = np.max(np.abs(closed_form_pvi_weak(2.5, 0.0, 1.0, 1.0, 100.0, t)))
    small = np.max(np.abs(closed_form_pvi_weak(1.0, 0.0, 1.0, 1.0, 100.0, t)))
    assert big > small


def test_closed_form_tracks_exact_peak_magnitudes(basis):
    # the point approximation reproduces the exact oscillation amplitudes
    x0, w, T = 1.0, 0.02, 100.0
    P = projector_matrix(IntervalRegion(x0 - w / 2, x0 + w / 2), basis)
    pre = number_state(basis, 0)
    post = coherent_state(basis, 2.5).dual()
    times = np.linspace(0.0, T, 20001)
    wv, _ = weak_value_series(P, pre, post, times, T)
    exact = np.abs(wv.real) / w
    closed = np.abs(closed_form_pvi_weak(2.5, 0.0, x0, 1.0, T, times))
    ipk_e, _ = find_peaks(exact)
    ipk_c, _ = find_peaks(closed)
    top = ipk_e[np.argsort(exact[ipk_e])[-10:]]
    for i in top:
        j = ipk_c[np.argmin(np.abs(times[ipk_c] - times[i]))]
        assert abs(closed[j] - exact[i]) / exact[i] <= 0.10


# ------------------------------------------------------------ pointer trace

def test_trivial_trace_rejects_non_hermitian(basis, rng):
    A = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    with pytest.raises(ValueError, match="not Hermitian"):
        pointer_trace(MeasurementSchedule(10.0, steps=16), number_state(basis, 0), A)


def test_trivial_trace_linear_and_final(basis):
    P = projector_matrix(IntervalRegion(0.975, 1.025), basis)
    pre = number_state(basis, 0)
    s = MeasurementSchedule(100.0, steps=2048)
    trace = pointer_trace(s, pre, P)
    assert trace.readings[0] == 0.0
    assert np.all(np.diff(trace.readings) >= -1e-18)
    ref = expectation(P, pre)
    assert trace.final_reading == pytest.approx(ref, abs=1e-6)
    # linearity on the plateau: readings proportional to cumulative coupling
    mask = (trace.times > 5.0) & (trace.times < 95.0)
    fit = np.polyfit(trace.times[mask], trace.readings[mask], 1)
    resid = trace.readings[mask] - np.polyval(fit, trace.times[mask])
    assert np.max(np.abs(resid)) < 1e-2 * abs(trace.final_reading)


def test_post_selected_trace_oscillates(basis):
    P = projector_matrix(IntervalRegion(0.975, 1.025), basis)
    pre = number_state(basis, 0)
    post = coherent_state(basis, 2.5).dual()
    s = MeasurementSchedule(100.0, steps=4096)
    trace = pointer_trace(s, pre, P, post)
    assert not trace.any_flagged
    # the integrand changes sign many times: oscillatory movement
    signs = np.sign(trace.values[np.abs(trace.values) > 1e-6])
    assert np.count_nonzero(np.diff(signs) != 0) > 20


def test_final_reading_drops_with_distance(basis):
    pre = number_state(basis, 0)
    post = coherent_state(basis, 2.5).dual()
    s = MeasurementSchedule(100.0, steps=2048)
    finals = {}
    for x0 in (1.0, 1.5):
        P = projector_matrix(IntervalRegion(x0 - 0.025, x0 + 0.025), basis)
        finals[x0] = pointer_trace(s, pre, P, post).final_reading
    assert finals[1.5] < finals[1.0]


def test_flagged_trace_reports_not_raises(basis):
    P = projector_matrix(IntervalRegion(0.975, 1.025), basis)
    pre = number_state(basis, 0)
    post = number_state(basis, 1).dual()   # orthogonal at every grid point
    s = MeasurementSchedule(10.0, steps=64)
    trace = pointer_trace(s, pre, P, post)
    assert trace.any_flagged
    assert np.all(trace.flagged)
    assert np.all(trace.readings == 0.0)


def test_subnormal_ramp_fraction_raises_no_warning():
    s = MeasurementSchedule(1.0, 5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert s.cumulative([0.0, 0.5, 1.0]).tolist() == [0.0, 0.5, 1.0]
        assert s.g([0.0, 0.5, 1.0]).tolist() == [0.0, 1.0, 1.0]
