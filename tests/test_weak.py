import functools
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.signal import find_peaks

from protmeas import (IntervalRegion, MeasurementSchedule, OscillatorBasis,
                      PostSelectionError, bin_edges, coherent_state, evolve, expectation,
                      number_state, pointer_trace, projector_matrix, weak_value_series)
from protmeas.oscillator import COHERENT_TAIL_LIMIT, coherent_tail
from protmeas import weak as weak_module
from protmeas.weak import as_matrix, closed_form_pvi_weak, post_selection_overlap

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
    # a string, None or a complex is not a fraction, and `0.0 <= ... <= 0.5` would
    # raise a bare TypeError for the first two
    for ramp in ("0.1", None, 0.1 + 0j):
        with pytest.raises(ValueError,
                           match=f"^ramp_fraction must be a real number, got {re.escape(repr(ramp))}$"):
            MeasurementSchedule(10.0, ramp)
    for ramp in (np.float64(0.1), np.int64(0), 0):
        assert MeasurementSchedule(10.0, ramp).ramp_fraction == ramp
    with pytest.raises(ValueError):
        MeasurementSchedule(10.0, steps=1)
    # a float, even an integral one, a string or None is not a step count,
    # and .times would pass it to np.linspace
    for steps in (16.0, 2.5, "8", None, np.float64(8.0)):
        with pytest.raises(ValueError, match=f"^steps must be an integer, got {re.escape(repr(steps))}$"):
            MeasurementSchedule(10.0, 0.05, steps)
    for steps in (True, 0, -3, np.int64(1)):
        with pytest.raises(ValueError, match="^steps must be >= 2, got "):
            MeasurementSchedule(10.0, 0.05, steps)
    schedule = MeasurementSchedule(10.0, 0.05, np.int64(8))
    assert np.array_equal(schedule.times, np.linspace(0.0, 10.0, 9))


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


def test_real_and_complex_operators_agree_with_the_complex_product(basis, rng):
    st = random_state(rng, basis)
    H = random_hermitian(rng, basis.dim)
    S = H.real   # real symmetric
    P = projector_matrix(IntervalRegion(-0.5, 1.5), basis)
    for A in (S, P.entries, H):
        dense = np.vdot(st.amplitudes, A.astype(complex) @ st.amplitudes).real
        assert expectation(A, st) == pytest.approx(dense, rel=1e-13, abs=1e-13)
    assert expectation(S, st) == pytest.approx(expectation(S.astype(complex), st), rel=1e-13)
    assert expectation(P, st) == expectation(P.entries, st)
    assert expectation(np.eye(basis.dim, dtype=int), st) == pytest.approx(1.0, abs=1e-14)


def test_expectation_of_a_real_operator_makes_no_complex_copy():
    # A is 8.4 MB; a complex copy of it for the product would be 16.8 MB
    basis = OscillatorBasis(dim=1024)
    P = projector_matrix(IntervalRegion(-1.0, 1.0), basis)
    state = coherent_state(basis, 2.0)
    tracemalloc.start()
    try:
        expectation(P, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_expectation_rejects_non_hermitian(basis, rng):
    st = random_state(rng, basis)
    A = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    with pytest.raises(ValueError):
        expectation(A, st)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermitian_check_rejects_non_finite_entries(basis, bad):
    A = np.eye(basis.dim)
    A[0, 1] = bad
    with pytest.raises(ValueError, match="not Hermitian"):
        expectation(A, number_state(basis, 0))
    with pytest.raises(ValueError, match="not Hermitian"):
        weak_module._require_hermitian(np.array([[1.0, bad], [0.0, 1.0]]))
    assert weak_module.hermitian_defect(A) == np.inf
    diagonal = np.eye(2)
    diagonal[1, 1] = bad   # equal to its own adjoint, but inf - inf is NaN
    assert weak_module.hermitian_defect(diagonal) == np.inf


@pytest.mark.parametrize("dtype", [float, complex])
def test_hermitian_defect_over_row_blocks_is_the_dense_maximum(dtype):
    # 700 rows span several row blocks, the last one partial
    rng = np.random.default_rng(3)
    A = rng.normal(size=(700, 700)).astype(dtype)
    A = A + A.conj().T
    A[699, 3] += 1e-9
    assert weak_module.hermitian_defect(A) == np.max(np.abs(A - A.conj().T))
    A[698, 698] = np.inf
    assert weak_module.hermitian_defect(A) == np.inf
    with pytest.raises(ValueError, match="not Hermitian"):
        weak_module._require_hermitian(A)


# -------------------------------------------------------------- weak value

def test_weak_value_trivial_post_selection_is_expectation(basis, rng):
    T = 12.0
    for _ in range(100):
        A = random_hermitian(rng, basis.dim)
        pre = random_state(rng, basis)
        t = float(rng.uniform(0, T))
        post = evolve(pre, T).dual()
        wv = weak_value_series(A, pre, post, [t], T)[0]
        assert abs(wv.imag) < 1e-10
        assert wv.real == pytest.approx(expectation(A, evolve(pre, t)), abs=1e-10)


def test_weak_value_identity_is_one(basis, rng):
    pre = number_state(basis, 0)
    post = coherent_state(basis, 2.5).dual()
    wv = weak_value_series(np.eye(basis.dim), pre, post, [3.7], 10.0)[0]
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
    lhs = weak_value_series(A + B, pre, post, [t], T)[0]
    rhs = weak_value_series(A, pre, post, [t], T)[0] + weak_value_series(B, pre, post, [t], T)[0]
    assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def test_weak_value_orthogonal_post_selection_raises(basis):
    pre = number_state(basis, 0)
    post = number_state(basis, 1).dual()
    with pytest.raises(PostSelectionError):
        weak_value_series(np.eye(basis.dim), pre, post, [1.0], 10.0)


def test_weak_value_series_window_check(basis):
    pre = coherent_state(basis, 1.0)
    with pytest.raises(ValueError, match="measurement window"):
        weak_value_series(np.eye(basis.dim), pre, pre.dual(), [5.0], 1.0)
    with pytest.raises(ValueError, match="measurement window"):
        weak_value_series(np.eye(basis.dim), pre, pre.dual(), [0.0, -0.1, 0.5], 1.0)
    with pytest.raises(ValueError, match="measurement window"):
        weak_value_series(np.eye(basis.dim), pre, pre.dual(), [0.5, np.nan], 1.0)
    values = weak_value_series(np.eye(basis.dim), pre, pre.dual(), [0.0, 1.0], 1.0)
    assert np.allclose(values, 1.0, atol=1e-12)


def test_weak_value_series_matches_scalar(basis, rng):
    P = projector_matrix(IntervalRegion(0.975, 1.025), basis)
    pre = number_state(basis, 0)
    post = coherent_state(basis, 2.5).dual()
    times = np.linspace(0.0, 10.0, 7)
    series = weak_value_series(P, pre, post, times, 10.0)
    assert np.all(np.isfinite(series))
    for t, v in zip(times, series):
        assert abs(v - weak_value_series(P, pre, post, [float(t)], 10.0)[0]) < 1e-13


@functools.cache
def _tail_radius(dim):
    """The largest |alpha| <= 5 whose coherent tail at dim is below COHERENT_TAIL_LIMIT.

    The tail grows with |alpha|, so bisection down to adjacent floats finds it.
    """
    lo, hi = 0.0, 5.0
    if coherent_tail(dim, hi) < COHERENT_TAIL_LIMIT:
        return hi
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        if coherent_tail(dim, mid) < COHERENT_TAIL_LIMIT:
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def coherent_pairs(draw):
    """dim in [8, 64] and two coherent amplitudes that dim holds: |alpha| <= r(dim)."""
    dim = draw(st.integers(8, 64))
    amplitude = st.complex_numbers(max_magnitude=_tail_radius(dim))
    return dim, draw(amplitude), draw(amplitude)


@settings(max_examples=60, deadline=None)
@given(case=coherent_pairs(),
       cuts=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).map(
           lambda pair: sorted(set(pair))),
       T=st.floats(0.5, 100.0))
@example(case=(64, 0j, 2.5 + 0j), cuts=bin_edges(0.25, 6.0).tolist(), T=100.0)
def test_partition_sum_rule(case, cuts, T):
    # completeness survives post-selection: the weak values of the intervals
    # (-inf, c_0], [c_0, c_1], ..., [c_k, inf) sum to 1 at every time; two
    # equal drawn cuts are one cut
    dim, alpha, alpha2 = case
    basis = OscillatorBasis(dim=dim)
    assume(max(coherent_tail(dim, alpha), coherent_tail(dim, alpha2)) < COHERENT_TAIL_LIMIT)
    pre, post = coherent_state(basis, alpha), coherent_state(basis, alpha2).dual()
    try:
        den = post_selection_overlap(pre, post, T)
    except PostSelectionError:
        assume(False)
    ends = [-np.inf, *cuts, np.inf]
    regions = [IntervalRegion(a, b) for a, b in zip(ends[:-1], ends[1:])]
    times = np.linspace(0.0, T, 21)
    total = sum(weak_value_series(projector_matrix(region, basis), pre, post, times, T)
                for region in regions)
    # each region folds the terms d_m e^{-i E_m T} P_mn a_n, |P_mn| <= 1, and
    # Horner's rule rounds up to dim times at each time
    terms = len(regions) * np.sum(np.abs(post.amplitudes)) * np.sum(np.abs(pre.amplitudes))
    assert np.max(np.abs(total - 1.0)) <= dim * np.finfo(float).eps * terms / abs(den)


# ------------------------------------------- series against the array oracle

def _array_weak_values(A, pre, post, times, T):
    """A_w(t) from dim x times phase arrays: evolve the ket forward and the bra
    backward to every t, apply A to every evolved ket, and contract."""
    energies = pre.basis.energies()
    ket = pre.amplitudes[:, None] * np.exp(-1j * np.outer(energies, times))
    bra = post.amplitudes[:, None] * np.exp(-1j * np.outer(energies, T - times))
    return np.sum(bra * (as_matrix(A) @ ket), axis=0) / post_selection_overlap(pre, post, T)


def _assert_matches_oracle(A, pre, post, times, T, floor=0.0):
    series = weak_value_series(A, pre, post, times, T)
    ref = _array_weak_values(A, pre, post, times, T)
    err = np.max(np.abs(series - ref))
    assert err <= 1e-12 * max(1.0, np.max(np.abs(ref))) + floor


@pytest.mark.parametrize("grid", ["uniform", "shuffled"])
@pytest.mark.parametrize("zero_point", [False, True])
@pytest.mark.parametrize("omega", [1.0, 2.7])
def test_series_matches_array_evaluation_at_dim_512(omega, zero_point, grid):
    basis = OscillatorBasis(dim=512, omega=omega, include_zero_point=zero_point)
    T = 100.0
    P = projector_matrix(IntervalRegion(0.975, 1.025), basis)
    pre = coherent_state(basis, 1.2 * np.exp(0.4j))
    post = coherent_state(basis, 1.7 * np.exp(2.2j)).dual()
    times = np.linspace(0.0, T, 4097)
    if grid == "shuffled":
        rng = np.random.default_rng(512)
        times = rng.permutation(T * rng.random(4097) ** 2)
    _assert_matches_oracle(P, pre, post, times, T)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 128), omega=st.floats(0.1, 10.0), T=st.floats(0.1, 200.0),
       zero_point=st.booleans(), alpha=st.floats(0.0, 0.5), beta=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_series_matches_array_evaluation(dim, omega, T, zero_point, alpha, beta, seed):
    # coherent states with |alpha| <= 0.5 keep their weight in the lowest levels,
    # where the phases E_n t both evaluations round stay small enough for 1e-12
    assume(coherent_tail(dim, max(alpha, beta)) < COHERENT_TAIL_LIMIT)
    rng = np.random.default_rng(seed)
    basis = OscillatorBasis(dim=dim, omega=omega, include_zero_point=zero_point)
    pre = coherent_state(basis, alpha * np.exp(2j * np.pi * rng.random()))
    post = coherent_state(basis, beta * np.exp(2j * np.pi * rng.random())).dual()
    times = rng.permutation(T * rng.random(257))
    _assert_matches_oracle(random_hermitian(rng, dim), pre, post, times, T)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 128), omega=st.floats(0.1, 10.0), T=st.floats(0.1, 200.0),
       zero_point=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_series_matches_array_evaluation_for_dense_states(dim, omega, T, zero_point, seed):
    # a dense state reaches phases E_n t up to E_max T, which each evaluation
    # rounds to within a few ulps; both then differ from the exact value by up
    # to about eps E_max T per term, so the bound carries that floor
    rng = np.random.default_rng(seed)
    basis = OscillatorBasis(dim=dim, omega=omega, include_zero_point=zero_point)
    pre = random_state(rng, basis)
    post = random_state(rng, basis).dual()
    A = random_hermitian(rng, dim)
    try:
        den = post_selection_overlap(pre, post, T)
    except PostSelectionError:
        assume(False)
    terms = np.abs(post.amplitudes) @ np.abs(A) @ np.abs(pre.amplitudes) / abs(den)
    floor = 8 * np.finfo(float).eps * basis.energies()[-1] * T * terms
    times = rng.permutation(T * rng.random(257))
    _assert_matches_oracle(A, pre, post, times, T, floor)


def test_large_trace_is_bounded():
    # dim 1024 x 65537 phase arrays would need about 1 GB each
    basis = OscillatorBasis(dim=1024)
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    pre = coherent_state(basis, 1.2 * np.exp(0.4j))
    post = coherent_state(basis, 1.7 * np.exp(2.2j)).dual()
    schedule = MeasurementSchedule(100.0, steps=65536)
    start = time.perf_counter()
    trace = pointer_trace(schedule, pre, P, post)
    assert time.perf_counter() - start < 5.0
    assert trace.flagged is False
    assert np.all(np.isfinite(trace.readings))


def _untrimmed_horner(coeffs, z):
    """Horner's rule over every coefficient, negligible ones included."""
    values = np.full(z.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        values *= z
        values += c
    return values


def _full_fold_weak_values(A, pre, post, times, T):
    """A_w(t) from the fold of all dim x dim terms and Horner's rule over every c_k."""
    basis = pre.basis
    bra = post.amplitudes * np.exp(-1j * basis.energies() * T)
    terms = bra[:, None] * as_matrix(A) * pre.amplitudes[None, :]
    zero = basis.dim - 1
    n = np.arange(basis.dim)
    diagonal = (n[:, None] - n[None, :] + zero).ravel()
    coeffs = (np.bincount(diagonal, terms.real.ravel())
              + 1j * np.bincount(diagonal, terms.imag.ravel()))
    z = np.exp(1j * basis.omega * times)
    values = (_untrimmed_horner(coeffs[zero:], z)
              + _untrimmed_horner(coeffs[zero - 1::-1], z.conj()) * z.conj())
    return values / post_selection_overlap(pre, post, T)


@pytest.mark.parametrize("side", ["below", "narrow", "above"])
@pytest.mark.parametrize("selection", ["coherent", "evolved"])
def test_significance_cut_within_bound_at_dim_512(side, selection):
    # the inputs of the dim-512 benchmark pass: coherent pre- and
    # post-selection, an interval of width 0.05 around x0 and its two tails
    basis = OscillatorBasis(dim=512)
    x0, w, T = 0.59, 0.05, 100.0
    region = {"below": IntervalRegion(-np.inf, x0 - w / 2),
              "narrow": IntervalRegion(x0 - w / 2, x0 + w / 2),
              "above": IntervalRegion(x0 + w / 2, np.inf)}[side]
    P = projector_matrix(region, basis)
    pre = coherent_state(basis, 0.88 * np.exp(0.62j))
    post = (coherent_state(basis, 1.79 * np.exp(-3.01j)).dual() if selection == "coherent"
            else evolve(pre, T).dual())
    times = MeasurementSchedule(T, steps=16384).times
    cut = weak_value_series(P, pre, post, times, T)
    full = _full_fold_weak_values(P, pre, post, times, T)
    u = np.finfo(float).eps / 2
    bound = (3 * u * np.max(np.abs(P.entries)) * np.sum(np.abs(post.amplitudes))
             * np.sum(np.abs(pre.amplitudes)) / abs(post_selection_overlap(pre, post, T)))
    # both evaluations round the kept coefficients' Horner sums, which differ
    # only by the dropped partial sum, so they may also part by a few ulps
    rounding = 8 * u * np.max(np.abs(full))
    assert np.max(np.abs(cut - full)) <= bound + rounding


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 128), T=st.floats(0.1, 200.0), seed=st.integers(0, 2**32 - 1))
def test_dense_states_give_the_full_fold_exactly(dim, T, seed):
    # Gaussian amplitudes leave no negligible tail, so nothing is cut
    rng = np.random.default_rng(seed)
    basis = OscillatorBasis(dim=dim)
    pre = random_state(rng, basis)
    post = random_state(rng, basis).dual()
    A = random_hermitian(rng, dim)
    try:
        post_selection_overlap(pre, post, T)
    except PostSelectionError:
        assume(False)
    times = T * rng.random(65)
    values = weak_value_series(A, pre, post, times, T)
    assert np.array_equal(values, _full_fold_weak_values(A, pre, post, times, T))


@st.composite
def grid_sizes(draw):
    """A time count S at the grid product's edges: J^2 - 1, J^2 and J^2 + 1 change Q."""
    side = draw(st.integers(2, 64))
    return draw(st.sampled_from([2, 3, side * side - 1, side * side, side * side + 1, 4097]))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 64), omega=st.floats(0.1, 10.0), T=st.floats(0.1, 200.0),
       zero_point=st.booleans(), ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       size=grid_sizes(), seed=st.integers(0, 2**32 - 1))
@example(dim=64, omega=1.0, T=100.0, zero_point=False, ends=(0.0, 1.0), size=4097, seed=0)
@example(dim=2, omega=2.7, T=10.0, zero_point=True, ends=(0.25, 0.75), size=2, seed=1)
def test_grid_product_matches_the_full_fold(dim, omega, T, zero_point, ends, size, seed):
    # a linspace, from t_0 = 0 or later and either way round, takes the one
    # matrix product.  Its times t_{Jq} + r dt part from the linspace's t_j by
    # about 2 u max|t|, and each evaluation rounds the phase k omega t of a
    # term to about u |k| omega t, so a term moves by up to a few u |k| omega
    # max|t| |c_k|; the K = 2 dim - 1 products and sums round by up to a few
    # u K sum|c_k|, and sum |c_k| <= sum |d_m| |A_mn| |a_n|
    rng = np.random.default_rng(seed)
    basis = OscillatorBasis(dim=dim, omega=omega, include_zero_point=zero_point)
    pre = random_state(rng, basis)
    post = random_state(rng, basis).dual()
    A = random_hermitian(rng, dim)
    try:
        den = post_selection_overlap(pre, post, T)
    except PostSelectionError:
        assume(False)
    times = np.linspace(ends[0] * T, ends[1] * T, size)
    values = weak_value_series(A, pre, post, times, T)
    full = _full_fold_weak_values(A, pre, post, times, T)
    u = np.finfo(float).eps / 2
    terms = np.abs(post.amplitudes) @ np.abs(A) @ np.abs(pre.amplitudes) / abs(den)
    bound = 8 * u * (2 * dim - 1 + (dim - 1) * omega * np.max(times)) * terms
    assert values.shape == times.shape
    assert np.max(np.abs(values - full)) <= bound


def test_a_time_off_the_grid_by_one_ulp_takes_horners_rule():
    # dense states leave nothing to cut, so Horner's rule gives the full fold's
    # bits; the grid product, on the same times untouched, does not
    rng = np.random.default_rng(45)
    basis = OscillatorBasis(dim=32)
    pre = random_state(rng, basis)
    post = random_state(rng, basis).dual()
    A = random_hermitian(rng, basis.dim)
    T = 50.0
    grid = MeasurementSchedule(T, steps=4096).times
    assert not np.array_equal(weak_value_series(A, pre, post, grid, T),
                              _full_fold_weak_values(A, pre, post, grid, T))
    # (t_0 = 0 nudged to the least subnormal is still a linspace: its steps absorb it)
    for index in (1, 2048, 4096):
        nudged = grid.copy()
        nudged[index] = np.nextafter(nudged[index], T if index < 4096 else 0.0)
        values = weak_value_series(A, pre, post, nudged, T)
        assert np.array_equal(values, _full_fold_weak_values(A, pre, post, nudged, T))


@pytest.mark.parametrize("times", [3.7, [], [3.7], np.linspace(0.0, 10.0, 16).reshape(4, 4)],
                         ids=["scalar", "empty", "one", "2-D"])
def test_other_time_arrays_keep_their_shape_and_horners_bits(basis, rng, times):
    pre = random_state(rng, basis)
    post = random_state(rng, basis).dual()
    A = random_hermitian(rng, basis.dim)
    values = weak_value_series(A, pre, post, times, 10.0)
    assert np.shape(values) == np.shape(times)
    full = _full_fold_weak_values(A, pre, post, np.asarray(times, dtype=float), 10.0)
    assert np.array_equal(values, full)


def test_a_long_grid_series_stays_near_its_output_size():
    # Horner's rule held z, its conjugate and three more complex arrays of the
    # 2^20 times (67 MB); the grid product holds its output and small factors
    basis = OscillatorBasis(dim=64)
    P = projector_matrix(IntervalRegion(0.5, 1.5), basis)
    pre = coherent_state(basis, 1.2 * np.exp(0.4j))
    post = coherent_state(basis, 1.7 * np.exp(2.2j)).dual()
    times = MeasurementSchedule(100.0, steps=2**20).times
    tracemalloc.start()
    try:
        values = weak_value_series(P, pre, post, times, 100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == times.shape and np.all(np.isfinite(values))
    assert peak < 1.5 * values.nbytes   # 25 MB


def test_significance_cut_edge_cases():
    cut = weak_module._significant
    dense = np.array([1.0, -2.0, 0.5, 1e-12])
    assert np.array_equal(cut(dense), dense)
    assert np.array_equal(cut(np.array([0.0, 0.0, 3.0, 0.0, 0.0])), [0.0, 0.0, 3.0])
    assert np.array_equal(cut(np.zeros(5)), [0.0])
    assert np.array_equal(cut(np.array([1.0, 1e-17, 1e-300])), [1.0])
    for bad in (np.nan, np.inf):
        for where in (0, 2, 4):
            v = np.array([1.0, 1e-20, 1e-30, 0.0, 0.0])
            v[where] = bad
            assert cut(v).size == 5


@pytest.mark.parametrize("side", ["pre", "post"])
def test_nan_amplitude_reaches_weak_values(basis, side):
    # coherent states have long negligible tails; the NaN is put in the
    # last entry after construction, which rejects non-finite amplitudes
    pre = coherent_state(basis, 1.0)
    post = coherent_state(basis, 1.5).dual()
    (pre if side == "pre" else post).amplitudes[-1] = np.nan
    P = projector_matrix(IntervalRegion(0.5, 1.0), basis)
    with pytest.raises(PostSelectionError, match="nan"):
        weak_value_series(P, pre, post, np.linspace(0.0, 10.0, 9), 10.0)
    with pytest.raises(PostSelectionError, match="nan"):
        weak_value_series(P, pre, post, [5.0], 10.0)


# -------------------------------------------------------------- closed form
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
    with pytest.raises(ValueError, match="measurement window"):
        closed_form_pvi_weak(2.5, 0.0, 1.0, 1.0, 10.0, np.nan)
    with pytest.raises(ValueError, match="measurement window"):
        closed_form_pvi_weak(2.5, 0.0, 1.0, 1.0, 10.0, [0.5, np.nan])


@pytest.mark.parametrize("alpha, x0, what", [
    # a Python float's ** 2 raises OverflowError from 1.34e154
    pytest.param(1e200, 1.0, "|alpha|^2 or x0^2 overflows", id="alpha-squared"),
    pytest.param(1.0, 1e200, "|alpha|^2 or x0^2 overflows", id="x0-squared"),
    # a numpy float's ** 2 overflows to inf with a RuntimeWarning instead
    pytest.param(np.float64(1e200), 1.0, "|alpha|^2 or x0^2 overflows", id="numpy-alpha-squared"),
    pytest.param(1.0, np.float64(1e200), "|alpha|^2 or x0^2 overflows", id="numpy-x0-squared"),
    pytest.param(np.float64(np.nan), 1.0, "|alpha|^2 or x0^2 overflows a float or is NaN",
                 id="numpy-alpha-nan"),
    pytest.param(1.0, np.float64(-np.inf), "|alpha|^2 or x0^2 overflows", id="numpy-x0-inf"),
    # (|alpha|^2 - x0^2)/2 above ln(float max) = 709.78
    pytest.param(40.0, 1.0, "prefactor", id="prefactor"),
])
def test_closed_form_refuses_an_overflow_by_name(alpha, x0, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(f"alpha={alpha!r}, x0={x0!r}: ")) as err:
            closed_form_pvi_weak(alpha, 0.0, x0, 1.0, 10.0, [0.0, 5.0])
    assert what in str(err.value)


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
    wv = weak_value_series(P, pre, post, times, T)
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
    assert trace.flagged is False
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
    assert trace.flagged is True
    assert np.all(trace.readings == 0.0) and np.all(trace.values == 0.0)


def test_subnormal_ramp_fraction_raises_no_warning():
    s = MeasurementSchedule(1.0, 5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert s.cumulative([0.0, 0.5, 1.0]).tolist() == [0.0, 0.5, 1.0]
        assert s.g([0.0, 0.5, 1.0]).tolist() == [0.0, 1.0, 1.0]


def test_weak_value_names_an_overflowing_phase():
    # the overflow is a ValueError naming it, not a NaN overlap read as a PostSelectionError
    basis = OscillatorBasis(dim=64)
    P = projector_matrix(IntervalRegion(0.0, 1.0), basis)
    pre, post = number_state(basis, 0), coherent_state(basis, 1.0).dual()
    with pytest.raises(ValueError, match="overflows") as err:
        weak_value_series(P, pre, post, [0.0], duration=1e308)
    assert not isinstance(err.value, PostSelectionError)
    with pytest.raises(ValueError, match="overflows"):
        post_selection_overlap(pre, post, 1e308)
