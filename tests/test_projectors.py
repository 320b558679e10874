import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

import protmeas.weak as weak_module
from protmeas import quadrature
from protmeas import (IntervalRegion, MeasurementSchedule, OscillatorBasis,
                      ProjectorMatrix, bin_edges, bin_probabilities, coherent_state,
                      dephasing_bound, evolve, expectation, heisenberg_projector, hermite_functions,
                      interval_diagonal, number_state, pointer_trace, projector_matrix,
                      time_averaged_projector)
from protmeas.projectors import MAX_BINS
from protmeas.quadrature import interval_overlaps
from protmeas.weak import hermitian_defect

from conftest import edge_regions, random_state

HALF_TAIL = 0.07864960352514258   # erfc(1)/2


def test_region_validation():
    with pytest.raises(ValueError):
        IntervalRegion(1.0, 1.0)
    with pytest.raises(ValueError):
        IntervalRegion(2.0, -2.0)


def test_full_line_is_identity(basis):
    P = projector_matrix(IntervalRegion(-np.inf, np.inf), basis)
    assert np.max(np.abs(P.entries - np.eye(basis.dim))) < 1e-8


def test_half_line_symmetry(basis):
    P = projector_matrix(IntervalRegion(0.0, np.inf), basis)
    assert P.entries[0, 0].real == pytest.approx(0.5, abs=1e-10)


def test_tail_projector_matches_quadrature_oracle(basis):
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    # independent oracle: scipy quadrature of the ground-state density
    oracle, err = integrate.quad(lambda x: np.exp(-x * x) / np.sqrt(np.pi), 1.0, np.inf)
    assert err < 1e-9
    assert P.entries[0, 0].real == pytest.approx(oracle, abs=1e-9)
    assert P.entries[0, 0].real == pytest.approx(HALF_TAIL, abs=1e-10)


def test_projector_spectrum_in_unit_range(basis):
    P = projector_matrix(IntervalRegion(-0.7, 1.3), basis)
    vals = np.linalg.eigvalsh(P.entries)
    assert vals.min() > -1e-8 and vals.max() < 1.0 + 1e-8
    assert np.max(np.abs(P.entries - P.entries.conj().T)) < 1e-10


ENDPOINTS = st.one_of(st.floats(-45.0, 45.0), st.sampled_from([-math.inf, math.inf]))


@st.composite
def ordered_ends(draw):
    """Interval ends a < b: two ENDPOINTS, sorted, with no draw rejected.

    Equal ends, about 3 draws in 10, become [a, inf), or the full line at
    a = inf: assume(a < b) on the two ends rejected about 70 % of the draws.
    """
    a, b = sorted(draw(st.tuples(ENDPOINTS, ENDPOINTS)))
    if not a < b:
        a, b = (a, math.inf) if a < math.inf else (-math.inf, math.inf)
    return a, b


def _diagonal_oracle(n, lo, hi):
    """Integral of phi_n^2 over [lo, hi] and a bound on its error."""
    if not lo < hi:
        return 0.0, 0.0
    w = hi - lo
    if w < 1e-6:
        # quad flags "bad integrand behaviour" on intervals this narrow (1e-14
        # wide at x = -3, 1e-306 at 0); the midpoint rule errs by
        # w^3 max|(phi_n^2)''| / 24 there, and |(phi_n^2)''| < 5 for n <= 5
        mid = lo + 0.5 * w
        return w * hermite_functions(mid, n + 1)[n] ** 2, 5.0 * w ** 3 / 24
    return integrate.quad(lambda x: hermite_functions(x, n + 1)[n] ** 2, lo, hi,
                          epsabs=1e-13, epsrel=1e-13, limit=200)


@settings(max_examples=40, deadline=None)
@given(ends=ordered_ends(), dim=st.integers(2, 300))
@example(ends=[0.0, 1.2202309696061935e-306], dim=5)
@example(ends=[-3.0, -3.0 + 1e-14], dim=6)
def test_projector_is_a_compressed_projection(ends, dim):
    a, b = ends
    P = projector_matrix(IntervalRegion(a, b), OscillatorBasis(dim)).entries
    assert np.array_equal(P, P.conj().T)
    vals = np.linalg.eigvalsh(P)
    assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12
    # phi_n^2 < 1e-80 beyond |x| = 15 for n <= 5; quad misses the peak of
    # an infinite range that reaches far past it
    lo, hi = max(a, -15.0), min(b, 15.0)
    for n in range(min(dim, 6)):
        oracle, err = _diagonal_oracle(n, lo, hi)
        assert err < 1e-11
        assert P[n, n].real == pytest.approx(oracle, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(ends=ordered_ends(), dim=st.integers(2, 1024))
@example(ends=[-math.inf, 0.0], dim=2)
@example(ends=[0.975, 1.025], dim=1024)
@example(ends=[37.0, math.inf], dim=1024)
def test_projector_entries_are_exactly_symmetric(ends, dim):
    # fl(d_m p_n) = fl(p_n d_m) makes each entry's Wronskian the exact
    # negation of its transpose's, so the symmetry holds bit for bit
    P = projector_matrix(IntervalRegion(*ends), OscillatorBasis(dim)).entries
    assert np.array_equal(P, P.T)


def test_deep_tail_diagonal_matches_grid_sum():
    # [39, inf) lies where exp(-x^2/2) underflows; phi_1023 is O(0.1) there
    P = projector_matrix(IntervalRegion(39.0, np.inf), OscillatorBasis(1024))
    x = np.linspace(39.0, 60.0, 21001)
    phi = np.concatenate([hermite_functions(c, 1024)[1023] for c in np.array_split(x, 16)])
    grid = integrate.simpson(phi ** 2, x=x)
    assert P.entries[1023, 1023].real == pytest.approx(grid, abs=1e-10)
    assert grid > 0.1


def test_large_dim_build_is_bounded():
    start = time.perf_counter()
    P = projector_matrix(IntervalRegion(1.0, np.inf), OscillatorBasis(1024))
    assert time.perf_counter() - start < 1.0
    assert P.entries[0, 0].real == pytest.approx(HALF_TAIL, abs=1e-15)


def test_heisenberg_at_zero_and_period(basis):
    P = projector_matrix(IntervalRegion(0.5, 2.0), basis)
    assert np.array_equal(heisenberg_projector(P, 0.0), P.entries)
    period = 2.0 * np.pi / basis.omega
    assert np.max(np.abs(heisenberg_projector(P, period) - P.entries)) < 1e-12


def test_heisenberg_diagonal_is_static(basis):
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    for t in (0.3, 2.9, 17.0):
        Pt = heisenberg_projector(P, t)
        assert np.allclose(np.diag(Pt), np.diag(P.entries), atol=1e-14)


def test_heisenberg_preserves_spectrum(basis):
    P = projector_matrix(IntervalRegion(-1.0, 0.3), basis)
    base = np.sort(np.linalg.eigvalsh(P.entries))
    for t in (0.7, 5.1):
        moved = np.sort(np.linalg.eigvalsh(heisenberg_projector(P, t)))
        assert np.max(np.abs(moved - base)) < 1e-8


@pytest.mark.parametrize("zero_point", [False, True])
def test_heisenberg_projector_is_the_schroedinger_expectation(zero_point, rng):
    # <psi|P(t)|psi> = <psi(t)|P|psi(t)>, so P(t)_mn = e^{+i (m - n) omega t} P_mn
    basis = OscillatorBasis(16, 1.3, zero_point)
    P = projector_matrix(IntervalRegion(0.2, 1.5), basis)
    for _ in range(4):
        psi = random_state(rng, basis)
        for t in (0.7, 2.9, -4.1, 37.0):
            heis = np.vdot(psi.amplitudes, heisenberg_projector(P, t) @ psi.amplitudes).real
            assert abs(heis - expectation(P, evolve(psi, t))) < 1e-13


def test_time_average_is_the_average_of_the_heisenberg_projector():
    # the closed form against Gauss-Legendre on P(t), and at z = (m - n) omega T
    # down to 1e-8 against the series 1 + iz/2 - z^2/6 of (e^{iz} - 1)/(iz)
    P = projector_matrix(IntervalRegion(0.5, 2.0), OscillatorBasis(12))
    x, w = np.polynomial.legendre.leggauss(64)
    T = 3.0
    quad = sum(wk * heisenberg_projector(P, 0.5 * T * (xk + 1)) for xk, wk in zip(x, w)) / 2
    assert np.max(np.abs(time_averaged_projector(P, T) - quad)) < 1e-14
    for T in (1e-5, 1e-8):
        z = np.subtract.outer(np.arange(12), np.arange(12)) * T
        series = 1 + 0.5j * z - z ** 2 / 6
        np.testing.assert_allclose(time_averaged_projector(P, T), P.entries * series,
                                   rtol=1e-12, atol=0)


def test_time_average_keeps_diagonal_and_hermiticity(basis):
    P = projector_matrix(IntervalRegion(0.9, 1.1), basis)
    avg = time_averaged_projector(P, 37.0)
    assert np.array_equal(np.diag(avg), np.diag(P.entries))
    assert np.max(np.abs(avg - avg.conj().T)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(ends=ordered_ends(), T=st.floats(0.1, 1000.0))
def test_time_average_dephasing_bound(ends, T):
    basis = OscillatorBasis(64)
    P = projector_matrix(IntervalRegion(*ends), basis)
    block = np.s_[:20, :20]
    avg = time_averaged_projector(P, T)[block]
    assert np.all(np.abs(avg) <= dephasing_bound(P, T)[block] + 1e-15)


def test_dephasing_bound_is_the_smaller_factor():
    omega, T = 1.3, 4.0
    P = projector_matrix(IntervalRegion(0.2, 1.7), OscillatorBasis(16, omega=omega))
    p = np.abs(P.entries)
    m, n = np.indices(p.shape)
    off = m != n
    want = p.copy()
    want[off] = np.minimum(p[off], 2.0 * p[off] / (abs(m - n)[off] * omega * T))
    np.testing.assert_allclose(dephasing_bound(P, T), want, rtol=1e-15, atol=0)
    # (m - n) omega T underflows to a subnormal: 2|P_mn| over it overflows, and |P_mn| is kept
    assert np.array_equal(dephasing_bound(P, 5e-324), p)
    with pytest.raises(ValueError, match="averaging window"):
        dephasing_bound(P, 0.0)


def test_time_average_specific_entry(basis):
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    avg = time_averaged_projector(P, 100.0)
    assert abs(avg[0, 1]) <= 0.02 * abs(P.entries[0, 1])


def test_stationary_state_time_average_is_diagonal_entry(basis, rng):
    # <n|P|n> is the time average of <psi(t)|P|psi(t)> for a stationary state
    P = projector_matrix(IntervalRegion(0.0, 2.0), basis)
    for n in (0, 3, 11):
        st = number_state(basis, n)
        ref = P.entries[n, n].real
        for t in rng.uniform(0, 50, size=5):
            assert expectation(P, evolve(st, t)) == pytest.approx(ref, abs=1e-12)


def test_bin_edges_tile_the_interval():
    regions = edge_regions(width=0.1, extent=6.0)
    assert len(regions) == 120
    assert regions[0].lower == -6.0 and regions[-1].upper == 6.0
    for left, right in zip(regions[:-1], regions[1:]):
        assert left.upper == right.lower
        assert left.upper - left.lower == pytest.approx(0.1, abs=1e-12)
    assert len(bin_edges(8.0 / MAX_BINS, 4.0)) == MAX_BINS + 1


@pytest.mark.parametrize("width, extent, message", [
    (0.3, 4.0, "does not divide"),           # 26.67 bins
    (20.0, 4.0, "gives 0.4 bins"),
    (8.0 / (MAX_BINS + 1), 4.0, "outside"),
    (1e-9, 4.0, "gives 8e+09 bins"),
    (1e-300, 1e300, "gives inf bins"),
    (math.inf, 4.0, "bin width inf"),
    (0.1, math.inf, "extent inf"),
    (math.nan, 4.0, "bin width nan"),
    (0.0, 4.0, "must be finite and positive"),
    (0.1, -4.0, "must be finite and positive"),
])
def test_bin_edges_reject_what_they_cannot_tile(width, extent, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        bin_edges(width, extent)


@pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
def test_time_average_needs_a_finite_positive_window(basis, duration):
    P = projector_matrix(IntervalRegion(0.0, 1.0), basis)
    with pytest.raises(ValueError, match=f"got {duration}"):
        time_averaged_projector(P, duration)


def test_overflowing_phase_is_refused(basis):
    # (dim - 1) omega t = 63e308 overflows: refused before any NaN phase is formed
    P = projector_matrix(IntervalRegion(0.0, 1.0), basis)
    with pytest.raises(ValueError, match=re.escape("overflows at t=1e+308")):
        heisenberg_projector(P, 1e308)
    with pytest.raises(ValueError, match=re.escape("overflows at duration=1e+308")):
        time_averaged_projector(P, 1e308)
    # the largest phase still finite: every entry is finite
    t = 1.7e308 / (basis.dim - 1)
    assert np.all(np.isfinite(heisenberg_projector(P, -t)))
    assert np.all(np.isfinite(time_averaged_projector(P, t)))


@pytest.mark.parametrize("dim, stride", [(64, 1), (1024, 10)])
def test_bin_probabilities_match_dense_projectors(dim, stride):
    # the dense <c|P_V|c> per bin is the oracle; at dim 1024 every 10th bin
    basis = OscillatorBasis(dim=dim)
    states = {"0": number_state(basis, 0), "5": number_state(basis, 5),
              "alpha": coherent_state(basis, 2.5)}
    edges = bin_edges(0.1, 4.0)
    bins = {k: bin_probabilities(s.amplitudes, edges) for k, s in states.items()}
    for i, region in list(enumerate(edge_regions(0.1, 4.0)))[::stride]:
        P = projector_matrix(region, basis)
        dense = {k: expectation(P, s) for k, s in states.items()}
        assert bins["0"][i] == dense["0"]
        for k in states:
            assert abs(bins[k][i] - dense[k]) <= 1e-15
    whole = projector_matrix(IntervalRegion(-4.0, 4.0), basis)
    for k, s in states.items():   # the bins telescope to the whole interval
        assert abs(np.sum(bins[k]) - expectation(whole, s)) <= 1e-15


def test_sketch_folds_only_significant_amplitudes(monkeypatch):
    # |0> folds one amplitude at any dim; the whole fold pages in dim x dim
    # matrices, 137 MB at dim 2048
    edges = bin_edges(0.1, 4.0)
    vacuum = number_state(OscillatorBasis(dim=2048), 0)
    tracemalloc.start()
    try:
        bin_probabilities(vacuum.amplitudes, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # at dim 64 the cut leaves the bins of the whole fold, bit for bit
    basis = OscillatorBasis(dim=64)
    states = [number_state(basis, 0), coherent_state(basis, 2.5)]
    cut = [bin_probabilities(s.amplitudes, edges) for s in states]
    monkeypatch.setattr(quadrature, "_significant", lambda v: v)
    for state, bins in zip(states, cut):
        assert np.array_equal(bin_probabilities(state.amplitudes, edges), bins)


def _per_endpoint_overlaps(a, b, dim):
    """interval_overlaps with a Hermite column, Wronskian and products per endpoint."""
    def boundary_terms(phi):
        if phi is None:
            return np.zeros((dim, dim)), np.zeros(dim - 1)
        n = np.arange(dim)
        dphi = -np.sqrt((n + 1) / 2.0) * phi[1:]
        dphi[1:] += np.sqrt(n[1:] / 2.0) * phi[:dim - 1]
        phi = phi[:dim]
        return np.outer(dphi, phi) - np.outer(phi, dphi), phi[:-1] * phi[1:]

    finite = [x for x in (a, b) if not math.isinf(x)]
    columns = iter(hermite_functions(np.array(finite), dim + 1).T)
    (wronskian_a, products_a), (wronskian_b, products_b) = (
        boundary_terms(None if math.isinf(x) else next(columns)) for x in (a, b))
    n = np.arange(dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (wronskian_b - wronskian_a) / (2.0 * (n[None, :] - n[:, None]))
    steps = (products_b - products_a) / np.sqrt(2.0 * n[1:])
    out[n, n] = 0.5 * (math.erf(b) - math.erf(a)) - np.concatenate(([0.0], np.cumsum(steps)))
    return out


@pytest.mark.parametrize("dim", [2, 16, 64, 1024])
def test_interval_overlaps_keep_the_per_endpoint_arithmetic(dim):
    # |x| = 37 runs the few-point Hermite recurrence, |x| = 39 the scaled vector
    # one; array_equal takes -0.0 for 0.0, so the sign bits are compared too
    for a, b in [(-np.inf, 1.0), (1.0, np.inf), (-0.7, 1.3), (-np.inf, np.inf),
                 (39.0, np.inf), (0.975, 1.025), (37.0, np.inf), (-np.inf, -37.0),
                 (-np.inf, -39.0), (-39.0, 37.0), (-37.0, 39.0), (37.0, 39.0)]:
        got, want = interval_overlaps(a, b, dim), _per_endpoint_overlaps(a, b, dim)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_interval_overlaps_and_their_check_stay_near_the_result_size():
    # the result is 2 MB; whole-matrix outer products and copies peaked at 10 MB
    tracemalloc.start()
    try:
        entries = interval_overlaps(0.9, 1.1, 512)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        hermitian_defect(entries)
        check_added = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build_peak < 1.5 * entries.nbytes
    assert check_added < 1e6


@pytest.mark.parametrize("dim", [2, 16, 64, 512, 1024])
def test_interval_diagonal_is_the_overlap_diagonal(dim):
    for a, b in [(-np.inf, 1.1), (1.1, np.inf), (-0.7, 1.3), (0.975, 1.025),
                 (39.0, np.inf), (-np.inf, np.inf)]:
        diagonal = np.diag(interval_overlaps(a, b, dim))
        assert np.array_equal(interval_diagonal(a, b, dim), diagonal)
        assert np.array_equal(interval_diagonal(a, b, dim // 2 + 1), diagonal[:dim // 2 + 1])
    with pytest.raises(ValueError, match="count"):
        interval_diagonal(0.0, 1.0, 0)
    for a, b in [(1.0, 0.0), (1.0, 1.0), (np.nan, 1.0), (0.0, np.nan), (np.inf, np.inf)]:
        with pytest.raises(ValueError, match="a < b"):
            interval_diagonal(a, b, 3)


@pytest.mark.parametrize("dim", [2, 64, 512])
def test_projector_entries_are_the_interval_overlaps(dim):
    # a ProjectorMatrix has one construction path: its entries come from its region and basis
    for a, b in [(-0.7, 1.3), (0.975, 1.025), (-np.inf, 0.0), (1.0, np.inf), (37.0, np.inf),
                 (-np.inf, np.inf)]:
        P = ProjectorMatrix(IntervalRegion(a, b), OscillatorBasis(dim))
        want = interval_overlaps(a, b, dim)
        assert np.array_equal(P.entries, want)
        assert np.array_equal(np.signbit(P.entries), np.signbit(want))
        assert np.array_equal(projector_matrix(P.region, P.basis).entries, want)
    with pytest.raises(TypeError):
        ProjectorMatrix(np.eye(dim), IntervalRegion(-np.inf, np.inf), OscillatorBasis(dim))


def test_a_built_projector_is_not_checked_again(monkeypatch):
    # a ProjectorMatrix's entries are exactly symmetric (pinned above), so
    # neither the build nor a call taking the result makes a Hermiticity pass;
    # a bare matrix gets one pass per call
    calls = []

    def counted(A):
        calls.append(A)
        return hermitian_defect(A)
    monkeypatch.setattr(weak_module, "hermitian_defect", counted)
    basis = OscillatorBasis(dim=32)
    pre = coherent_state(basis, 1.0)
    P = projector_matrix(IntervalRegion(0.0, 1.0), basis)
    pointer_trace(MeasurementSchedule(5.0, 0.1, 16), pre, P)
    expectation(P, pre)
    assert calls == []
    with pytest.raises(ValueError, match="read-only"):
        P.entries[0, 1] = 1.0
    expectation(P.entries, pre)
    assert len(calls) == 1


def _magnitude_sums(c, edges):
    """S(x) of the bin_probabilities docstring: the magnitudes of the terms of F(x), summed."""
    n = np.arange(c.size)
    phi = hermite_functions(edges, c.size + 1)
    dphi = -np.sqrt((n[:, None] + 1) / 2.0) * phi[1:]
    dphi[1:] += np.sqrt(n[1:, None] / 2.0) * phi[:-2]
    phi = phi[:-1]
    weights = np.abs(c) ** 2
    tails = np.cumsum(weights[::-1])[::-1][1:] / np.sqrt(2.0 * n[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        M = np.abs(np.real(np.outer(np.conj(c), c)) / (2.0 * (n[None, :] - n[:, None])))
    M[n, n] = 0.0
    return (np.abs([math.erf(x) for x in edges]) / 2 * weights.sum()
            + tails @ np.abs(phi[:-1] * phi[1:])
            + 2.0 * np.sum(np.abs(dphi) * (M @ np.abs(phi)), axis=0))


@pytest.mark.parametrize("dim", [64, 1024])
def test_bins_stay_above_their_rounding_bound(dim):
    # a bin is F(b) - F(a); each F(x) is off by at most K u S(x), u = eps/2,
    # over the K kept amplitudes, so a bin where the state has no weight
    # reads no lower than minus the sum
    basis = OscillatorBasis(dim=dim)
    edges = bin_edges(0.1, 4.0)
    u = np.finfo(float).eps / 2
    negative = 0
    for state in (number_state(basis, 0), number_state(basis, 5),
                  coherent_state(basis, 2.5), coherent_state(basis, 4.0)):
        bins = bin_probabilities(state.amplitudes, edges)
        kept = quadrature._significant(state.amplitudes)
        sums = _magnitude_sums(kept, edges)
        assert np.all(bins >= -kept.size * u * (sums[:-1] + sums[1:]))
        negative += np.count_nonzero(bins < 0)
    assert negative > 0   # the coherent states' empty tail bins do round below 0
