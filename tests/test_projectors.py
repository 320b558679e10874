import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate

from protmeas import (FULL_LINE, IntervalRegion, OscillatorBasis, evolve,
                      expectation, heisenberg_projector, hermite_functions,
                      number_state, projector_matrix, time_averaged_projector)
from protmeas.projectors import bin_regions

HALF_TAIL = 0.07864960352514258   # erfc(1)/2


def test_region_validation():
    with pytest.raises(ValueError):
        IntervalRegion(1.0, 1.0)
    with pytest.raises(ValueError):
        IntervalRegion(2.0, -2.0)


def test_full_line_is_identity(basis):
    P = projector_matrix(FULL_LINE, basis)
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


@settings(max_examples=40, deadline=None)
@given(a=ENDPOINTS, b=ENDPOINTS, dim=st.integers(2, 300))
def test_projector_is_a_compressed_projection(a, b, dim):
    assume(a < b)
    P = projector_matrix(IntervalRegion(a, b), OscillatorBasis(dim)).entries
    assert np.array_equal(P, P.conj().T)
    vals = np.linalg.eigvalsh(P)
    assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12
    # phi_n^2 < 1e-80 beyond |x| = 15 for n <= 5; quad misses the peak of
    # an infinite range that reaches far past it
    lo, hi = max(a, -15.0), min(b, 15.0)
    for n in range(min(dim, 6)):
        oracle, err = (integrate.quad(lambda x: hermite_functions(x, n + 1)[n] ** 2, lo, hi,
                                      epsabs=1e-13, epsrel=1e-13, limit=200)
                       if lo < hi else (0.0, 0.0))
        assert err < 1e-11
        assert P[n, n].real == pytest.approx(oracle, abs=1e-10)


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


def test_time_average_keeps_diagonal_and_hermiticity(basis):
    P = projector_matrix(IntervalRegion(0.9, 1.1), basis)
    avg = time_averaged_projector(P, 37.0)
    assert np.array_equal(np.diag(avg), np.diag(P.entries))
    assert np.max(np.abs(avg - avg.conj().T)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(a=ENDPOINTS, b=ENDPOINTS, T=st.floats(0.1, 1000.0))
def test_time_average_dephasing_bound(a, b, T):
    assume(a < b)
    basis = OscillatorBasis(64)
    P = projector_matrix(IntervalRegion(a, b), basis)
    avg = time_averaged_projector(P, T)
    for m in range(20):
        for n in range(20):
            if m == n:
                continue
            bound = 2.0 * abs(P.entries[m, n]) / (abs(m - n) * basis.omega * T)
            assert abs(avg[m, n]) <= bound + 1e-15


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


def test_bin_regions_tile_the_interval():
    regions = bin_regions(width=0.1, extent=6.0)
    assert len(regions) == 120
    assert regions[0].lower == -6.0 and regions[-1].upper == 6.0
    for left, right in zip(regions[:-1], regions[1:]):
        assert left.upper == pytest.approx(right.lower, abs=1e-12)
