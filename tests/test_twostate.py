import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from protmeas import (IntervalRegion, MeasurementSchedule, OscillatorBasis,
                      PostSelectionError, TruncationError, coherent_state,
                      evolve, expectation, hamiltonian, number_state, pointer_trace,
                      projector_matrix, thermal_purification, thermal_weights,
                      two_state_readings, weak_value_series)
from protmeas import twostate
from protmeas.weak import as_matrix, post_selection_overlap

from conftest import random_hermitian, random_state
from dense_two_state import (hermiticity_defect, two_state_density, von_neumann_residual,
                             weak_value_from_density)

MEAN_OCCUPATION_BETA1 = 0.5819767068693265   # 1/(e-1)


# ------------------------------------------------------------------ thermal

def test_thermal_ground_state_limit(basis):
    target = np.zeros(basis.dim)
    target[0] = 1.0
    assert np.max(np.abs(thermal_weights(50.0, basis) - target)) < 1e-10


def test_thermal_trace_one(basis):
    assert np.sum(thermal_weights(1.0, basis)) == pytest.approx(1.0, abs=1e-14)


def test_thermal_mean_occupation(basis):
    mean_n = float(np.sum(np.arange(basis.dim) * thermal_weights(1.0, basis)))
    assert mean_n == pytest.approx(MEAN_OCCUPATION_BETA1, abs=1e-8)


def test_thermal_weights_sorted_like_boltzmann(basis):
    assert np.all(np.diff(thermal_weights(0.7, basis)) < 0)


@pytest.mark.parametrize("beta, zero_point", [(1.0, False), (0.7, True), (50.0, False)])
def test_thermal_weights_closed_form(beta, zero_point):
    # a geometric series renormalized on the truncated basis; the zero point
    # multiplies every weight by one factor, which the normalization removes
    basis = OscillatorBasis(dim=64, include_zero_point=zero_point)
    q, n = np.exp(-beta * basis.omega), np.arange(basis.dim)
    expected = (1.0 - q) * q ** n / (1.0 - q ** basis.dim)
    np.testing.assert_allclose(thermal_weights(beta, basis), expected, rtol=1e-13, atol=0)


def test_thermal_truncation_guard():
    with pytest.raises(TruncationError):
        thermal_weights(0.1, OscillatorBasis(dim=64))
    with pytest.raises(ValueError):
        thermal_weights(-1.0, OscillatorBasis(dim=64))


@pytest.mark.parametrize("beta, omega, tail", [(1e-300, 1.0, "1.000e+300"),
                                                (5e-324, 1.0, "inf"),
                                                (1.0, 5e-324, "inf")])
def test_a_tiny_beta_omega_is_refused_by_its_tail(beta, omega, tail):
    # 1 - e^{-beta omega} rounds to 0 here; -expm1 keeps the denominator positive
    with pytest.raises(TruncationError, match=re.escape(f"thermal tail {tail} exceeds")):
        thermal_weights(beta, OscillatorBasis(dim=12, omega=omega))


@pytest.mark.parametrize("beta, omega", [(1e308, 10.0), (5e-324, 0.5)])
def test_a_beta_omega_that_overflows_or_underflows_is_named(beta, omega):
    for build in (thermal_weights, thermal_purification):
        with pytest.raises(ValueError, match="beta\\*omega must be positive and finite"):
            build(beta, OscillatorBasis(dim=2, omega=omega))


def test_an_extreme_beta_gives_the_ground_state_without_a_warning():
    # beta omega n overflows to inf from n = 2: its weight is the 0 it stands for
    basis = OscillatorBasis(dim=12)
    assert thermal_weights(1e308, basis).tolist() == [1.0] + [0.0] * 11
    assert thermal_purification(1e308, basis).amplitudes.tolist() == [1.0] + [0.0] * 11


def test_purification_ground_state_limit(basis):
    pure = thermal_purification(50.0, basis)
    assert abs(np.vdot(pure.amplitudes, number_state(basis, 0).amplitudes)) ** 2 >= 1.0 - 1e-10


def test_purification_matches_mixture_for_diagonal_observables(basis, rng):
    beta = 1.0
    weights = thermal_weights(beta, basis)
    pure = thermal_purification(beta, basis)
    for _ in range(20):
        a = rng.normal(size=basis.dim)
        mixed = float(np.sum(a * weights))   # sum_n A_nn w_n, the thermal average
        assert expectation(np.diag(a).astype(complex), pure) == pytest.approx(mixed, abs=1e-10)


def test_bath_off_sampling_then_protective_readout(basis):
    # switching the bath off leaves a pure |n>; a long trivial measurement
    # on it reads the diagonal entry P_nn
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    for n in (0, 1, 3):
        trace = pointer_trace(MeasurementSchedule(50.0, steps=1024), number_state(basis, n), P)
        assert trace.final_reading == pytest.approx(P.entries[n, n].real, abs=1e-6)


def test_purification_differs_for_off_diagonal_observable(basis):
    # the mapping only covers energy-diagonal observables; report the gap
    beta = 1.0
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    pure_val = expectation(P, thermal_purification(beta, basis))
    mixed_val = float(np.sum(np.diag(P.entries).real * thermal_weights(beta, basis)))
    gap = pure_val - mixed_val
    print(f"purification <P>={pure_val:.6f} mixture={mixed_val:.6f} gap={gap:.6f}")
    assert abs(gap) > 0.1


# --------------------------------------------------------- two-state density

def test_two_state_trivial_post_is_ordinary_density(basis, rng):
    pre = random_state(rng, basis)
    T = 8.0
    for t in (0.0, 3.0, 8.0):
        rho = two_state_density(pre, evolve(pre, T).dual(), t, T)
        assert hermiticity_defect(rho) < 1e-10
        # pure-state density: idempotent
        assert np.max(np.abs(rho @ rho - rho)) < 1e-10


def test_two_state_trace_one(basis, rng):
    for _ in range(5):
        pre = random_state(rng, basis)
        post = random_state(rng, basis).dual()
        rho = two_state_density(pre, post, 1.3, 5.0)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)


def test_two_state_non_hermitian_for_coherent_post(basis):
    rho = two_state_density(number_state(basis, 0), coherent_state(basis, 2.5).dual(),
                            2.0, 10.0)
    defect = hermiticity_defect(rho)
    print(f"hermiticity defect for |0>, <alpha=2.5|: {defect:.4f}")
    assert defect > 0.1


def test_two_state_orthogonal_raises(basis):
    with pytest.raises(PostSelectionError):
        two_state_density(number_state(basis, 0), number_state(basis, 1).dual(),
                          1.0, 5.0)


def test_trace_formula_equals_direct_weak_value(basis, rng):
    T = 7.0
    for _ in range(100):
        A = random_hermitian(rng, basis.dim)
        pre = random_state(rng, basis)
        post = random_state(rng, basis).dual()
        t = float(rng.uniform(0, T))
        rho = two_state_density(pre, post, t, T)
        direct = weak_value_series(A, pre, post, [t], T)[0]
        traced = weak_value_from_density(A, rho)
        assert abs(direct - traced) <= 1e-12 * (1.0 + abs(direct))


def test_trace_formula_identity(basis):
    rho = two_state_density(number_state(basis, 0), coherent_state(basis, 2.5).dual(),
                            1.0, 10.0)
    assert abs(weak_value_from_density(np.eye(basis.dim), rho) - 1.0) < 1e-12


def test_cross_module_weak_value_consistency(basis):
    P = projector_matrix(IntervalRegion(0.975, 1.025), basis)
    pre = number_state(basis, 0)
    post = coherent_state(basis, 2.5).dual()
    t, T = 4.2, 100.0
    rho = two_state_density(pre, post, t, T)
    assert abs(weak_value_series(P, pre, post, [t], T)[0]
               - weak_value_from_density(P, rho)) < 1e-12


# ------------------------------------------------------- two-state readings

def _density_readings(A, pre, post, times, T):
    """(weak values, defects, cancellation scales) of the dense densities at `times`.

    The scale is the larger of |A_w| and sum_mn |A_mn rho_nm|: where A_w
    passes near 0 the trace is a cancelling sum, and each path is then off
    by rounding of the summed terms, not of A_w.
    """
    rhos = [two_state_density(pre, post, t, T) for t in times]
    weak = np.array([weak_value_from_density(A, rho) for rho in rhos])
    terms = np.array([np.sum(np.abs(as_matrix(A) * rho.T)) for rho in rhos])
    return weak, np.array([hermiticity_defect(rho) for rho in rhos]), np.maximum(abs(weak), terms)


@pytest.mark.parametrize("pre_kind", ["0", "3", "random"])
@pytest.mark.parametrize("operator", ["hermitian", "projector"])
def test_readings_match_the_dense_density(basis, rng, pre_kind, operator):
    pre = (random_state(rng, basis) if pre_kind == "random"
           else number_state(basis, int(pre_kind)))
    A = (random_hermitian(rng, basis.dim) if operator == "hermitian"
         else projector_matrix(IntervalRegion(0.975, 1.025), basis))
    T = 9.0
    times = np.concatenate([[0.0, T], rng.uniform(0.0, T, 30)])
    for post in (random_state(rng, basis).dual(), coherent_state(basis, 2.5).dual()):
        weak, defect = two_state_readings(A, pre, post, times, T)
        want_weak, want_defect, scale = _density_readings(A, pre, post, times, T)
        assert np.all(abs(weak - want_weak) <= 1e-12 * scale)
        np.testing.assert_allclose(defect, want_defect, rtol=1e-12, atol=0)


def test_readings_of_a_trivial_post_selection_are_hermitian(basis, rng):
    # rho is the pure |k><k|: the defect is rounding, where
    # sqrt(2 (||k||^2 ||b||^2 / |b.k|^2 - 1)) reads about 1e-8 or a ratio below 1
    T = 9.0
    times = rng.uniform(0.0, T, 5)
    for _ in range(50):
        pre = random_state(rng, basis)
        A = random_hermitian(rng, basis.dim)
        weak, defect = two_state_readings(A, pre, evolve(pre, T).dual(), times, T)
        assert np.all(defect <= 1e-10)   # a NaN fails too
        for t, value in zip(times, weak):
            assert abs(value - expectation(A, evolve(pre, t))) <= 1e-10


def test_readings_refuse_a_low_overlap_and_a_time_outside_the_window(basis):
    with pytest.raises(PostSelectionError):
        two_state_readings(np.eye(basis.dim), number_state(basis, 0),
                           number_state(basis, 1).dual(), [0.0, 1.0], 5.0)
    for times in ([0.0, 6.0], [-0.1, 1.0], [0.0, np.nan]):
        with pytest.raises(ValueError, match="outside the measurement window"):
            two_state_readings(np.eye(basis.dim), number_state(basis, 0),
                               coherent_state(basis, 1.0).dual(), times, 5.0)


@pytest.mark.parametrize("pre_kind", ["number", "random"])
def test_readings_form_one_operator_product_per_time_block(basis, rng, monkeypatch, pre_kind):
    # every pre-state takes the same path: one A k per block of times, each
    # time in exactly one block; a block holds at least
    # _BLOCK_BYTES // (16 dim) times, so 1,025 times take at most 5 products
    calls, apply = [], twostate._apply
    monkeypatch.setattr(twostate, "_apply", lambda A, v: calls.append(v) or apply(A, v))
    pre = number_state(basis, 5) if pre_kind == "number" else random_state(rng, basis)
    P = projector_matrix(IntervalRegion(0.975, 1.025), basis)
    times = np.linspace(0.0, 20.0, 1025)
    two_state_readings(P, pre, coherent_state(basis, 2.5).dual(), times, 20.0)
    block = twostate._BLOCK_BYTES // (16 * basis.dim)
    assert len(calls) <= math.ceil(times.size / block)
    assert sum(k.shape[1] for k in calls) == times.size


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 32), T=st.floats(0.1, 200.0), seed=st.integers(0, 2**32 - 1))
def test_the_one_defect_is_the_dense_defect_at_every_time(dim, T, seed):
    rng = np.random.default_rng(seed)
    basis = OscillatorBasis(dim=dim)
    pre = random_state(rng, basis)
    post = random_state(rng, basis).dual()
    try:
        post_selection_overlap(pre, post, T)
    except PostSelectionError:
        assume(False)
    _, defect = two_state_readings(np.eye(dim), pre, post, [], T)
    assert isinstance(defect, float)
    for t in (0.0, T / 2, T):
        want = hermiticity_defect(two_state_density(pre, post, t, T))
        assert defect == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("block_times", [1, 7])
def test_readings_do_not_depend_on_the_time_block(basis, rng, monkeypatch, block_times):
    # dense random states keep all 64 levels, so a block of b times is 16 * 64 * b bytes
    pre = random_state(rng, basis)
    post = coherent_state(basis, 2.5).dual()
    P = projector_matrix(IntervalRegion(0.975, 1.025), basis)
    T = 9.0
    times = np.concatenate([[0.0, T], rng.uniform(0.0, T, 30)])
    default, defect = two_state_readings(P, pre, post, times, T)
    monkeypatch.setattr(twostate, "_BLOCK_BYTES", 16 * basis.dim * block_times)
    blocked, blocked_defect = two_state_readings(P, pre, post, times, T)
    _, _, scale = _density_readings(P, pre, post, times, T)
    assert np.all(abs(blocked - default) <= 1e-13 * scale)
    assert blocked_defect == defect


def test_long_readings_stay_near_their_output_size(basis, rng):
    # the exponentials, k, b and A k exist for one block of times at a time,
    # about _BLOCK_BYTES each, not for all 2^18 times
    pre, post = random_state(rng, basis), random_state(rng, basis).dual()
    P = projector_matrix(IntervalRegion(0.975, 1.025), basis)
    times = MeasurementSchedule(20.0, steps=2**18 - 1).times
    tracemalloc.start()
    try:
        weak, _ = two_state_readings(P, pre, post, times, 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weak.shape == times.shape and np.all(np.isfinite(weak))
    assert peak < 1.5 * weak.nbytes   # 6.3 MB


# -------------------------------------------------------------- von Neumann

def test_von_neumann_stationary_state(basis):
    H = hamiltonian(basis)
    pre = number_state(basis, 3)
    post = number_state(basis, 3).dual()
    for dt in (0.1, 0.01):
        assert von_neumann_residual(pre, post, H, 2.0, dt, duration=10.0) < 1e-12


def test_von_neumann_second_order_ratio(basis, rng):
    H = hamiltonian(basis)
    pre = random_state(rng, basis)
    post = random_state(rng, basis).dual()
    r1 = von_neumann_residual(pre, post, H, 2.0, 0.02, duration=10.0)
    r2 = von_neumann_residual(pre, post, H, 2.0, 0.01, duration=10.0)
    assert 0.2 <= r2 / r1 <= 0.3


def test_von_neumann_residual_shrinks_monotonically(basis):
    H = hamiltonian(basis)
    pre = number_state(basis, 0)
    post = coherent_state(basis, 2.5).dual()
    dts = [0.08 / 2 ** k for k in range(5)]
    residuals = [von_neumann_residual(pre, post, H, 3.0, dt, duration=10.0)
                 for dt in dts]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_von_neumann_rejects_bad_dt(basis):
    H = hamiltonian(basis)
    with pytest.raises(ValueError):
        von_neumann_residual(number_state(basis, 0), number_state(basis, 0).dual(),
                             H, 1.0, 0.0, 2.0)

