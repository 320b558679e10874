import re

import numpy as np
import pytest

from protmeas import (DensityMatrix, IntervalRegion, OscillatorBasis, PostSelectionError,
                      TruncationError, TwoStateDensity, coherent_state, evolve, expectation,
                      hamiltonian, number_state, projector_matrix,
                      thermal_density, thermal_purification, thermal_weights,
                      two_state_canonical,
                      two_state_density, von_neumann_residual, weak_value,
                      weak_value_from_density)

from conftest import random_hermitian, random_state

MEAN_OCCUPATION_BETA1 = 0.5819767068693265   # 1/(e-1)


# ------------------------------------------------------------------ thermal

def test_thermal_ground_state_limit(basis):
    rho = thermal_density(50.0, basis)
    target = np.zeros((basis.dim, basis.dim))
    target[0, 0] = 1.0
    assert np.max(np.abs(rho.entries - target)) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    entries = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    entries[1, 2] = bad
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(entries, OscillatorBasis(dim=4))


def test_thermal_trace_one(basis):
    rho = thermal_density(1.0, basis)
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-14)


def test_thermal_mean_occupation(basis):
    rho = thermal_density(1.0, basis)
    mean_n = float(np.sum(np.arange(basis.dim) * np.diag(rho.entries).real))
    assert mean_n == pytest.approx(MEAN_OCCUPATION_BETA1, abs=1e-8)


def test_thermal_weights_sorted_like_boltzmann(basis):
    rho = thermal_density(0.7, basis)
    d = np.diag(rho.entries).real
    assert np.all(np.diff(d) < 0)


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
        thermal_density(0.1, OscillatorBasis(dim=64))
    with pytest.raises(ValueError):
        thermal_density(-1.0, OscillatorBasis(dim=64))


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
    assert pure.fidelity(number_state(basis, 0)) >= 1.0 - 1e-10


def test_purification_matches_mixture_for_diagonal_observables(basis, rng):
    beta = 1.0
    rho = thermal_density(beta, basis)
    pure = thermal_purification(beta, basis)
    for _ in range(20):
        A = np.diag(rng.normal(size=basis.dim)).astype(complex)
        mixed = float(np.trace(A @ rho.entries).real)
        assert expectation(A, pure) == pytest.approx(mixed, abs=1e-10)


def test_bath_off_sampling_then_protective_readout(basis):
    # switching the bath off selects a pure |n>; a long trivial measurement
    # on it reads the diagonal entry, and averaging over samples recovers
    # the thermal rate
    from protmeas import (MeasurementSchedule, pointer_trace,
                          sample_thermal_eigenstate, thermal_pointer_rate)
    beta = 1.0
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    n, state = sample_thermal_eigenstate(beta, basis, seed=11)
    trace = pointer_trace(MeasurementSchedule(50.0, steps=1024), state, P)
    assert trace.final_reading == pytest.approx(P.entries[n, n].real, abs=1e-6)
    rate = thermal_pointer_rate(P, thermal_density(beta, basis))
    levels = [sample_thermal_eigenstate(beta, basis, seed=s)[0] for s in range(400)]
    sampled = [P.entries[k, k].real for k in levels]
    assert np.mean(sampled) == pytest.approx(rate, abs=0.02)


def test_purification_differs_for_off_diagonal_observable(basis):
    # the mapping only covers energy-diagonal observables; report the gap
    beta = 1.0
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    pure_val = expectation(P, thermal_purification(beta, basis))
    mixed_val = float(np.trace(P.entries @ thermal_density(beta, basis).entries).real)
    gap = pure_val - mixed_val
    print(f"purification <P>={pure_val:.6f} mixture={mixed_val:.6f} gap={gap:.6f}")
    assert abs(gap) > 0.1


# --------------------------------------------------------- two-state density

def test_two_state_trivial_post_is_ordinary_density(basis, rng):
    pre = random_state(rng, basis)
    T = 8.0
    for t in (0.0, 3.0, 8.0):
        rho = two_state_density(pre, evolve(pre, T).dual(), t, T)
        assert rho.hermiticity_defect() < 1e-10
        # pure-state density: idempotent
        assert np.max(np.abs(rho.entries @ rho.entries - rho.entries)) < 1e-10


def test_two_state_trace_one(basis, rng):
    for _ in range(5):
        pre = random_state(rng, basis)
        post = random_state(rng, basis).dual()
        rho = two_state_density(pre, post, 1.3, 5.0)
        assert np.trace(rho.entries) == pytest.approx(1.0, abs=1e-12)


def test_two_state_density_rejects_nan_trace():
    with pytest.raises(ValueError, match="trace differs from 1"):
        TwoStateDensity(np.full((2, 2), np.nan + 0j), OscillatorBasis(dim=2))


def test_two_state_non_hermitian_for_coherent_post(basis):
    rho = two_state_density(number_state(basis, 0), coherent_state(basis, 2.5).dual(),
                            2.0, 10.0)
    defect = rho.hermiticity_defect()
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
        direct = weak_value(A, pre, post, t, T)
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
    assert abs(weak_value(P, pre, post, t, T)
               - weak_value_from_density(P, rho)) < 1e-12


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
                             H, 1.0, 0.0)


# ---------------------------------------------------------------- canonical

def test_canonical_infinite_temperature_is_maximally_mixed():
    b = OscillatorBasis(dim=16)
    rho = two_state_canonical(1e-12, b)
    assert np.max(np.abs(rho.entries - np.eye(16) / 16)) < 1e-10


def test_canonical_trace_one():
    b = OscillatorBasis(dim=16)
    assert np.trace(two_state_canonical(1.0, b).entries) == pytest.approx(1.0, abs=1e-14)


def test_canonical_energy_weak_value_is_truncation_dependent():
    h16 = weak_value_from_density(hamiltonian(OscillatorBasis(dim=16)),
                                  two_state_canonical(1.0, OscillatorBasis(dim=16)))
    h32 = weak_value_from_density(hamiltonian(OscillatorBasis(dim=32)),
                                  two_state_canonical(1.0, OscillatorBasis(dim=32)))
    print(f"H_w dim=16: {h16.real}, dim=32: {h32.real}")
    assert h16.real == pytest.approx(7.5, abs=1e-12)   # mean of E_0..E_15, omega=1
    assert abs(h32 - h16) > 1.0                        # invariance under dim fails


def test_canonical_is_maximally_mixed_at_low_temperature():
    # beta * E_max = 750 would overflow e^{beta E}, but no weight is formed
    rho = two_state_canonical(50.0, OscillatorBasis(dim=16))
    assert np.array_equal(rho.entries, np.eye(16) / 16)
