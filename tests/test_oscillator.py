import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from protmeas import (DualState, IntervalRegion, MeasurementSchedule, OscillatorBasis,
                      StateVector, TruncationError, backward_state, bipartite_protective_sim,
                      classical_dwell_fraction, classical_ensemble_average, coherent_state,
                      evolve, expectation, hamiltonian, number_state, pointer_trace,
                      position_wavefunction, projector_matrix, thermal_purification,
                      thermal_weights, von_neumann_residual, weak_value, weak_value_series,
                      zeno_protect_sim)
from protmeas import oscillator
from protmeas.oscillator import coherent_tail, hermite_functions, required_coherent_dim

from conftest import random_hermitian, random_state

# frozen oracle values (direct summation / closed forms)
VACUUM_OVERLAP_SQ_A25 = 0.0019304541362277093   # e^-6.25


def test_basis_rejects_tiny_dim():
    with pytest.raises(ValueError):
        OscillatorBasis(dim=1)


def test_basis_refuses_an_omega_whose_top_energy_overflows():
    # omega (dim - 1) is 1.7e308, and 2.55e308 with the zero point; the
    # check is on Python floats, so no RuntimeWarning comes first
    assert OscillatorBasis(dim=2, omega=1.7e308).energies()[-1] == 1.7e308
    for basis in ({"dim": 2, "include_zero_point": True}, {"dim": 3}):
        with pytest.raises(ValueError, match="omega=1.7e"):
            OscillatorBasis(omega=1.7e308, **basis)


def test_number_state_basis_vectors():
    b = OscillatorBasis(dim=16)
    e0 = number_state(b, 0)
    assert e0.amplitudes[0] == 1.0 and np.all(e0.amplitudes[1:] == 0.0)
    e15 = number_state(b, 15)
    assert e15.amplitudes[15] == 1.0 and np.all(e15.amplitudes[:15] == 0.0)
    for n in range(16):
        assert number_state(b, n).norm() == pytest.approx(1.0, abs=1e-12)


def test_number_state_range_error():
    b = OscillatorBasis(dim=16)
    with pytest.raises(ValueError):
        number_state(b, 16)
    with pytest.raises(ValueError):
        number_state(b, -1)


@pytest.mark.parametrize("kind", [StateVector, DualState])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_amplitudes_rejected(kind, bad):
    b = OscillatorBasis(dim=8)
    amps = np.full(8, 0.5, dtype=complex)
    amps[3] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        kind(amps, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, 0.0), 1e308,
                                 complex(0.0, -2e154)])
def test_non_finite_alpha_rejected(bad):
    # the tail of a NaN alpha is NaN, which no tail check rejects, and
    # |alpha|^2 = inf would raise OverflowError
    with pytest.raises(ValueError, match=re.escape(f"alpha={bad} is not finite")):
        coherent_state(OscillatorBasis(dim=8), bad)


def test_coherent_vacuum_is_ground_state(basis):
    st = coherent_state(basis, 0.0)
    assert st.fidelity(number_state(basis, 0)) == pytest.approx(1.0, abs=1e-14)


def test_coherent_vacuum_overlap(basis):
    st = coherent_state(basis, 2.5)
    assert abs(st.amplitudes[0]) ** 2 == pytest.approx(VACUUM_OVERLAP_SQ_A25, rel=1e-9)


def test_coherent_mean_occupation(basis):
    st = coherent_state(basis, 2.5)
    mean_n = float(np.sum(np.arange(basis.dim) * np.abs(st.amplitudes) ** 2))
    assert mean_n == pytest.approx(6.25, abs=1e-8)


@pytest.mark.parametrize("dim", [512, 4096])
def test_coherent_amplitudes_match_numpy_integer_log_factorials(dim):
    # log n! on Python ints gives the same bits as on numpy int64 scalars
    basis, alpha = OscillatorBasis(dim=dim), 12.0 - 5.0j
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    log_mag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - log_fact / 2
    amps = np.exp(log_mag) * np.exp(1j * np.angle(alpha) * n)
    assert np.array_equal(coherent_state(basis, alpha).amplitudes,
                          StateVector(amps, basis).amplitudes)


def test_coherent_truncation_error_names_required_dim():
    b = OscillatorBasis(dim=8)
    with pytest.raises(TruncationError) as err:
        coherent_state(b, 3.5)
    need = required_coherent_dim(3.5)
    assert f"dim >= {need}" in str(err.value)
    assert coherent_tail(need, 3.5) < 1e-10


def test_evolve_at_zero_is_identity(basis, rng):
    st = random_state(rng, basis)
    out = evolve(st, 0.0)
    assert np.allclose(out.amplitudes, st.amplitudes, atol=1e-15)


def test_evolve_rotates_coherent_state(basis):
    alpha = 2.5
    st = coherent_state(basis, alpha)
    for t in (0.3, 1.7, 4.0):
        rotated = coherent_state(basis, alpha * np.exp(-1j * basis.omega * t))
        assert evolve(st, t).fidelity(rotated) >= 1.0 - 1e-10


def test_evolve_full_period(basis, rng):
    st = random_state(rng, basis)
    out = evolve(st, basis.period())
    assert out.fidelity(st) >= 1.0 - 1e-12


def test_evolve_unitarity_and_composition(basis, rng):
    for _ in range(10):
        st = random_state(rng, basis)
        t1, t2 = rng.uniform(0, 20, size=2)
        assert evolve(st, t1).norm() == pytest.approx(1.0, abs=1e-12)
        a = evolve(evolve(st, t1), t2)
        b = evolve(st, t1 + t2)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_backward_state_endpoint(basis):
    post = coherent_state(basis, 2.5).dual()
    back = backward_state(post, 10.0, 10.0)
    assert np.allclose(back.amplitudes, post.amplitudes, atol=1e-15)


def test_backward_state_is_rotated_coherent_dual(basis):
    # <alpha| evolved back from T to t is the bra of |alpha e^{i omega (T-t)}>
    alpha, T = 2.5, 10.0
    post = coherent_state(basis, alpha).dual()
    for t in (0.0, 3.3, 7.1):
        back = backward_state(post, t, T)
        expect = coherent_state(basis, alpha * np.exp(1j * basis.omega * (T - t))).dual()
        fid = abs(np.vdot(expect.amplitudes, back.amplitudes)) ** 2
        assert fid >= 1.0 - 1e-10


def test_backward_state_phase_argument_at_t0(basis):
    # at t=0 the dual's coherent parameter carries the full phase omega*T + delta
    alpha_mod, delta, T = 2.0, 0.4, 7.0
    post = coherent_state(basis, alpha_mod * np.exp(1j * delta)).dual()
    back = backward_state(post, 0.0, T)
    expect = coherent_state(basis, alpha_mod * np.exp(1j * (basis.omega * T + delta))).dual()
    assert abs(np.vdot(expect.amplitudes, back.amplitudes)) ** 2 >= 1.0 - 1e-10


def test_backward_state_window_check(basis):
    post = coherent_state(basis, 1.0).dual()
    with pytest.raises(ValueError):
        backward_state(post, -0.1, 10.0)
    with pytest.raises(ValueError):
        backward_state(post, 10.1, 10.0)
    with pytest.raises(ValueError, match="measurement window"):
        backward_state(post, np.nan, 10.0)


def test_ground_state_wavefunction_at_origin(basis):
    psi = position_wavefunction(number_state(basis, 0), 0.0)
    assert psi == pytest.approx(np.pi ** -0.25, abs=1e-14)


def test_coherent_wavefunction_gaussian_center():
    # |psi(x, t)| of the evolved coherent state is a Gaussian centered at
    # sqrt(2)|alpha| cos(omega t - delta)
    b = OscillatorBasis(dim=64, include_zero_point=True)
    alpha_mod, delta = 2.5, 0.6
    st = coherent_state(b, alpha_mod * np.exp(1j * delta))
    for t in (0.0, 0.9, 2.7):
        ev = evolve(st, t)
        center = np.sqrt(2.0) * alpha_mod * np.cos(b.omega * t - delta)
        for x in (-1.0, 0.0, 0.8, 2.2, 3.5):
            got = abs(position_wavefunction(ev, x))
            want = np.pi ** -0.25 * np.exp(-0.5 * (x - center) ** 2)
            assert got == pytest.approx(want, abs=1e-12)


def test_wavefunction_normalization_by_quadrature(basis, rng):
    st = random_state(rng, basis)

    def density(x):
        phi = hermite_functions(x, basis.dim)
        return np.abs(np.tensordot(st.amplitudes, phi, axes=(0, 0))) ** 2

    total, _ = integrate.quad(density, -25.0, 25.0, epsabs=1e-10, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_hermite_orthonormality_by_quadrature():
    n = 20

    def cross(x):
        phi = hermite_functions(x, n)
        return np.outer(phi, phi).ravel()

    gram = integrate.quad_vec(cross, -15.0, 15.0, epsabs=1e-10)[0].reshape(n, n)
    assert np.max(np.abs(gram - np.eye(n))) < 1e-8


@pytest.mark.parametrize("n", [1023, 2047])
def test_hermite_norm_beyond_gaussian_underflow(n):
    # exp(-x^2/2) underflows for |x| > 38.6, but phi_n reaches out to its
    # turning point sqrt(2n+1) (64 for n = 2047): the window must hold it
    x = np.linspace(-80.0, 80.0, 8001)
    phi = np.concatenate([hermite_functions(c, n + 1)[n] for c in np.array_split(x, 16)])
    assert np.all(np.isfinite(phi))
    assert float(np.sum(phi ** 2)) * (x[1] - x[0]) == pytest.approx(1.0, abs=1e-9)


def test_hermite_functions_vanish_at_infinity():
    phi = hermite_functions(np.array([-np.inf, -1e200, 1e200, np.inf]), 64)
    assert np.array_equal(phi, np.zeros_like(phi))


def test_hermite_functions_empty_and_negative_order():
    assert hermite_functions(0.3, 0).shape == (0,)
    assert hermite_functions(np.zeros((2, 3)), 0).shape == (0, 2, 3)
    assert hermite_functions(np.zeros(0), 5).shape == (5, 0)
    with pytest.raises(ValueError, match="-3"):
        hermite_functions(0.3, -3)


def _table_hermite_functions(x, n_max):
    """The n_max x points table of the scaled recurrence, as the oracle.

    Gathers the points beyond the Gaussian's underflow at every step and
    keeps a second table for them; needs n_max >= 1.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = np.clip(x.ravel(), -1e7, 1e7)
    out = np.empty((n_max, x.size), dtype=float)
    half_sq = 0.5 * x * x
    far = np.flatnonzero(half_sq > 700.0)
    e = -np.floor(half_sq[far] / math.log(2.0))
    half_sq[far] += e * math.log(2.0)
    e = e.astype(np.int64)
    out[0] = np.pi ** -0.25 * np.exp(-half_sq)
    if n_max > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    phi_far = np.empty((n_max, far.size))
    phi_far[:2] = np.ldexp(out[:2, far], e)
    for n in range(1, n_max - 1):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * x * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
        if far.size:
            big = np.abs(out[n + 1, far]) > 2.0 ** 256
            if big.any():
                out[n:n + 2, far[big]] *= 2.0 ** -256
                e[big] += 256
            phi_far[n + 1] = np.ldexp(out[n + 1, far], e)
    out[:, far] = phi_far
    return out.reshape((n_max,) + shape)


_POINTS = st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-np.inf, np.inf])),
                   min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(x=_POINTS, n_max=st.integers(0, 600))
def test_hermite_functions_match_table_recurrence(x, n_max):
    got = hermite_functions(np.array(x), n_max)
    want = _table_hermite_functions(np.array(x), max(n_max, 1))[:n_max]
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=40, deadline=None)
@given(x=st.lists(st.one_of(st.floats(-1e7, 1e7), st.floats(-100.0, 100.0)),
                  min_size=1, max_size=24),
       n_max=st.integers(1, 400))
def test_hermite_rows_match_table_recurrence_at_largest_growth(x, n_max):
    # |x| = 1e7 grows psi by up to 2^24 a row, so the rescaling checks of a
    # number state, which skips the rows below it, run every 10 rows: none
    # may be late, and none may change a bit
    want = _table_hermite_functions(np.array(x), n_max)
    got = hermite_functions(np.array(x), n_max)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    top = number_state(OscillatorBasis(dim=n_max + 1), n_max - 1)
    assert np.array_equal(position_wavefunction(top, np.array(x)), want[-1])


def test_few_point_hermite_rows_are_the_vector_rows():
    # up to _FEW_POINTS points inside the Gaussian floor run on Python floats;
    # the same points among more take the vector recurrence
    edge = math.sqrt(2.0 * oscillator._GAUSSIAN_FLOOR)
    few = np.array([-0.0, 0.0, 37.0, -edge, 1e-300, 0.9, -1.1, 2.5])
    assert few.size == oscillator._FEW_POINTS
    vector = hermite_functions(np.append(few, 39.0), 1100)[:, :-1]
    for cols in (slice(None), slice(0, 1), slice(2, 4)):
        got, want = hermite_functions(few[cols], 1100), vector[:, cols]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 1100), extra=st.integers(1, 40),
       x=st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=16))
def test_number_state_wavefunction_is_its_table_row(n, extra, x):
    # the rows below n are computed but never unscaled; they must not move row n
    psi = position_wavefunction(number_state(OscillatorBasis(dim=n + extra + 1), n), np.array(x))
    assert np.array_equal(psi.real, _table_hermite_functions(np.array(x), n + 1)[n])
    assert np.all(psi.imag == 0.0)


def test_hermite_functions_non_finite_points():
    finite = np.array([-np.inf, -1e200, -1e7, -45.0, -3.0, -0.0, 0.0, 2.5, 40.0, 1e7, 1e200,
                       np.inf])
    x = np.insert(finite, [0, 4, 9, 12], np.nan)
    got = hermite_functions(x, 300)
    assert np.all(np.isnan(got[:, np.isnan(x)]))
    rest = got[:, ~np.isnan(x)]
    for want in (hermite_functions(finite, 300), _table_hermite_functions(finite, 300)):
        assert np.array_equal(rest, want)
        assert np.array_equal(np.signbit(rest), np.signbit(want))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 300), x=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=24),
       seed=st.integers(0, 2**32 - 1))
def test_position_wavefunction_matches_table_contraction(dim, x, seed):
    state = random_state(np.random.default_rng(seed), OscillatorBasis(dim=dim))
    phi = _table_hermite_functions(np.array(x), dim)
    want = np.tensordot(state.amplitudes, phi, axes=(0, 0))
    bound = 64 * np.finfo(float).eps * (np.abs(state.amplitudes) @ np.abs(phi))
    assert np.all(np.abs(position_wavefunction(state, np.array(x)) - want) <= bound)


def test_position_wavefunction_of_top_level_is_bounded():
    # the n x points table of phi_0..phi_1023 on this grid is 82 MB
    top = number_state(OscillatorBasis(dim=1024), 1023)
    x = np.linspace(-50.0, 50.0, 10001)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        psi = position_wavefunction(top, x)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0
    assert peak < 10e6
    assert float(np.sum(np.abs(psi) ** 2)) * (x[1] - x[0]) == pytest.approx(1.0, abs=1e-10)


def test_position_wavefunction_works_in_a_few_point_arrays():
    # about half of these points lie beyond |x| = 37.4, where the scaled
    # recurrence keeps an exponent per point; a rows x points table would
    # need about 1000 arrays of the point count
    top = number_state(OscillatorBasis(dim=1024), 1023)
    x = np.linspace(-50.0, -25.0, 2500)
    tracemalloc.start()
    try:
        position_wavefunction(top, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * x.nbytes


def test_coherent_tail_matches_regularized_gamma():
    for alpha in (0.3, 1.0, 2.5, 3.5, 12.0):
        for dim in (2, 5, 10, 20, 40, 64, 150, 300):
            want = float(special.gammainc(dim, abs(alpha) ** 2))
            got = coherent_tail(dim, alpha)
            if want < 1e-6:
                assert got == pytest.approx(want, rel=1e-11, abs=1e-300)
            else:
                assert got == pytest.approx(want, abs=1e-13)


def test_required_coherent_dim_is_first_dim_below_limit():
    for alpha in (0.0, 0.1, 1.0, 2.5, 3.5, 12.0):
        for limit in (1e-3, 1e-10, 1e-14):
            need = required_coherent_dim(alpha, limit)
            assert coherent_tail(need, alpha) < limit
            assert need == 2 or coherent_tail(need - 1, alpha) >= limit


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 64), T=st.floats(0.1, 10.0), t_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_phase_convention_independence(dim, T, t_frac, seed):
    # weak values, expectations and pointer readings agree between
    # zero-point conventions: the shift is a global phase on ket and bra
    rng = np.random.default_rng(seed)
    amps_pre = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps_post = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    A = random_hermitian(rng, dim)
    t = t_frac * T
    schedule = MeasurementSchedule(T, steps=64)
    results = []
    for zero_point in (False, True):
        b = OscillatorBasis(dim=dim, include_zero_point=zero_point)
        pre = StateVector(amps_pre, b)
        post = DualState(amps_post, b)
        results.append((weak_value(A, pre, post, t, T), expectation(A, evolve(pre, t)),
                         weak_value_series(A, pre, post, schedule.times, T),
                         pointer_trace(schedule, pre, A, post).readings,
                         pointer_trace(schedule, pre, A).readings))
    (wa, ea, sa, ra, qa), (wb, eb, sb, rb, qb) = results
    assert abs(wa - wb) <= 1e-12 * (1.0 + abs(wa))
    assert abs(ea - eb) <= 1e-12
    assert np.all(np.abs(sa - sb) <= 1e-12 * (1.0 + np.abs(sa)))
    assert np.max(np.abs(ra - rb)) <= 1e-12 * (1.0 + np.max(np.abs(sa)))
    assert np.max(np.abs(qa - qb)) <= 1e-12


def test_evolution_names_an_overflowing_phase():
    # E_max t = 63e308 overflows: named before a NaN phase reaches the normalization
    state = coherent_state(OscillatorBasis(64), 1.0)
    with pytest.raises(ValueError, match="overflows"):
        evolve(state, 1e308)
    with pytest.raises(ValueError, match="overflows"):
        backward_state(state.dual(), 0.0, 1e308)
    assert np.all(np.isfinite(evolve(state, -1.7e308 / 63).amplitudes))



_B = OscillatorBasis(dim=16)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name, build", [
    pytest.param("omega", lambda x: OscillatorBasis(omega=x), id="basis"),
    pytest.param("duration", lambda x: MeasurementSchedule(x), id="schedule"),
    pytest.param("beta", lambda x: thermal_weights(x, _B), id="thermal_weights"),
    pytest.param("beta", lambda x: thermal_purification(x, _B), id="purification"),
    pytest.param("pointer sigma", lambda x: bipartite_protective_sim(
        projector_matrix(IntervalRegion(0.0, 1.0), _B), MeasurementSchedule(1.0),
        pointer_sigma=x), id="grid"),
    pytest.param("amplitude", lambda x: classical_ensemble_average(
        1, x, 1.0, 0, IntervalRegion(0.0, 1.0)), id="ensemble"),
    pytest.param("amplitude", lambda x: classical_dwell_fraction(x, IntervalRegion(0.0, 1.0)),
                 id="dwell"),
    pytest.param("protection window", lambda x: zeno_protect_sim(number_state(_B, 1), 4, x),
                 id="zeno"),
    pytest.param("dt", lambda x: von_neumann_residual(
        number_state(_B, 0), number_state(_B, 0).dual(), hamiltonian(_B), 1.0, x), id="residual"),
])
def test_non_finite_parameter_is_refused_and_named(name, build, value):
    # a ValueError naming the parameter, not NaN results, a RuntimeWarning or a phase overflow
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        build(value)
