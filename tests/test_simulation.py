import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protmeas import (IntervalRegion, MeasurementSchedule, NumericalError,
                      OscillatorBasis, PointerGrid, StateVector, expectation,
                      hamiltonian, number_state, projector_matrix, zeno_protect_sim,
                      bipartite_protective_sim)
from protmeas.simulation import _kept_columns, _run_bipartite

from conftest import random_hermitian

HALF_TAIL = 0.07864960352514258   # erfc(1)/2


@pytest.fixture(scope="module")
def basis32():
    return OscillatorBasis(dim=32)


@pytest.fixture(scope="module")
def tail_projector(basis32):
    return projector_matrix(IntervalRegion(1.0, np.inf), basis32)


def superposition01(basis) -> StateVector:
    amps = np.zeros(basis.dim, dtype=complex)
    amps[0] = amps[1] = 1.0
    return StateVector(amps, basis)


# ---------------------------------------------------------------- bipartite

def test_zero_coupling_leaves_pointer_alone(basis32):
    # a region far outside the state's support makes P effectively zero
    P = projector_matrix(IntervalRegion(50.0, 51.0), basis32)
    res = bipartite_protective_sim(P, MeasurementSchedule(5.0), steps=128)
    assert abs(res.pointer_shift) < 1e-10
    assert res.survival_probability == pytest.approx(1.0, abs=1e-10)


def test_protective_limit_reads_expectation(basis32, tail_projector):
    res = bipartite_protective_sim(tail_projector, MeasurementSchedule(20.0),
                                   steps=1024)
    assert abs(res.pointer_shift - HALF_TAIL) / HALF_TAIL < 0.05
    assert 0.99 <= res.survival_probability <= 1.0 + 1e-10
    assert res.final_norm == pytest.approx(1.0, abs=1e-10)
    assert res.final_state_shape == (32, 512)


def test_energy_shift_scales_inversely_with_duration(basis32, tail_projector):
    r1 = bipartite_protective_sim(tail_projector, MeasurementSchedule(20.0), steps=512)
    r2 = bipartite_protective_sim(tail_projector, MeasurementSchedule(40.0), steps=512)
    ratio = r1.energy_shift_per_p / r2.energy_shift_per_p
    assert abs(ratio - 2.0) < 0.2


def test_shift_converges_monotonically_in_duration(basis32, tail_projector):
    ref = expectation(tail_projector, number_state(basis32, 0))
    errors = []
    for T in (5.0, 10.0, 20.0, 40.0):
        res = bipartite_protective_sim(tail_projector, MeasurementSchedule(T), steps=512)
        errors.append(abs(res.pointer_shift - ref))
    for a, b in zip(errors, errors[1:]):
        assert b <= a + 1e-9


def test_step_ladder_non_convergence_raises(basis32, tail_projector):
    with pytest.raises(NumericalError):
        bipartite_protective_sim(tail_projector, MeasurementSchedule(5.0),
                                 steps=64, shift_tol=0.0)


def test_stepper_second_order_in_dt(basis32, tail_projector):
    # halving dt shrinks the pointer-shift defect by about 4
    grid = PointerGrid()
    pre = number_state(basis32, 0)
    sched = MeasurementSchedule(10.0)
    means = []
    for steps in (64, 128, 256, 4096):
        mean, _, _, _ = _run_bipartite(tail_projector, sched, pre, grid, steps)
        means.append(mean)
    ref = means[-1]
    e1, e2 = abs(means[0] - ref), abs(means[1] - ref)
    assert e2 < e1 / 2.5


def strang_reference(P, sched, pre, grid, steps):
    """Full-window Strang splitting: (pointer mean, dE per p, survival)."""
    lam, W = np.linalg.eigh(P.entries)
    E = P.basis.energies()
    T = sched.duration
    M = W.conj().T @ (np.exp(-1j * E * T / steps)[:, None] * W)
    S = np.outer(W.conj().T @ pre.amplitudes,
                 np.fft.fft(grid.initial_wave(), norm="ortho"))
    lam_p = np.outer(lam, grid.p)
    kicks = np.diff(sched.cumulative(np.linspace(0.0, T, steps + 1)))
    for m, kick in enumerate(kicks):
        half = np.exp(-0.5j * kick * lam_p)
        S = half * (M @ (half * S))
        if m + 1 == steps // 2:
            de = sched.g(0.5 * T) * np.sum(lam[:, None] * np.abs(S) ** 2)
    prob_x = np.sum(np.abs(np.fft.ifft(S, axis=1, norm="ortho")) ** 2, axis=0)
    ref = W.conj().T @ (pre.amplitudes * np.exp(-1j * E * T))
    return np.array([np.sum(grid.x * prob_x), de,
                     np.sum(np.abs(S.conj().T @ ref) ** 2)])


@pytest.mark.parametrize("ramp_fraction", [0.05, 0.0, 0.5])
def test_exact_plateau_matches_full_window_strang(ramp_fraction):
    # 0.0: no ramps, all exact; 0.5: no plateau, all stepped
    basis = OscillatorBasis(dim=16)
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    pre = number_state(basis, 0)
    grid = PointerGrid(points=64)
    sched = MeasurementSchedule(5.0, ramp_fraction)
    coarse = strang_reference(P, sched, pre, grid, 2048)
    fine = strang_reference(P, sched, pre, grid, 4096)
    richardson = (4.0 * fine - coarse) / 3.0
    mean, de, survival, norm = _run_bipartite(P, sched, pre, grid, 512)
    np.testing.assert_allclose([mean, de, survival], richardson, rtol=0, atol=1e-8)
    assert norm == pytest.approx(1.0, abs=1e-12)


def ehrenfest_shift(P, sched, pre, grid):
    """h sum_l w_l integral_0^T <P_V>_l dt for a schedule with no ramps.

    Column l evolves under A + h p_l diag(lam); in its eigenbasis (e, V)
    <P_V>(t) = sum_jk conj(c_j) c_k Q_jk exp(i (e_j - e_k) t), whose time
    integral is closed form.  No FFT position mean is involved.
    """
    lam, W = np.linalg.eigh(P.entries)
    A = W.conj().T @ (P.basis.energies()[:, None] * W)
    h, T = sched.plateau, sched.duration
    weights = np.abs(np.fft.fft(grid.initial_wave(), norm="ortho")) ** 2
    e, V = np.linalg.eigh(A + (h * grid.p)[:, None, None] * np.diag(lam))
    Vh = V.conj().transpose(0, 2, 1)
    c = Vh @ (W.conj().T @ pre.amplitudes)
    Q = Vh @ (lam[:, None] * V)
    d = e[:, :, None] - e[:, None, :]
    f = T * np.exp(0.5j * d * T) * np.sinc(d * T / (2.0 * np.pi))  # T where d = 0
    per_column = np.einsum("lj,lk,ljk->l", c.conj(), c, Q * f).real
    return h * float(weights @ per_column)


@pytest.mark.parametrize("region", [(1.0, np.inf), (-0.5, 0.7)])
@pytest.mark.parametrize("dim", [16, 32])
@pytest.mark.parametrize("T", [5.0, 7.0, 20.0])
def test_pointer_shift_matches_ehrenfest_integral(region, dim, T):
    # with no ramps the whole window is exact: <x(T)> - <x(0)> is the
    # integral of g <P_V>, up to the column cut's bound
    basis = OscillatorBasis(dim=dim)
    P = projector_matrix(IntervalRegion(*region), basis)
    sched = MeasurementSchedule(T, ramp_fraction=0.0)
    grid = PointerGrid()
    res = bipartite_protective_sim(P, sched, grid=grid, steps=64)
    oracle = ehrenfest_shift(P, sched, number_state(basis, 0), grid)
    assert abs(res.pointer_shift - oracle) <= 1e-10 + res.shift_bound


@settings(max_examples=25, deadline=None)
@given(T=st.floats(1.0, 50.0), ramp_fraction=st.floats(0.0, 0.5))
def test_identity_projector_translates_pointer_by_unit_integral(T, ramp_fraction):
    # with P_V = 1 the pointer moves by exactly integral(g) = 1 and the
    # system is untouched, whatever the schedule
    basis = OscillatorBasis(dim=16)
    P = projector_matrix(IntervalRegion(-np.inf, np.inf), basis)
    res = bipartite_protective_sim(P, MeasurementSchedule(T, ramp_fraction),
                                   grid=PointerGrid(points=64), steps=64)
    assert res.pointer_shift == pytest.approx(1.0, abs=1e-9)
    assert res.final_norm == pytest.approx(1.0, abs=1e-10)
    assert res.survival_probability <= 1.0 + 1e-10


@settings(max_examples=30, deadline=None)
@given(sigma=st.floats(1.0, 50.0), points=st.sampled_from([64, 128, 256, 512, 1024]),
       T=st.floats(2.0, 40.0))
def test_column_cut_within_its_bound(sigma, points, T):
    # the cut run against every column at the accepted rung; survival and
    # the energy shift are sums over columns, so their roundoff of a few eps
    # is allowed on top of W
    basis = OscillatorBasis(dim=16)
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    grid = PointerGrid(points=points, sigma=sigma)
    sched = MeasurementSchedule(T)
    res = bipartite_protective_sim(P, sched, grid=grid, steps=64)
    mean, de, survival, _ = _run_bipartite(P, sched, number_state(basis, 0), grid,
                                           res.steps_used)
    W, eps = res.dropped_weight, 16 * np.finfo(float).eps
    assert res.kept_columns < points
    assert abs(res.pointer_mean_final - mean) <= res.shift_bound
    assert abs(res.survival_probability - survival) <= W + eps
    assert abs(res.energy_shift_per_p - de) <= sched.plateau * W + eps * de


def test_column_cut_at_readme_defaults():
    P = projector_matrix(IntervalRegion(1.0, np.inf), OscillatorBasis(dim=64))
    res = bipartite_protective_sim(P, MeasurementSchedule(20.0))
    assert res.kept_columns <= 32
    assert 0.0 < res.shift_bound <= 1e-4 / 10
    assert res.ladder_error < 1e-4
    # the cut depends on the momentum spacing and width, both fixed by
    # span_sigmas, so not on the number of points
    for points in (64, 128, 256, 1024, 2048):
        grid = PointerGrid(points=points)
        columns, W = _kept_columns(grid, 1e-4)
        assert len(columns) == res.kept_columns
        assert 2 * grid.extent * np.sqrt(W) + grid.extent * W <= 1e-4 / 10
    columns, W = _kept_columns(PointerGrid(), 0.0)
    assert len(columns) == 512 and W == 0.0


def test_large_bipartite_is_bounded():
    # propagating all 512 pointer columns took about 17 s on 2 cores
    P = projector_matrix(IntervalRegion(1.0, np.inf), OscillatorBasis(dim=256))
    start = time.perf_counter()
    res = bipartite_protective_sim(P, MeasurementSchedule(20.0))
    assert time.perf_counter() - start < 5.0
    assert abs(res.pointer_shift - HALF_TAIL) / HALF_TAIL < 0.05
    assert res.final_norm == pytest.approx(1.0, abs=1e-10)


def test_pointer_grid_validation():
    with pytest.raises(ValueError):
        PointerGrid(points=100)
    with pytest.raises(ValueError):
        PointerGrid(sigma=-1.0)


# --------------------------------------------------------------------- zeno

def test_zeno_two_level_closed_form(basis32, tail_projector):
    # survival after n projections onto the initial state is cos(wT/2n)^2n
    init = superposition01(basis32)
    T = np.pi / basis32.omega
    for n in (1, 4, 8, 16):
        res = zeno_protect_sim(init, n, T, measured=tail_projector)
        oracle = np.cos(basis32.omega * T / (2 * n)) ** (2 * n)
        assert res.survival_probability == pytest.approx(oracle, abs=1e-12)


def test_zeno_survival_monotone_and_saturates(basis32):
    init = superposition01(basis32)
    T = np.pi / basis32.omega
    last = 0.0
    for n in (4, 8, 16, 32, 64, 128, 256):
        surv = zeno_protect_sim(init, n, T).survival_probability
        assert surv >= last
        last = surv
    assert last > 0.99


def test_zeno_failure_rate_bounded_by_c_over_n(basis32):
    init = superposition01(basis32)
    T = np.pi / basis32.omega
    ns = np.array([4, 8, 16, 32, 64, 128, 256])
    fails = np.array([1.0 - zeno_protect_sim(init, int(n), T).survival_probability
                      for n in ns])
    # n (1 - s) grows toward its asymptote, so C fitted at the largest n
    # bounds the failure rate at every tested n
    C = float(ns[-1] * fails[-1])
    assert np.all(fails <= C * (1.0 + 1e-9) / ns)
    # analytic Zeno bound: 1 - s <= (omega T / 2)^2 / n
    assert np.all(fails <= (basis32.omega * T / 2.0) ** 2 / ns + 1e-12)


def test_zeno_jump_norms(basis32, tail_projector):
    init = superposition01(basis32)
    res = zeno_protect_sim(init, 6, 2.0, measured=tail_projector)
    assert res.jump_norms.shape == (6,)
    assert np.all(res.jump_norms > 0.01)
    assert zeno_protect_sim(init, 6, 2.0).jump_norms.size == 0


def zeno_reference(initial, n, duration, O, coupling):
    """Dense Heisenberg loop: (survival, jump norm per protection)."""
    H = hamiltonian(initial.basis)
    if coupling != 0.0:
        H = H + (coupling / duration) * O
    evals, vecs = np.linalg.eigh(H)
    dt = duration / n
    U = (vecs * np.exp(-1j * evals * dt)) @ vecs.conj().T
    s = initial.amplitudes
    survival = abs(complex(np.vdot(s, U @ s))) ** (2 * n)
    proj = np.outer(s, s.conj())
    comp = np.eye(len(s)) - proj
    jumps = []
    for _ in range(n):
        before = U.conj().T @ O @ U
        O = proj @ before @ proj + comp @ before @ comp
        jumps.append(np.linalg.norm(O - before))
    return float(survival), np.array(jumps)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 40), n=st.integers(1, 16), T=st.floats(0.5, 20.0),
       hermitian=st.booleans(), coupling=st.sampled_from([0.0, 0.3, 0.7]),
       seed=st.integers(0, 2**32 - 1))
def test_zeno_matches_dense_heisenberg_loop(dim, n, T, hermitian, coupling, seed):
    rng = np.random.default_rng(seed)
    basis = OscillatorBasis(dim=dim)
    init = StateVector(rng.normal(size=dim) + 1j * rng.normal(size=dim), basis)
    if hermitian or coupling != 0.0:
        O = random_hermitian(rng, dim)
    else:
        O = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    res = zeno_protect_sim(init, n, T, measured=O, coupling=coupling)
    survival, jumps = zeno_reference(init, n, T, O, coupling)
    assert res.survival_probability == survival
    # both loops carry a roundoff of a few eps |O| into each jump; it only
    # shows where the jumps decay far below |O| (dim 2, many protections),
    # and the largest seen in 3,000 draws was 23 eps |O|
    atol = 64 * np.finfo(float).eps * np.linalg.norm(O)
    np.testing.assert_allclose(res.jump_norms, jumps, rtol=1e-12, atol=atol)


def test_large_zeno_is_bounded():
    # two dense snapshots and six dense products per protection took about
    # 6.5 s on 2 cores
    basis = OscillatorBasis(dim=256)
    init = superposition01(basis)
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    start = time.perf_counter()
    for n in (4, 8, 16, 32, 64, 128, 256):
        res = zeno_protect_sim(init, n, np.pi, measured=P)
        assert res.jump_norms.shape == (n,)
    assert time.perf_counter() - start < 3.0


def test_zeno_with_measurement_coupling(basis32, tail_projector):
    init = superposition01(basis32)
    plain = zeno_protect_sim(init, 32, np.pi).survival_probability
    coupled = zeno_protect_sim(init, 32, np.pi, measured=tail_projector,
                               coupling=0.3).survival_probability
    assert 0.0 < coupled <= 1.0 + 1e-12
    assert abs(coupled - plain) < 0.05   # weak coupling barely disturbs


def test_zeno_validation(basis32, tail_projector):
    init = superposition01(basis32)
    with pytest.raises(ValueError):
        zeno_protect_sim(init, 0, 1.0)
    with pytest.raises(ValueError):
        zeno_protect_sim(init, 4, 1.0, coupling=0.5)   # coupling needs an operator
    for duration in (0.0, -3.0):
        with pytest.raises(ValueError):
            zeno_protect_sim(init, 4, duration, measured=tail_projector, coupling=0.3)
