import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protmeas import (IntervalRegion, MeasurementSchedule, NumericalError,
                      OscillatorBasis, StateVector, expectation,
                      hamiltonian, number_state, projector_matrix, thermal_weights,
                      zeno_protect_sim, bipartite_protective_sim)
from protmeas import simulation, weak
from protmeas.simulation import _bipartite_model, _rungs

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

class Grid:
    """A uniform pointer position grid of half-width 8 sigma, with the
    initial Gaussian's momentum columns; the references below run on it."""

    def __init__(self, points=512, sigma=10.0):
        self.extent = 8.0 * sigma
        self.x = np.linspace(-self.extent, self.extent, points, endpoint=False)
        self.p = 2.0 * np.pi * np.fft.fftfreq(points, d=2.0 * self.extent / points)
        wave = np.exp(-self.x ** 2 / (4.0 * sigma ** 2))
        self.columns = np.fft.fft(wave / np.linalg.norm(wave), norm="ortho")


def one_rung(P, sched, pre, steps):
    """One rung of the node code as (pointer shift, dE per p, survival, norm)."""
    return tuple(float(q[0]) for q in _rungs(_bipartite_model(P, sched, pre, 10.0), sched,
                                              [steps]))


def grid_rung(P, sched, pre, grid, steps, shift_tol=1e-4):
    """One rung of the pointer-grid scheme: (pointer shift, dE per p, survival).

    Every kept momentum column is Strang-stepped through the ramps with a
    dense propagator and diagonalized on the plateau; the pointer mean is
    read in position space after an FFT.  The lightest columns are dropped
    while 2 L sqrt(W) + L W, which bounds the mean's error for a dropped
    weight W and grid half-width L, stays within shift_tol / 10.
    """
    weight = np.abs(grid.columns) ** 2
    order = np.argsort(weight, kind="stable")
    dropped = np.cumsum(weight[order])
    L = grid.extent
    n_drop = int(np.count_nonzero(2.0 * L * np.sqrt(dropped) + L * dropped <= shift_tol / 10.0))
    cols = np.sort(order[n_drop:])

    lam, W = np.linalg.eigh(P.entries)
    E = P.basis.energies()
    T, h = sched.duration, sched.plateau
    ramp = sched.ramp_fraction * T
    k = max(1, round(steps * sched.ramp_fraction))
    lam_p = np.outer(lam, grid.p[cols])
    S = np.outer(W.T @ pre.amplitudes, grid.columns[cols])
    M = W.T @ (np.exp(-1j * E * ramp / k)[:, None] * W)

    def stepped(S, t0, t1):
        kicks = np.diff(sched.cumulative(np.linspace(t0, t1, k + 1)))
        merged = 0.5 * (np.append(kicks, 0.0) + np.insert(kicks, 0, 0.0))
        S = np.exp(-1j * merged[0] * lam_p) * S
        for theta in merged[1:]:
            S = np.exp(-1j * theta * lam_p) * (M @ S)
        return S

    if ramp > 0:
        S = stepped(S, 0.0, ramp)
    A = W.T @ (E[:, None] * W)
    e, V = np.linalg.eigh(A + (h * grid.p[cols])[:, None, None] * np.diag(lam))
    phase = np.exp(-1j * (0.5 * T - ramp) * e)
    y = phase * np.einsum("lji,jl->li", V, S)              # (column, system)
    de = h * np.sum(lam * np.abs(np.einsum("lij,lj->li", V, y)) ** 2)
    S = np.einsum("lij,lj->il", V, phase * y)
    if ramp > 0:
        S = stepped(S, T - ramp, T)

    full = np.zeros((P.basis.dim, len(grid.x)), dtype=complex)
    full[:, cols] = S
    prob_x = np.sum(np.abs(np.fft.ifft(full, axis=1, norm="ortho")) ** 2, axis=0)
    x0 = np.sum(grid.x * np.abs(np.fft.ifft(grid.columns, norm="ortho")) ** 2)
    ref = W.T @ (pre.amplitudes * np.exp(-1j * E * T))
    return prob_x @ grid.x - x0, de, np.sum(np.abs(ref.conj() @ S) ** 2)


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


@pytest.mark.parametrize("tol", [-1.0, np.nan])
def test_bipartite_refuses_a_negative_or_nan_shift_tol(tol, monkeypatch):
    # refused before the ladder, which ran all six doublings and then raised
    # NumericalError for what is a parameter error
    P = projector_matrix(IntervalRegion(0.0, np.inf), OscillatorBasis(dim=16))
    monkeypatch.setattr(simulation, "_rungs", None)
    with pytest.raises(ValueError, match="shift_tol"):
        bipartite_protective_sim(P, MeasurementSchedule(5.0), shift_tol=tol)


@pytest.mark.parametrize("steps", [0, -4, 1, 2.5, 64.0, None])
def test_bipartite_refuses_a_bad_steps_by_name(steps, monkeypatch):
    # 0, -4 and 2.5 ran and returned steps_used 0, -8 and 5.0 with a pointer shift
    P = projector_matrix(IntervalRegion(0.0, np.inf), OscillatorBasis(dim=16))
    monkeypatch.setattr(simulation, "_rungs", None)
    message = (f"steps must be >= 2, got {steps}" if isinstance(steps, int)
               else f"steps must be an integer, got {steps!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bipartite_protective_sim(P, MeasurementSchedule(5.0), steps=steps)


def test_bipartite_takes_a_numpy_integer_steps(tail_projector):
    plain = bipartite_protective_sim(tail_projector, MeasurementSchedule(5.0), steps=64)
    numpy = bipartite_protective_sim(tail_projector, MeasurementSchedule(5.0), steps=np.int64(64))
    assert numpy == plain


def test_bipartite_names_an_overflowing_window():
    # E_max T = 15e308 overflows: named before any NaN rung, with no RuntimeWarning
    P = projector_matrix(IntervalRegion(0.0, np.inf), OscillatorBasis(dim=16))
    with pytest.raises(ValueError, match="duration"):
        bipartite_protective_sim(P, MeasurementSchedule(1e308), steps=64)


def test_step_ladder_stops_at_a_non_finite_shift(basis32, tail_projector, monkeypatch):
    calls = []

    def nan_rungs(model, schedule, rungs):
        calls.append(rungs)
        return (np.full(2, np.nan),) * 4

    monkeypatch.setattr(simulation, "_rungs", nan_rungs)
    with pytest.raises(NumericalError, match="not finite at 128 steps"):
        bipartite_protective_sim(tail_projector, MeasurementSchedule(20.0), steps=64)
    assert calls == [[64, 128]]


def test_stepper_second_order_in_dt(basis32, tail_projector):
    # halving dt shrinks the pointer-shift defect by about 4
    pre = number_state(basis32, 0)
    sched = MeasurementSchedule(10.0)
    shifts = [one_rung(tail_projector, sched, pre, steps)[0] for steps in (64, 128, 256, 4096)]
    ref = shifts[-1]
    e1, e2 = abs(shifts[0] - ref), abs(shifts[1] - ref)
    assert e2 < e1 / 2.5


def strang_reference(P, sched, pre, grid, steps):
    """Full-window Strang splitting on the grid: (pointer shift, dE per p, survival)."""
    lam, W = np.linalg.eigh(P.entries)
    E = P.basis.energies()
    T = sched.duration
    M = W.conj().T @ (np.exp(-1j * E * T / steps)[:, None] * W)
    S = np.outer(W.conj().T @ pre.amplitudes, grid.columns)
    lam_p = np.outer(lam, grid.p)
    kicks = np.diff(sched.cumulative(np.linspace(0.0, T, steps + 1)))
    for m, kick in enumerate(kicks):
        half = np.exp(-0.5j * kick * lam_p)
        S = half * (M @ (half * S))
        if m + 1 == steps // 2:
            de = sched.g(0.5 * T) * np.sum(lam[:, None] * np.abs(S) ** 2)
    prob_x = np.sum(np.abs(np.fft.ifft(S, axis=1, norm="ortho")) ** 2, axis=0)
    x0 = np.sum(grid.x * np.abs(np.fft.ifft(grid.columns, norm="ortho")) ** 2)
    ref = W.conj().T @ (pre.amplitudes * np.exp(-1j * E * T))
    return np.array([np.sum(grid.x * prob_x) - x0, de,
                     np.sum(np.abs(S.conj().T @ ref) ** 2)])


@pytest.mark.parametrize("ramp_fraction", [0.05, 0.0, 0.5])
def test_exact_plateau_matches_full_window_strang(ramp_fraction):
    # 0.0: no ramps, all exact; 0.5: no plateau, all stepped
    basis = OscillatorBasis(dim=16)
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    pre = number_state(basis, 0)
    grid = Grid(points=64)
    sched = MeasurementSchedule(5.0, ramp_fraction)
    coarse = strang_reference(P, sched, pre, grid, 2048)
    fine = strang_reference(P, sched, pre, grid, 4096)
    richardson = (4.0 * fine - coarse) / 3.0
    shift, de, survival, norm = one_rung(P, sched, pre, 512)
    np.testing.assert_allclose([shift, de, survival], richardson, rtol=0, atol=1e-8)
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_survival_is_read_off_each_nodes_normalised_state():
    # a start of norm 2 stands in for a norm drift: |<ref|psi>|^2 alone reads it 4 times
    basis = OscillatorBasis(dim=16)
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    sched = MeasurementSchedule(5.0)
    model = _bipartite_model(P, sched, number_state(basis, 0), 10.0)
    *fixed, start, ref = model
    _, _, survival, norm = _rungs(model, sched, [64, 128])
    _, _, survival2, norm2 = _rungs((*fixed, 2.0 * start, ref), sched, [64, 128])
    np.testing.assert_allclose(norm2, 2.0 * norm, rtol=1e-15)
    np.testing.assert_allclose(survival2, survival, rtol=1e-14)
    assert np.all(survival <= 1.0)


def ehrenfest_shift(P, sched, pre, grid):
    """h sum_l w_l integral_0^T <P_V>_l dt over the grid's momentum columns,
    for a schedule with no ramps.

    Column l evolves under A + h p_l diag(lam); in its eigenbasis (e, V)
    <P_V>(t) = sum_jk conj(c_j) c_k Q_jk exp(i (e_j - e_k) t), whose time
    integral is closed form.
    """
    lam, W = np.linalg.eigh(P.entries)
    A = W.conj().T @ (P.basis.energies()[:, None] * W)
    h, T = sched.plateau, sched.duration
    weights = np.abs(grid.columns) ** 2
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
    # with no ramps the whole window is exact, and the Gauss-Hermite nodes
    # reproduce the average over all 512 columns of a grid
    basis = OscillatorBasis(dim=dim)
    P = projector_matrix(IntervalRegion(*region), basis)
    sched = MeasurementSchedule(T, ramp_fraction=0.0)
    res = bipartite_protective_sim(P, sched, steps=64)
    oracle = ehrenfest_shift(P, sched, number_state(basis, 0), Grid())
    assert abs(res.pointer_shift - oracle) <= 1e-10


@pytest.mark.parametrize("region", [(1.0, np.inf), (-0.5, 0.7)])
@pytest.mark.parametrize("dim", [16, 64])
@pytest.mark.parametrize("T", [5.0, 20.0])
def test_bipartite_is_convention_independent(region, dim, T):
    # the zero point omega/2 multiplies every state by one phase, which no
    # pointer shift, energy shift or survival sees
    results = []
    for zero_point in (False, True):
        basis = OscillatorBasis(dim=dim, include_zero_point=zero_point)
        P = projector_matrix(IntervalRegion(*region), basis)
        res = bipartite_protective_sim(P, MeasurementSchedule(T), steps=128)
        results.append([res.pointer_shift, res.energy_shift_per_p, res.survival_probability])
    np.testing.assert_allclose(results[1], results[0], rtol=1e-12, atol=0)


@settings(max_examples=25, deadline=None)
@given(T=st.floats(1.0, 50.0), ramp_fraction=st.floats(0.0, 0.5))
def test_identity_projector_translates_pointer_by_unit_integral(T, ramp_fraction):
    # with P_V = 1 the pointer moves by exactly integral(g) = 1 and the
    # system is untouched, whatever the schedule
    basis = OscillatorBasis(dim=16)
    P = projector_matrix(IntervalRegion(-np.inf, np.inf), basis)
    res = bipartite_protective_sim(P, MeasurementSchedule(T, ramp_fraction), steps=64)
    assert res.pointer_shift == pytest.approx(1.0, abs=1e-9)
    assert res.final_norm == pytest.approx(1.0, abs=1e-10)
    assert res.survival_probability <= 1.0 + 1e-10


@pytest.mark.parametrize("dim", [64, 256])
def test_nodes_match_the_grid_scheme(dim):
    # the grid scheme at the rung the ladder accepts; the largest gap seen
    # was 8.8e-12, in the shift at dim 256, T = 40
    P = projector_matrix(IntervalRegion(1.0, np.inf), OscillatorBasis(dim=dim))
    pre, grid = number_state(P.basis, 0), Grid()
    for T in (5.0, 20.0, 40.0, 100.0):
        sched = MeasurementSchedule(T)
        res = bipartite_protective_sim(P, sched)
        oracle = grid_rung(P, sched, pre, grid, res.steps_used)
        got = (res.pointer_shift, res.energy_shift_per_p, res.survival_probability)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-9)


def test_the_four_node_rule_is_hermgauss_bit_for_bit():
    # the bipartite.csv bytes rest on these floats; the closed forms differ by 1 ulp
    for ours, numpy in zip(simulation.GAUSS_HERMITE, np.polynomial.hermite.hermgauss(4)):
        assert ours.dtype == numpy.dtype and ours.tobytes() == numpy.tobytes()


@pytest.mark.parametrize("dim", [64, 256])
def test_four_nodes_match_eight(dim, monkeypatch):
    P = projector_matrix(IntervalRegion(1.0, np.inf), OscillatorBasis(dim=dim))
    sched = MeasurementSchedule(20.0)
    four = bipartite_protective_sim(P, sched)
    monkeypatch.setattr(simulation, "GAUSS_HERMITE", np.polynomial.hermite.hermgauss(8))
    # the model carries 8 momenta: a patch that no longer reached it would compare 4 with 4
    assert len(_bipartite_model(P, sched, number_state(P.basis, 0), 10.0)[0]) == 8
    eight = bipartite_protective_sim(P, sched)
    for name in ("pointer_shift", "energy_shift_per_p", "survival_probability"):
        assert getattr(four, name) == pytest.approx(getattr(eight, name), abs=1e-12)


def test_ladder_at_readme_defaults():
    P = projector_matrix(IntervalRegion(1.0, np.inf), OscillatorBasis(dim=64))
    res = bipartite_protective_sim(P, MeasurementSchedule(20.0))
    assert res.steps_used == 1024
    # the basis change is not re-unitarised, so the norm drift is the
    # roundoff of 2 x 51 ramp steps
    assert abs(1.0 - res.final_norm) <= 1e-12
    assert res.ladder_error < 1e-4


@pytest.mark.parametrize("dim", [16, 64])
def test_rungs_sharing_a_plateau_match_single_rungs(dim):
    basis = OscillatorBasis(dim=dim)
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    pre, sched = number_state(basis, 0), MeasurementSchedule(20.0)
    model = _bipartite_model(P, sched, pre, 10.0)
    paired = _rungs(model, sched, [256, 512])
    for r, steps in enumerate((256, 512)):
        single = _rungs(model, sched, [steps])
        for both, one in zip(paired, single):
            assert both[r] == pytest.approx(one[0], rel=1e-13, abs=0)


@pytest.mark.parametrize("dim", [64, 256])
def test_default_ladder_start_matches_a_finer_start(dim):
    # a ladder started at 4096 steps accepts 8192, whose step error is about
    # 1/64 of the default's accepted 1024; the largest gap seen was 4.1e-10
    # (survival at dim 256, T = 100)
    P = projector_matrix(IntervalRegion(1.0, np.inf), OscillatorBasis(dim=dim))
    for T in (5.0, 20.0, 40.0, 100.0):
        sched = MeasurementSchedule(T)
        res = bipartite_protective_sim(P, sched)
        fine = bipartite_protective_sim(P, sched, steps=4096)
        assert (res.steps_used, fine.steps_used) == (1024, 8192)
        assert abs(res.pointer_shift - fine.pointer_shift) <= 1e-9
        assert abs(res.energy_shift_per_p - fine.energy_shift_per_p) <= 1e-9
        assert abs(res.survival_probability - fine.survival_probability) <= 1e-9
        # the full rung gap estimates the pointer-shift error, and covers it
        # except where the ramps are not yet in the O(dt^2) regime (the
        # docstring's dim 256, T = 100 case)
        if (dim, T) != (256, 100.0):
            assert res.ladder_error >= abs(res.pointer_shift - fine.pointer_shift)


def test_large_bipartite_is_bounded():
    # about 0.3 s on 2 cores: one eigh of the projector and four of the
    # plateau Hamiltonians, shared by the ladder's two rungs
    P = projector_matrix(IntervalRegion(1.0, np.inf), OscillatorBasis(dim=512))
    start = time.perf_counter()
    res = bipartite_protective_sim(P, MeasurementSchedule(20.0))
    assert time.perf_counter() - start < 5.0
    assert abs(res.pointer_shift - HALF_TAIL) / HALF_TAIL < 0.05
    assert res.final_norm == pytest.approx(1.0, abs=1e-10)


def test_bipartite_diagonalizes_the_projector_once_per_call(tail_projector, monkeypatch):
    # P's eigenbasis is formed before the ladder; each pass diagonalizes only
    # the four nodes' plateau Hamiltonians
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda H: calls.append(H.shape) or eigh(H))
    res = bipartite_protective_sim(tail_projector, MeasurementSchedule(20.0), shift_tol=1e-11)
    assert res.steps_used == 8 * simulation.LADDER_START             # three passes
    assert calls == [(32, 32)] * (1 + 3 * 4)


def test_a_sigma_whose_momenta_overflow_is_named(monkeypatch):
    # xi / (sqrt(2) sigma) overflows at sigma = 5e-324: refused before the ladder
    P = projector_matrix(IntervalRegion(0.0, np.inf), OscillatorBasis(dim=16))
    monkeypatch.setattr(simulation, "_rungs", None)
    with pytest.raises(ValueError, match="pointer sigma=4.94066e-324 makes the pointer"):
        bipartite_protective_sim(P, MeasurementSchedule(5.0), pointer_sigma=5e-324)


def test_a_sigma_whose_kick_phase_cannot_resolve_a_radian_is_refused(monkeypatch):
    # at sigma = 1e-300 the momenta are finite, about 1.2e300, but the window's kick
    # phase max|p| has an ulp far above 1 rad: refused before the ladder
    P = projector_matrix(IntervalRegion(0.0, np.inf), OscillatorBasis(dim=16))
    monkeypatch.setattr(simulation, "_rungs", None)
    with pytest.raises(ValueError, match=r"^pointer sigma=1e-300 makes the pointer momenta reach"):
        bipartite_protective_sim(P, MeasurementSchedule(5.0), pointer_sigma=1e-300)
    # max|p| = 1.1672 / sigma crosses 2**52 between these two widths
    _bipartite_model(P, MeasurementSchedule(5.0), number_state(P.basis, 0), 3e-16)
    with pytest.raises(ValueError, match=r"reach 2\*\*52$"):
        _bipartite_model(P, MeasurementSchedule(5.0), number_state(P.basis, 0), 2e-16)


def test_pointer_grid_validation(monkeypatch):
    # refused before the ladder, and before the shift_tol check
    P = projector_matrix(IntervalRegion(0.0, np.inf), OscillatorBasis(dim=16))
    monkeypatch.setattr(simulation, "_rungs", None)
    for sigma in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="sigma must be positive"):
            bipartite_protective_sim(P, MeasurementSchedule(5.0), pointer_sigma=sigma,
                                     shift_tol=-1.0)


# --------------------------------------------------------------------- zeno

def test_zeno_two_level_closed_form(basis32, tail_projector):
    # survival after n projections onto the initial state is cos(wT/2n)^2n
    init = superposition01(basis32)
    T = np.pi / basis32.omega
    for n in (1, 4, 8, 16):
        res = zeno_protect_sim(init, n, T, measured=tail_projector)
        oracle = np.cos(basis32.omega * T / (2 * n)) ** (2 * n)
        assert res.survival_probability == pytest.approx(oracle, abs=1e-12)


def test_zeno_survival_monotone_and_saturates(basis32, tail_projector):
    init = superposition01(basis32)
    T = np.pi / basis32.omega
    last = 0.0
    for n in (4, 8, 16, 32, 64, 128, 256):
        surv = zeno_protect_sim(init, n, T, tail_projector).survival_probability
        assert surv >= last
        last = surv
    assert last > 0.99


def test_zeno_failure_rate_bounded_by_c_over_n(basis32, tail_projector):
    init = superposition01(basis32)
    T = np.pi / basis32.omega
    ns = np.array([4, 8, 16, 32, 64, 128, 256])
    fails = np.array([1.0 - zeno_protect_sim(init, int(n), T, tail_projector).survival_probability
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
       coupling=st.sampled_from([0.0, 0.3, 0.7]), seed=st.integers(0, 2**32 - 1))
def test_zeno_matches_dense_heisenberg_loop(dim, n, T, coupling, seed):
    rng = np.random.default_rng(seed)
    basis = OscillatorBasis(dim=dim)
    init = StateVector(rng.normal(size=dim) + 1j * rng.normal(size=dim), basis)
    O = random_hermitian(rng, dim)
    res = zeno_protect_sim(init, n, T, measured=O, coupling=coupling)
    survival, jumps = zeno_reference(init, n, T, O, coupling)
    assert res.survival_probability == survival
    # both loops carry a roundoff of a few eps |O| into each jump; it only
    # shows where the jumps decay far below |O| (dim 2, many protections),
    # and the largest seen in 3,000 draws was 23 eps |O|
    atol = 64 * np.finfo(float).eps * np.linalg.norm(O)
    np.testing.assert_allclose(res.jump_norms, jumps, rtol=1e-12, atol=atol)


def zeno_jumps_extended(initial, n, duration, O):
    """Jump norms of the uncoupled dense loop in long double, each U^k s from exact phases."""
    s = initial.amplitudes.astype(np.clongdouble)
    energies = initial.basis.energies().astype(np.longdouble)
    dt = np.longdouble(duration) / n
    B, eye = np.asarray(O, dtype=np.clongdouble), np.eye(len(s), dtype=np.clongdouble)
    jumps = np.empty(n, dtype=np.longdouble)
    for k in range(n):
        sk = np.exp(-1j * energies * (dt * (k + 1))) * s
        proj = np.outer(sk, sk.conj())
        after = proj @ B @ proj + (eye - proj) @ B @ (eye - proj)
        jumps[k] = np.sqrt(np.sum(np.abs(after - B) ** 2))
        B = after
    return jumps


def test_zeno_jumps_hold_over_long_runs(rng):
    # 4,096 protections at dim 8, past the n <= 16 that the dense-loop property draws.
    # The late jumps fall to 2e-4 of |O|, so an error of a few eps |O| in them is
    # 1e-12 relative: a state stepped by U (modulus drift) was off by 1e-10, and
    # phases from a double argument E k dt (noise of ulp(E T)) by 1.1e-12
    basis = OscillatorBasis(dim=8)
    O = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    for init in (superposition01(basis),
                 StateVector(rng.normal(size=8) + 1j * rng.normal(size=8), basis)):
        jumps = zeno_protect_sim(init, 4096, np.pi, measured=O).jump_norms
        want = zeno_jumps_extended(init, 4096, np.pi, O.entries)
        np.testing.assert_allclose(jumps, want.astype(float), rtol=1e-12, atol=0)


@pytest.mark.parametrize("dim", [16, 32, 64])
@pytest.mark.parametrize("coupling", [0.0, 0.3])
def test_zeno_is_convention_independent(dim, coupling):
    # the zero point multiplies U and every U^k s by a global phase, which no
    # projection sees: survival and jumps agree under both conventions
    runs = []
    for zero_point in (False, True):
        basis = OscillatorBasis(dim=dim, include_zero_point=zero_point)
        P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
        runs.append([zeno_protect_sim(superposition01(basis), n, np.pi, measured=P,
                                      coupling=coupling) for n in (4, 64)])
    for plain, shifted in zip(*runs):
        assert shifted.survival_probability == pytest.approx(plain.survival_probability,
                                                             rel=1e-12, abs=0)
        np.testing.assert_allclose(shifted.jump_norms, plain.jump_norms, rtol=1e-12, atol=0)


@pytest.mark.parametrize("coupling", [0.0, 0.3])
def test_omega_is_a_unit(coupling):
    # omega enters only as omega T and beta omega, so omega = 2 at T, or at beta, is
    # omega = 1 at 2T or 2 beta; the zeno, heisenberg-projector, thermal and ergodic
    # runners build their basis at omega = 1 for that reason
    fast, unit = OscillatorBasis(dim=32, omega=2.0), OscillatorBasis(dim=32)
    np.testing.assert_array_equal(thermal_weights(0.5, fast), thermal_weights(1.0, unit))
    P = projector_matrix(IntervalRegion(1.0, np.inf), unit)
    for n in (4, 64):
        a = zeno_protect_sim(superposition01(fast), n, np.pi / 2, measured=P, coupling=coupling)
        b = zeno_protect_sim(superposition01(unit), n, np.pi, measured=P, coupling=coupling)
        assert a.survival_probability == pytest.approx(b.survival_probability, rel=1e-12, abs=0)
        np.testing.assert_allclose(a.jump_norms, b.jump_norms, rtol=1e-12, atol=0)


def test_zeno_diagonalizes_only_a_coupled_hamiltonian(basis32, tail_projector, monkeypatch):
    # without coupling H is diagonal, and its energies and the identity are its eigenpairs
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda H: calls.append(H.shape) or eigh(H))
    init = superposition01(basis32)
    zeno_protect_sim(init, 8, np.pi, measured=tail_projector)
    assert calls == []
    zeno_protect_sim(init, 8, np.pi, measured=tail_projector, coupling=0.3)
    assert calls == [(32, 32)]


def test_zeno_refuses_a_non_hermitian_operator(basis32, rng):
    # the loop writes each update as s_k a^dag + a s_k^dag, which holds for a
    # Hermitian operator only, and eigh would read only the lower triangle of
    # a coupled H + (coupling / T) O
    init = superposition01(basis32)
    O = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    for coupling in (0.0, 0.3):
        with pytest.raises(ValueError, match="operator is not Hermitian"):
            zeno_protect_sim(init, 4, np.pi, measured=O, coupling=coupling)


@pytest.mark.parametrize("coupling, duration", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
                                               (1e10, 1e-300)])
def test_zeno_refuses_a_non_finite_coupling_rate(basis32, tail_projector, monkeypatch,
                                                 coupling, duration):
    # refused before H is formed: nan reached eigh's LinAlgError, -inf and an
    # overflowing 1e10 / 1e-300 a RuntimeWarning
    monkeypatch.setattr(simulation, "hamiltonian", None)
    named = re.escape(f"is not finite at coupling={coupling:g}, duration={duration:g}")
    with pytest.raises(ValueError, match=f"^the coupling rate coupling/duration=\\S+ {named}$"):
        zeno_protect_sim(superposition01(basis32), 4, duration, tail_projector, coupling)


def test_zeno_checks_no_projector_matrix(basis32, tail_projector, monkeypatch):
    # a ProjectorMatrix is exactly symmetric as built, so run_zeno pays no check
    monkeypatch.setattr(weak, "hermitian_defect", None)
    init = superposition01(basis32)
    for coupling in (0.0, 0.3):
        assert zeno_protect_sim(init, 4, np.pi, tail_projector, coupling).jump_norms.shape == (4,)


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
    plain = zeno_protect_sim(init, 32, np.pi, measured=tail_projector).survival_probability
    coupled = zeno_protect_sim(init, 32, np.pi, measured=tail_projector,
                               coupling=0.3).survival_probability
    assert 0.0 < coupled <= 1.0 + 1e-12
    assert abs(coupled - plain) < 0.05   # weak coupling barely disturbs


def test_zeno_validation(basis32, tail_projector):
    init = superposition01(basis32)
    with pytest.raises(ValueError):
        zeno_protect_sim(init, 0, 1.0, measured=tail_projector)
    with pytest.raises(TypeError):
        zeno_protect_sim(init, 4, 1.0, coupling=0.5)   # the operator is not optional
    for duration in (0.0, -3.0):
        with pytest.raises(ValueError):
            zeno_protect_sim(init, 4, duration, measured=tail_projector, coupling=0.3)
    # E_max * T = 31e308 overflows, without a RuntimeWarning on the way
    with pytest.raises(ValueError, match="overflows"):
        zeno_protect_sim(init, 4, 1e308, measured=tail_projector)
    # E_max * dt = 31 * 2.5e306 is finite, but the last protection's phases reach E_max * T
    with pytest.raises(ValueError, match="overflows"):
        zeno_protect_sim(init, 4, 1e307, measured=tail_projector)
