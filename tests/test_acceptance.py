"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest
from scipy.signal import find_peaks

from protmeas import (IntervalRegion, MeasurementSchedule, OscillatorBasis,
                      coherent_state, evolve, expectation, hamiltonian,
                      number_state, pointer_trace, projector_matrix,
                      thermal_purification, thermal_weights, weak_value_series,
                      bipartite_protective_sim, zeno_protect_sim,
                      classical_time_average, classical_dwell_fraction,
                      classical_ensemble_average, correspondence_check, StateVector)
from protmeas.ergodicity import sampling_error
from protmeas.weak import closed_form_pvi_weak

from conftest import edge_regions, random_hermitian, random_state
from dense_two_state import two_state_density, von_neumann_residual, weak_value_from_density

HALF_TAIL = 0.07864960352514258    # erfc(1)/2
OMEGA, T_FIG, X0, ALPHA, WIDTH = 1.0, 100.0, 1.0, 2.5, 0.05


def report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def fig1():
    """Fig. 1 setup: traces for trivial and alpha post-selection, timed."""
    start = time.monotonic()
    basis = OscillatorBasis(dim=64, omega=OMEGA)
    schedule = MeasurementSchedule(T_FIG, ramp_fraction=0.05, steps=4096)
    P = projector_matrix(IntervalRegion(X0 - WIDTH / 2, X0 + WIDTH / 2), basis)
    pre = number_state(basis, 0)
    post = coherent_state(basis, ALPHA).dual()
    trivial = pointer_trace(schedule, pre, P)
    selected = pointer_trace(schedule, pre, P, post)
    elapsed = time.monotonic() - start
    return dict(basis=basis, schedule=schedule, P=P, pre=pre, post=post,
                trivial=trivial, selected=selected, elapsed=elapsed)


def test_criterion_1_fig1_shape(fig1):
    trace = fig1["trivial"]
    t = trace.times
    plateau = (t >= 0.05 * T_FIG) & (t <= 0.95 * T_FIG)   # exclude ramp windows
    coeff = np.polyfit(t[plateau], trace.readings[plateau], 1)
    deviation = np.max(np.abs(trace.readings[plateau] - np.polyval(coeff, t[plateau])))
    linear_ok = deviation < 0.01 * abs(trace.final_reading)

    sel = fig1["selected"]
    ripple = sel.readings[plateau]
    drift = np.polyval(np.polyfit(t[plateau], ripple, 1), t[plateau])
    detrended = ripple - drift
    peaks, _ = find_peaks(detrended,
                          prominence=0.25 * (detrended.max() - detrended.min()))
    spacings = np.diff(t[plateau][peaks])
    period = float(np.mean(spacings))
    target = 2.0 * np.pi / OMEGA
    period_ok = abs(period - target) / target < 0.02
    runtime_ok = fig1["elapsed"] < 10.0
    report(1, linear_ok and period_ok and runtime_ok,
           f"trivial deviation {deviation:.2e} (<1% of {trace.final_reading:.4g}), "
           f"alpha period {period:.4f} vs {target:.4f}, "
           f"runtime {fig1['elapsed']:.2f}s < 10s")


def test_criterion_2_fig2_amplitude_ordering(fig1):
    times = fig1["schedule"].times
    amplitudes = {}
    for alpha in (2.5, 1.0):
        post = coherent_state(fig1["basis"], alpha).dual()
        wv = weak_value_series(fig1["P"], fig1["pre"], post, times, T_FIG)
        amplitudes[alpha] = 0.5 * (wv.real.max() - wv.real.min())
    report(2, amplitudes[2.5] > amplitudes[1.0],
           f"oscillation amplitude alpha=2.5: {amplitudes[2.5]:.4g} > "
           f"alpha=1: {amplitudes[1.0]:.4g}")


def test_criterion_3_fig3_distance_ordering(fig1):
    finals = {}
    for x0 in (1.0, 1.5):
        P = projector_matrix(IntervalRegion(x0 - WIDTH / 2, x0 + WIDTH / 2),
                             fig1["basis"])
        finals[x0] = pointer_trace(fig1["schedule"], fig1["pre"], P,
                                   fig1["post"]).final_reading
    report(3, finals[1.5] < finals[1.0],
           f"final reading x0=1.5: {finals[1.5]:.4g} < x0=1: {finals[1.0]:.4g}")


def test_criterion_4_closed_form_vs_exact(fig1):
    times = np.linspace(0.0, T_FIG, 20001)
    worst_overall = 0.0
    for w in (0.05, 0.02):
        P = projector_matrix(IntervalRegion(X0 - w / 2, X0 + w / 2), fig1["basis"])
        wv = weak_value_series(P, fig1["pre"], fig1["post"], times, T_FIG)
        exact = np.abs(wv.real) / w
        closed = np.abs(closed_form_pvi_weak(ALPHA, 0.0, X0, OMEGA, T_FIG, times))
        ipk_e, _ = find_peaks(exact)
        ipk_c, _ = find_peaks(closed)
        top = ipk_e[np.argsort(exact[ipk_e])[-10:]]
        # the closed form carries a fixed phase-convention offset, so peaks
        # are matched by time and compared in magnitude
        worst = max(
            abs(closed[ipk_c[np.argmin(np.abs(times[ipk_c] - times[i]))]] - exact[i])
            / exact[i]
            for i in top)
        worst_overall = max(worst_overall, worst)
    report(4, worst_overall <= 0.10,
           f"worst relative peak mismatch {worst_overall:.3f} <= 0.10 for w in (0.05, 0.02)")


def test_criterion_5_protective_limit():
    basis = OscillatorBasis(dim=32)
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    results, runtimes = {}, {}
    for T in (20.0, 40.0):
        start = time.monotonic()
        results[T] = bipartite_protective_sim(P, MeasurementSchedule(T), steps=1024)
        runtimes[T] = time.monotonic() - start
    res = results[20.0]
    shift_ok = abs(res.pointer_shift - HALF_TAIL) / HALF_TAIL < 0.05
    survival_ok = res.survival_probability >= 0.99
    ratio = results[20.0].energy_shift_per_p / results[40.0].energy_shift_per_p
    scaling_ok = abs(ratio - 2.0) < 0.2
    runtime_ok = all(v < 120.0 for v in runtimes.values())
    report(5, shift_ok and survival_ok and scaling_ok and runtime_ok,
           f"shift {res.pointer_shift:.6f} vs {HALF_TAIL:.6f}, "
           f"survival {res.survival_probability:.4f}, energy T-scaling ratio "
           f"{ratio:.3f}, runtimes {max(runtimes.values()):.1f}s < 120s")


def test_criterion_6_dephasing_bound():
    basis = OscillatorBasis(dim=32)
    from protmeas import time_averaged_projector
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    worst_margin = np.inf
    ok = True
    for T in (10.0, 100.0):
        avg = time_averaged_projector(P, T)
        for m in range(20):
            for n in range(20):
                if m == n:
                    continue
                bound = 2.0 * abs(P.entries[m, n]) / (abs(m - n) * basis.omega * T)
                ok = ok and abs(avg[m, n]) <= bound + 1e-15
                if bound > 0:
                    worst_margin = min(worst_margin, bound - abs(avg[m, n]))
    report(6, ok, f"all off-diagonals within 2|P_mn|/(|m-n| w T); "
                  f"smallest margin {worst_margin:.2e}")


def test_criterion_7_weak_value_identities(basis, rng):
    T = 9.0
    worst_identity = 0.0
    for _ in range(100):
        A = random_hermitian(rng, basis.dim)
        pre = random_state(rng, basis)
        post = random_state(rng, basis).dual()
        t = float(rng.uniform(0, T))
        direct = weak_value_series(A, pre, post, [t], T)[0]
        traced = weak_value_from_density(A, two_state_density(pre, post, t, T))
        worst_identity = max(worst_identity,
                             abs(direct - traced) / (1.0 + abs(direct)))
    identity_ok = worst_identity <= 1e-12

    worst_trivial = 0.0
    for _ in range(20):
        A = random_hermitian(rng, basis.dim)
        pre = random_state(rng, basis)
        t = float(rng.uniform(0, T))
        wv = weak_value_series(A, pre, evolve(pre, T).dual(), [t], T)[0]
        worst_trivial = max(worst_trivial,
                            abs(wv - expectation(A, evolve(pre, t))))
    trivial_ok = worst_trivial <= 1e-10

    pre = number_state(basis, 0)
    post = coherent_state(basis, 2.5).dual()
    regions = ([IntervalRegion(-np.inf, -6.0)] + edge_regions(0.25, 6.0)
               + [IntervalRegion(6.0, np.inf)])
    times = np.linspace(0.0, 100.0, 11)
    total = np.zeros(times.size, dtype=complex)
    for region in regions:
        P = projector_matrix(region, basis)
        total += weak_value_series(P, pre, post, times, 100.0)
    sum_rule_ok = float(np.max(np.abs(total - 1.0))) <= 1e-8
    report(7, identity_ok and trivial_ok and sum_rule_ok,
           f"trace-vs-direct {worst_identity:.2e} <= 1e-12, trivial "
           f"{worst_trivial:.2e} <= 1e-10, sum rule "
           f"{float(np.max(np.abs(total - 1.0))):.2e} <= 1e-8")


def test_criterion_8_von_neumann_second_order(basis, rng):
    H = hamiltonian(basis)
    pre = random_state(rng, basis)
    post = random_state(rng, basis).dual()
    # keep dt * max|E_m - E_n| small so the ladder sits in the O(dt^2) regime
    dts = [0.004 / 2 ** k for k in range(5)]
    residuals = [von_neumann_residual(pre, post, H, 3.0, dt, duration=10.0)
                 for dt in dts]
    ratios = [b / a for a, b in zip(residuals, residuals[1:])]
    ok = all(abs(r - 0.25) <= 0.05 for r in ratios)
    report(8, ok, "halving ratios " + ", ".join(f"{r:.3f}" for r in ratios)
           + " all within 0.25 +/- 0.05")


def test_criterion_9_thermal(basis, rng):
    # <n> = 1/(e^{beta omega} - 1) of the untruncated oscillator, at two temperatures
    mean_err = {beta: abs(float(np.sum(np.arange(basis.dim) * thermal_weights(beta, basis)))
                          - 1.0 / np.expm1(beta * basis.omega))
                for beta in (1.0, 0.5)}
    mean_ok = all(err <= 1e-8 for err in mean_err.values())

    weights = thermal_weights(1.0, basis)
    pure = thermal_purification(1.0, basis)
    worst = 0.0
    for _ in range(20):
        a = rng.normal(size=basis.dim)
        worst = max(worst, abs(expectation(np.diag(a).astype(complex), pure)
                               - float(np.sum(a * weights))))
    purification_ok = worst <= 1e-10
    report(9, mean_ok and purification_ok,
           f"<n> at beta=1 off 1/(e-1) by {mean_err[1.0]:.2e} <= 1e-8, "
           f"<n> at beta=0.5 off 1/(e^0.5-1) by {mean_err[0.5]:.2e} <= 1e-8, "
           f"purification gap on diagonal observables {worst:.2e} <= 1e-10")


def test_criterion_10_ergodicity():
    start = time.monotonic()
    region = IntervalRegion(0.5, 1.0)
    n_time, n_ens = 100_001, 100_000
    t_avg = classical_time_average(1.0, 1.0, region, 1000 * 2 * np.pi, n_time)
    e_avg = classical_ensemble_average(n_ens, 1.0, 20260809, region, 0.0)
    err_t = sampling_error(t_avg, n_time)
    err_e = sampling_error(e_avg, n_ens)
    agree_ok = abs(t_avg - e_avg) <= 3.0 * np.hypot(err_t, err_e)
    target = classical_dwell_fraction(1.0, region)
    arcsin_ok = (abs(t_avg - target) <= 3.0 * err_t
                 and abs(e_avg - target) <= 3.0 * err_e
                 and target == pytest.approx(1.0 / 3.0, abs=1e-15))

    rep = correspondence_check(50, IntervalRegion(2.0, 4.0), OscillatorBasis(dim=128))
    corr_gap = abs(rep.quantum_fraction - rep.analytic_fraction) / rep.analytic_fraction
    corr_ok = corr_gap <= 0.05
    elapsed = time.monotonic() - start
    report(10, agree_ok and arcsin_ok and corr_ok and elapsed < 30.0,
           f"time {t_avg:.5f} vs ensemble {e_avg:.5f} (3 sigma), arcsin 1/3 ok, "
           f"correspondence gap {corr_gap:.3f} <= 0.05, runtime {elapsed:.1f}s < 30s")


def test_criterion_11_zeno_protection():
    basis = OscillatorBasis(dim=16)
    amps = np.zeros(16, dtype=complex)
    amps[0] = amps[1] = 1.0
    init = StateVector(amps, basis)
    P = projector_matrix(IntervalRegion(1.0, np.inf), basis)
    T = np.pi / basis.omega
    survivals = [zeno_protect_sim(init, n, T, P).survival_probability
                 for n in (4, 8, 16, 32, 64, 128, 256)]
    monotone = all(b >= a for a, b in zip(survivals, survivals[1:]))
    final_ok = survivals[-1] > 0.99
    report(11, monotone and final_ok,
           "survivals " + ", ".join(f"{s:.4f}" for s in survivals)
           + f"; monotone={monotone}, final {survivals[-1]:.4f} > 0.99")
