"""Output checks against references computed apart from protmeas.

Every checker returns a list of failure messages; an empty list is a pass.
Comparisons are written so that a NaN fails them.
The references are closed forms evaluated with the standard library's
`math` (erf, erfc, asin, exp) or properties the method must have (sum
rules, bounds, monotonicity, byte-identical reruns).  None of them compares
against a stored copy of an earlier output.  The large-dim checkers take
numpy arrays; everything else takes plain floats.
"""

import csv
import io
import math

TRIVIAL_READING_RTOL = 1e-7     # trapezoid rule on the smooth coupling profile
SKETCH_ATOL = 1e-12
BOUND_RTOL = 1e-9
THERMAL_RTOL = 1e-12
TRACE_FORMULA_TOL = 1e-10
FRACTION_ATOL = 1e-12
SAMPLED_SIGMAS = 6.0
SHIFT_RTOL = 0.05
SURVIVAL_MIN = 0.99
DE_RATIO_TOL = 0.01
NORM_TOL = 1e-9
IDENTITY_TOL = 1e-8
SUM_RULE_TOL = 1e-8
WEAK_EXPECTATION_TOL = 1e-10
NORMALIZATION_TOL = 1e-6


def read_csv(data):
    """CSV bytes -> list of {column: float}; unit suffixes are dropped."""
    rows = list(csv.reader(io.StringIO(data.decode("ascii"))))
    names = [h.split(" [", 1)[0] for h in rows[0]]
    return [dict(zip(names, map(float, r))) for r in rows[1:]]


def interval_probability_ground(a, b):
    """integral_a^b |phi_0(x)|^2 dx = (erf b - erf a) / 2."""
    return 0.5 * (math.erf(b) - math.erf(a))


def dwell_fraction(amplitude, a, b):
    """(asin(b/A) - asin(a/A)) / pi with the interval clipped to [-A, A]."""
    lo, hi = max(a, -amplitude), min(b, amplitude)
    if lo >= hi:
        return 0.0
    return (math.asin(hi / amplitude) - math.asin(lo / amplitude)) / math.pi


def _close(label, got, want, atol=0.0, rtol=0.0):
    if not abs(got - want) <= atol + rtol * abs(want):
        return [f"{label}: got {float(got)!r}, reference {float(want)!r}"]
    return []


def check_trivial_reading(final_reading, x0, w):
    ref = interval_probability_ground(x0 - w / 2, x0 + w / 2)
    return _close(f"trivial final reading at x0={x0:g}", final_reading, ref,
                  rtol=TRIVIAL_READING_RTOL)


def check_sketch(rows, bin_width):
    out = []
    for r in rows:
        c = r["bin_center"]
        ref = interval_probability_ground(c - bin_width / 2, c + bin_width / 2)
        out += _close(f"sketch bin at {c:g}", r["probability"], ref, atol=SKETCH_ATOL)
    return out


def check_heisenberg(rows):
    out = []
    for r in rows:
        avg = math.hypot(r["avg_re"], r["avg_im"])
        if not avg <= r["bound"] * (1.0 + BOUND_RTOL):
            out.append(f"time-averaged entry ({r['m']:g},{r['n']:g}) = {avg!r} "
                       f"exceeds its bound {r['bound']!r}")
    return out


def check_thermal(rows, beta, dim):
    if [r["n"] for r in rows] != list(range(dim)):
        return [f"thermal table does not list n = 0 .. {dim - 1}"]
    z = sum(math.exp(-beta * n) for n in range(dim))
    out = []
    for r in rows:
        ref = math.exp(-beta * r["n"]) / z
        out += _close(f"thermal weight n={r['n']:g}", r["weight"], ref, rtol=THERMAL_RTOL)
    return out


def check_two_state(rows):
    out = []
    for r in rows:
        d = complex(r["wv_direct_re"], r["wv_direct_im"])
        t = complex(r["wv_trace_re"], r["wv_trace_im"])
        if not abs(d - t) <= TRACE_FORMULA_TOL * max(1.0, abs(d)):
            out.append(f"two-state weak value at t={r['t']!r}: direct {d!r} "
                       f"vs trace formula {t!r}")
    return out


def check_fraction(label, value, amplitude, a, b):
    return _close(label, value, dwell_fraction(amplitude, a, b), atol=FRACTION_ATOL)


def check_sampled_fraction(label, value, amplitude, a, b, samples):
    f = dwell_fraction(amplitude, a, b)
    sigma = math.sqrt(max(f * (1.0 - f), 1e-30) / samples)
    return _close(label, value, f, atol=SAMPLED_SIGMAS * sigma)


def check_zeno(survivals):
    out = []
    for i in range(1, len(survivals)):
        if not survivals[i] >= survivals[i - 1]:
            out.append(f"zeno survival fell from {survivals[i - 1]!r} to "
                       f"{survivals[i]!r} as protections grew")
    return out


def check_identical(first, second):
    """Both map output file names to bytes; a rerun must reproduce them."""
    out = []
    for name in sorted(set(first) | set(second)):
        if first.get(name) != second.get(name):
            out.append(f"{name}: bytes differ between two runs of the same command")
    return out


def check_bipartite(by_T, norms):
    """by_T: {T: csv row}; norms: final joint-state norms of every run."""
    out = []
    ref = 0.5 * math.erfc(1.0)  # <0|P_[1,inf)|0>
    for T, r in sorted(by_T.items()):
        out += _close(f"bipartite pointer shift at T={T:g}", r["pointer_shift"], ref,
                      rtol=SHIFT_RTOL)
        if not r["survival"] >= SURVIVAL_MIN:
            out.append(f"bipartite survival {r['survival']!r} at T={T:g} "
                       f"below {SURVIVAL_MIN}")
    if len(by_T) != 2:
        return out + [f"expected two sweep points, got {sorted(by_T)}"]
    (t1, r1), (t2, r2) = sorted(by_T.items())
    ratio = (r1["energy_shift_per_p"] * t1) / (r2["energy_shift_per_p"] * t2)
    out += _close(f"dE*T ratio T={t1:g} over T={t2:g}", ratio, 1.0, atol=DE_RATIO_TOL)
    if not norms:
        out.append("no final norm was captured")
    for n in norms:
        out += _close("bipartite final norm", n, 1.0, atol=NORM_TOL)
    return out


def identity_defect(matrices):
    import numpy as np
    total = sum(np.asarray(m) for m in matrices)
    return float(np.max(np.abs(total - np.eye(total.shape[0]))))


def check_identity(matrices):
    d = identity_defect(matrices)
    return [] if d <= IDENTITY_TOL else [f"projectors sum to I only within {d:.3e}"]


def sum_rule_error(weak_values):
    import numpy as np
    return float(np.max(np.abs(sum(np.asarray(v) for v in weak_values) - 1.0)))


def check_sum_rule(weak_values):
    e = sum_rule_error(weak_values)
    return [] if e <= SUM_RULE_TOL else [f"weak values of P_left+P_narrow+P_right "
                                        f"miss 1 by {e:.3e}"]


def check_weak_equals_expectation(weak, expect):
    import numpy as np
    e = float(np.max(np.abs(np.asarray(weak) - np.asarray(expect))))
    return [] if e <= WEAK_EXPECTATION_TOL else [
        f"weak value with post-selection on the evolved pre-selected state "
        f"differs from the expectation value by {e:.3e}"]


def check_normalization(label, integral):
    return _close(label, integral, 1.0, atol=NORMALIZATION_TOL)
