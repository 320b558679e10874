"""Self-test of the benchmark's output checks.

Each checker must accept an output built from its own reference and reject
the same output perturbed just past its tolerance, so that no check passes
vacuously.  Runs at the start of every benchmark run, and on its own:

    python3 perfbench/selftest.py
"""

import math
import sys

import checks as c


def _rows(**columns):
    names = list(columns)
    return [dict(zip(names, vals)) for vals in zip(*columns.values())]


def _cases():
    """(label, good call, perturbed call); calls return failure lists."""
    x0, w = 1.0, 0.05
    trivial = c.interval_probability_ground(x0 - w / 2, x0 + w / 2)

    centers = [-0.05, 0.05, 0.15]
    probs = [c.interval_probability_ground(x - 0.05, x + 0.05) for x in centers]
    sketch_bad = probs[:1] + [probs[1] + 3 * c.SKETCH_ATOL] + probs[2:]

    heis = _rows(m=[0, 0], n=[0, 1], avg_re=[0.3, 0.01], avg_im=[0.0, 0.01],
                 bound=[0.3, 0.02])
    heis_bad = [dict(heis[0]), dict(heis[1], avg_re=0.02)]

    beta, dim = 1.0, 8
    z = sum(math.exp(-beta * n) for n in range(dim))
    thermal = _rows(n=list(range(dim)), weight=[math.exp(-beta * n) / z for n in range(dim)])
    thermal_bad = [dict(r) for r in thermal]
    thermal_bad[3]["weight"] *= 1.0 + 10 * c.THERMAL_RTOL
    thermal_short = thermal[:-1]

    two = _rows(t=[0.0, 1.0], wv_direct_re=[0.2, 0.4], wv_direct_im=[-0.3, 0.1],
                wv_trace_re=[0.2, 0.4], wv_trace_im=[-0.3, 0.1])
    two_bad = [dict(two[0]), dict(two[1], wv_trace_im=0.1 + 10 * c.TRACE_FORMULA_TOL)]

    A = math.sqrt(101.0)
    frac = c.dwell_fraction(A, 2.0, 4.0)
    sigma = math.sqrt(frac * (1 - frac) / 100_001)

    survival = [0.5, 0.7, 0.9, 0.95]
    files = {"a.csv": b"x\n1.0\n", "b.svg": b"<svg/>"}

    shift = 0.5 * math.erfc(1.0)
    bip = {20.0: {"pointer_shift": shift, "survival": 0.9999, "energy_shift_per_p": 0.004},
           40.0: {"pointer_shift": shift, "survival": 0.9999, "energy_shift_per_p": 0.002}}

    def bip_with(T, **kw):
        return {**bip, T: dict(bip[T], **kw)}

    return [
        ("trivial reading", c.check_trivial_reading(trivial, x0, w),
         c.check_trivial_reading(trivial * (1 + 10 * c.TRIVIAL_READING_RTOL), x0, w)),
        ("sketch bins", c.check_sketch(_rows(bin_center=centers, probability=probs), 0.1),
         c.check_sketch(_rows(bin_center=centers, probability=sketch_bad), 0.1)),
        ("heisenberg bound", c.check_heisenberg(heis), c.check_heisenberg(heis_bad)),
        ("heisenberg NaN", [], c.check_heisenberg([dict(heis[1], avg_re=math.nan)])),
        ("thermal weights", c.check_thermal(thermal, beta, dim),
         c.check_thermal(thermal_bad, beta, dim)),
        ("thermal row count", [], c.check_thermal(thermal_short, beta, dim)),
        ("two-state trace formula", c.check_two_state(two), c.check_two_state(two_bad)),
        ("two-state NaN", [], c.check_two_state([dict(two[0], wv_trace_re=math.nan)])),
        ("dwell fraction", c.check_fraction("f", frac, A, 2.0, 4.0),
         c.check_fraction("f", frac + 10 * c.FRACTION_ATOL, A, 2.0, 4.0)),
        ("sampled fraction", c.check_sampled_fraction("f", frac + sigma, A, 2.0, 4.0, 100_001),
         c.check_sampled_fraction("f", frac + 7 * sigma, A, 2.0, 4.0, 100_001)),
        ("zeno monotone", c.check_zeno(survival), c.check_zeno(survival[:2] + [0.69, 0.95])),
        ("zeno NaN", [], c.check_zeno(survival[:2] + [math.nan, 0.95])),
        ("rerun bytes", c.check_identical(files, dict(files)),
         c.check_identical(files, {**files, "a.csv": b"x\n1.1\n"})),
        ("rerun file set", [], c.check_identical(files, {"a.csv": files["a.csv"]})),
        ("bipartite shift", c.check_bipartite(bip, [1.0]),
         c.check_bipartite(bip_with(40.0, pointer_shift=shift * 1.06), [1.0])),
        ("bipartite survival", [],
         c.check_bipartite(bip_with(20.0, survival=0.98), [1.0])),
        ("bipartite dE ratio", [],
         c.check_bipartite(bip_with(40.0, energy_shift_per_p=0.002 * 1.02), [1.0])),
        ("bipartite norm", [], c.check_bipartite(bip, [1.0, 1.0 + 10 * c.NORM_TOL])),
        ("bipartite norm captured", [], c.check_bipartite(bip, [])),
        ("normalization", c.check_normalization("n", 1.0),
         c.check_normalization("n", 1.0 - 10 * c.NORMALIZATION_TOL)),
    ] + _array_cases()


def _array_cases():
    import numpy as np
    dim = 6
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    parts = [q[:, :2] @ q[:, :2].T, q[:, 2:3] @ q[:, 2:3].T, q[:, 3:] @ q[:, 3:].T]
    bad_parts = [parts[0], parts[1] + 10 * c.IDENTITY_TOL * np.eye(dim), parts[2]]
    wv = [np.full(5, 0.2 + 0.1j), np.full(5, 0.5 - 0.3j), np.full(5, 0.3 + 0.2j)]
    wv_bad = [wv[0], wv[1] + 10 * c.SUM_RULE_TOL, wv[2]]
    ev = np.linspace(0.1, 0.2, 5)
    return [
        ("projector identity", c.check_identity(parts), c.check_identity(bad_parts)),
        ("weak-value sum rule", c.check_sum_rule(wv), c.check_sum_rule(wv_bad)),
        ("weak value = expectation", c.check_weak_equals_expectation(ev, ev.copy()),
         c.check_weak_equals_expectation(ev + 10 * c.WEAK_EXPECTATION_TOL, ev)),
    ]


def run():
    """Messages for every checker that accepts a bad or rejects a good output."""
    broken = []
    for label, good, bad in _cases():
        if good:
            broken.append(f"{label}: rejects its own reference ({good[0]})")
        if not bad:
            broken.append(f"{label}: accepts an output perturbed past its tolerance")
    return broken


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print(p)
    print(f"{len(_cases())} checker cases, {len(problems)} broken")
    sys.exit(1 if problems else 0)
