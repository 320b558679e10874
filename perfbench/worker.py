"""Child process of the benchmark: drives protmeas and reports what it saw.

    worker.py cli --result R.json [--trace] [--env] -- <protmeas arguments>
    worker.py large-dim --result R.json --seed N --seconds S [--trace] [--env]

`cli` runs `protmeas.cli.main` once, as the `protmeas` console script
would, and exits with its return code.  Without `--trace` only
`simulation.bipartite_protective_sim` is wrapped, so that the final norm of
the joint state (which the CSV does not carry) can be checked.  `large-dim`
makes library calls at dim 512 and 1024 in whole passes until `--seconds`
have gone by, timing each pass and checking it afterwards.  Either mode
writes one JSON result file when it ends.
"""

import argparse
import cmath
import ctypes
import glob
import json
import math
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path

import checks
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
CAPTURE_ONLY = {"simulation.bipartite_protective_sim"}

LARGE_DIM = 512
NORM_DIM = 1024
TRACE_STEPS = 16384
CHECK_STEPS = 4096
WINDOW = 100.0
NARROW_WIDTH = 0.05
CORRESPONDENCE_N = 200


def _import_protmeas():
    import protmeas
    import protmeas.cli
    where = Path(protmeas.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"protmeas imported from {where}, not from {ROOT / 'src'}")
    return protmeas


def _blas_threads():
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    """What the run ran on; reads settings and changes none."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    env_keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "PROTMEAS_THREADS", "PYTHONDONTWRITEBYTECODE")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "env": {k: os.environ[k] for k in env_keys if k in os.environ},
    }


def large_dim_inputs(seed):
    """Interval centre, coherent pre/post amplitudes and a dwell interval."""
    rng = random.Random(seed)
    inp = {"x0": rng.uniform(0.5, 1.5),
           "pre": rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.random()),
           "post": rng.uniform(1.0, 2.0) * cmath.exp(2j * math.pi * rng.random()),
           "a": rng.uniform(2.0, 6.0)}
    inp["b"] = inp["a"] + rng.uniform(2.0, 4.0)
    return inp


def large_dim_pass(pm, inp):
    """One round of library calls; returns the outputs the checks need."""
    import numpy as np
    basis = pm.OscillatorBasis(dim=LARGE_DIM)
    lo, hi = inp["x0"] - NARROW_WIDTH / 2, inp["x0"] + NARROW_WIDTH / 2
    regions = [pm.IntervalRegion(-math.inf, lo), pm.IntervalRegion(lo, hi),
               pm.IntervalRegion(hi, math.inf)]
    projectors = [pm.projector_matrix(r, basis) for r in regions]

    schedule = pm.MeasurementSchedule(WINDOW, 0.05, TRACE_STEPS)
    pre = pm.coherent_state(basis, inp["pre"])
    post = pm.coherent_state(basis, inp["post"]).dual()
    traces = [pm.pointer_trace(schedule, pre, P, post) for P in projectors]

    short = pm.MeasurementSchedule(WINDOW, 0.05, CHECK_STEPS)
    evolved = pm.evolve(pre, WINDOW).dual()
    weak = pm.pointer_trace(short, pre, projectors[1], evolved)
    expect = pm.pointer_trace(short, pre, projectors[1])

    report = pm.correspondence_check(CORRESPONDENCE_N, pm.IntervalRegion(inp["a"], inp["b"]),
                                     basis)

    top = pm.number_state(pm.OscillatorBasis(dim=NORM_DIM), NORM_DIM - 1)
    x = np.linspace(-50.0, 50.0, 10001)
    density = sum(float(np.sum(np.abs(pm.position_wavefunction(top, chunk)) ** 2))
                  for chunk in np.array_split(x, 4))
    return {"projectors": [P.entries for P in projectors],
            "trace_values": [t.values for t in traces],
            "flagged": sum(int(np.count_nonzero(t.flagged)) for t in traces),
            "weak": (weak.values, weak.readings), "expect": (expect.values, expect.readings),
            "report": report, "norm_integral": density * (x[1] - x[0])}


def check_large_dim(out, inp):
    """(failures, failed operations, diagnostics, attempted) for one pass."""
    failures = checks.check_identity(out["projectors"])
    failures += checks.check_sum_rule(out["trace_values"])
    if out["flagged"]:
        failures.append(f"{out['flagged']} trace points fell below the overlap floor")
    failures += checks.check_weak_equals_expectation(out["weak"][0], out["expect"][0])
    failures += checks.check_weak_equals_expectation(out["weak"][1], out["expect"][1])
    amplitude = math.sqrt(2.0 * CORRESPONDENCE_N + 1.0)
    report = out["report"]
    failures += checks.check_fraction("correspondence classical fraction",
                                      report.analytic_fraction, amplitude, inp["a"], inp["b"])
    failures += checks.check_sampled_fraction("correspondence time average",
                                              report.time_average, amplitude,
                                              inp["a"], inp["b"], 200_001)
    failed = [f"{f} (oscillator.hermite_functions seeds its recurrence with "
              f"exp(-x^2/2), which underflows to 0 beyond |x| = 38.6)"
              for f in checks.check_normalization(f"integral of |phi_{NORM_DIM - 1}|^2",
                                                  out["norm_integral"])]
    diag = {"identity_defect": checks.identity_defect(out["projectors"]),
            "sum_rule_err": checks.sum_rule_error(out["trace_values"]),
            "norm_integral": out["norm_integral"]}
    # 3 projector builds, 3 traces, the weak/expectation pair, the
    # correspondence check and the |1023> normalization
    return failures, failed, diag, 9


def run_large_dim(args, result):
    pm = _import_protmeas()
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
        result["spans"] = tr.spans
    inp = large_dim_inputs(args.seed)
    passes = result["passes"] = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.monotonic()
        out = large_dim_pass(pm, inp)
        wall = time.monotonic() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        failures, failed, diag, attempted = check_large_dim(out, inp)
        del out
        passes.append({
            "wall": wall,
            "cpu": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            "attempted": attempted, "failed": failed, "failures": failures, "diag": diag})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0


def run_cli(args, result):
    pm = _import_protmeas()
    tr = tracing.Tracer()
    tracing.install(tr, only=None if args.trace else CAPTURE_ONLY)
    result["spans"] = tr.spans
    rc = pm.cli.main(args.argv)
    result["rc"] = rc
    return rc


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("mode", choices=("cli", "large-dim"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    own = sys.argv[1:]
    cut = own.index("--") if "--" in own else len(own)
    args = parser.parse_args(own[:cut])
    args.argv = own[cut + 1:]
    result = {}
    try:
        rc = (run_cli if args.mode == "cli" else run_large_dim)(args, result)
    finally:
        if args.env:
            result["env"] = environment()
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
