"""Experiment runner: declarative configs in, CSV tables and SVG plots out.

Usage:  protmeas <experiment> [--config file.json] [--param value ...] --out DIR

Flags override config-file values.  Outputs are deterministic for a fixed
config and seed: CSV files are written atomically and SVG plots carry no
timestamps or environment-dependent bytes.  Exit codes: 0 ok, 2 usage,
3 numerical failure, 4 I/O failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import ergodicity, simulation, twostate
from .errors import NumericalError, ProtmeasError, UsageError
from .oscillator import OscillatorBasis, StateVector, coherent_state, number_state
from .projectors import (IntervalRegion, bin_regions, heisenberg_projector,
                         projector_matrix, time_averaged_projector)
from .svgplot import emit_plot
from .tables import ResultTable
from .weak import (MeasurementSchedule, closed_form_pvi_weak, expectation,
                   pointer_trace, weak_value_series)

EXPERIMENT_NAMES = ("sketch", "pointer-trace", "heisenberg-projector", "bipartite",
                    "zeno", "thermal", "two-state", "ergodic", "correspondence")

# every tunable: name -> (type, default); experiments pick the ones they use
PARAMS = {
    "dim": (int, 64),
    "omega": (float, 1.0),
    "zero_point": (bool, False),
    "alpha": (float, 2.5),
    "alpha2": (float, None),
    "delta": (float, 0.0),
    "x0": (float, 1.0),
    "w": (float, 0.05),
    "T": (float, 100.0),
    "ramp": (float, 0.05),
    "steps": (int, 4096),
    "beta": (float, 1.0),
    "n": (int, 0),
    "a": (float, 1.0),
    "b": (float, float("inf")),
    "L": (float, 4.0),
    "bin_width": (float, 0.1),
    "max_index": (int, 20),
    "n_list": (str, "4,8,16,32,64,128,256"),
    "coupling": (float, 0.0),
    "t": (float, 0.0),
    "seed": (int, None),
    "amplitude": (float, 1.0),
    "n_samples": (int, 100_001),
    "periods": (int, 1000),
    "ensemble_n": (int, 100_000),
    "pointer_points": (int, 512),
    "pointer_sigma": (float, 10.0),
    "shift_tol": (float, 1e-4),
}

# experiment-specific defaults layered over the global ones
EXPERIMENT_DEFAULTS = {
    "ergodic": {"a": 0.5, "b": 1.0},
    "zeno": {"n": 1},
    "correspondence": {"n": 50, "a": 2.0, "b": 4.0, "dim": 128},
}


def _basis(p) -> OscillatorBasis:
    return OscillatorBasis(dim=p["dim"], omega=p["omega"],
                           include_zero_point=p["zero_point"])


def _region(p) -> IntervalRegion:
    try:
        return IntervalRegion(p["a"], p["b"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require(cond: bool, message: str):
    if not cond:
        raise UsageError(message)


def run_sketch(p):
    basis = _basis(p)
    _require(p["bin_width"] > 0, "bin_width must be positive")
    _require(p["L"] > 0, "L must be positive")
    state = coherent_state(basis, p["alpha"]) if p.get("use_alpha") else number_state(basis, p["n"])
    table = ResultTable(["bin_center", "probability"], ["", ""])
    for region in bin_regions(p["bin_width"], p["L"]):
        prob = expectation(projector_matrix(region, basis), state)
        table.add_row(0.5 * (region.lower + region.upper), prob)
    return table, [("sketch.svg", "bin_center", ["probability"], ["|psi|^2 per bin"],
                    "wavefunction sketch")]


def run_pointer_trace(p):
    basis = _basis(p)
    _require(p["w"] > 0, "interval width w must be positive")
    schedule = MeasurementSchedule(p["T"], p["ramp"], p["steps"])
    region = IntervalRegion(p["x0"] - p["w"] / 2, p["x0"] + p["w"] / 2)
    P = projector_matrix(region, basis)
    pre = number_state(basis, 0)

    trivial = pointer_trace(schedule, pre, P)
    post = coherent_state(basis, p["alpha"] * np.exp(1j * p["delta"])).dual()
    sel = pointer_trace(schedule, pre, P, post)

    cols = ["t", "reading_trivial", "reading_alpha", "wv_re_alpha", "closed_form"]
    units = ["s", "", "", "", ""]
    closed = closed_form_pvi_weak(abs(p["alpha"]), p["delta"], p["x0"], p["omega"],
                                  p["T"], schedule.times)
    series = [trivial.readings, sel.readings, sel.values, closed * p["w"]]
    plots = [("fig1.svg", "t", ["reading_alpha", "reading_trivial"],
              ["alpha post-selection", "trivial post-selection"],
              "pointer readings")]
    if p["alpha2"] is not None:
        post2 = coherent_state(basis, p["alpha2"] * np.exp(1j * p["delta"])).dual()
        sel2 = pointer_trace(schedule, pre, P, post2)
        cols += ["reading_alpha2", "wv_re_alpha2"]
        units += ["", ""]
        series += [sel2.readings, sel2.values]
        plots.append(("fig2.svg", "t", ["wv_re_alpha", "wv_re_alpha2"],
                      [f"alpha={p['alpha']:g}", f"alpha={p['alpha2']:g}"],
                      "weak value comparison"))
    table = ResultTable(cols, units)
    for i, t in enumerate(schedule.times):
        table.add_row(t, *[s[i] for s in series])

    gap = abs(sel.final_reading - trivial.final_reading) / max(abs(trivial.final_reading), 1e-300)
    print(f"final_trivial={trivial.final_reading!r}")
    print(f"final_alpha={sel.final_reading!r}")
    print(f"relative_gap={gap!r}")
    if sel.any_flagged:
        print(f"flagged_points={int(np.count_nonzero(sel.flagged))}")
    return table, plots


def run_heisenberg(p):
    basis = _basis(p)
    region = _region(p)
    _require(p["T"] > 0, "averaging window T must be positive")
    k = min(p["max_index"], basis.dim)
    P = projector_matrix(region, basis)
    Pt = heisenberg_projector(P, p["t"])
    avg = time_averaged_projector(P, p["T"])
    table = ResultTable(
        ["m", "n", "p_re", "p_im", "heis_re", "heis_im", "avg_re", "avg_im", "bound"],
        ["", "", "", "", "", "", "", "", ""], int_columns=frozenset(["m", "n"]))
    for m in range(k):
        for n in range(k):
            bound = (2.0 * abs(P.entries[m, n]) / (abs(m - n) * basis.omega * p["T"])
                     if m != n else abs(P.entries[m, n]))
            table.add_row(m, n, P.entries[m, n].real, P.entries[m, n].imag,
                          Pt[m, n].real, Pt[m, n].imag,
                          avg[m, n].real, avg[m, n].imag, bound)
    return table, []


def run_bipartite(p):
    basis = _basis(p)
    region = _region(p)
    schedule = MeasurementSchedule(p["T"], p["ramp"], p["steps"])
    P = projector_matrix(region, basis)
    grid = simulation.PointerGrid(points=p["pointer_points"], sigma=p["pointer_sigma"])
    result = simulation.bipartite_protective_sim(
        P, schedule, grid=grid, steps=p["steps"], shift_tol=p["shift_tol"])
    ref = expectation(P, number_state(basis, 0))
    table = ResultTable(
        ["T", "pointer_shift", "energy_shift_per_p", "survival", "steps_used",
         "expectation_P"],
        ["s", "", "1/s", "", "", ""], int_columns=frozenset(["steps_used"]))
    table.add_row(p["T"], result.pointer_shift, result.energy_shift_per_p,
                  result.survival_probability, result.steps_used, ref)
    return table, []


def _parse_n_list(raw) -> list:
    if isinstance(raw, (list, tuple)):
        values = [int(v) for v in raw]
    else:
        try:
            values = [int(tok) for tok in str(raw).split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"n_list must be comma-separated integers, got {raw!r}") from None
    _require(len(values) > 0 and all(v >= 1 for v in values),
             "n_list must contain positive protection counts")
    return values


def run_zeno(p):
    basis = _basis(p)
    _require(0 < p["n"] < basis.dim, f"n={p['n']} must satisfy 0 < n < dim")
    amps = np.zeros(basis.dim, dtype=complex)
    amps[0] = amps[p["n"]] = 1.0  # superposition of |0> and |n>
    initial = StateVector(amps, basis)
    P = projector_matrix(_region(p), basis)
    table = ResultTable(["n_protections", "survival", "max_op_jump"], ["", "", ""],
                        int_columns=frozenset(["n_protections"]))
    for count in _parse_n_list(p["n_list"]):
        res = simulation.zeno_protect_sim(initial, count, p["T"], measured=P,
                                          coupling=p["coupling"])
        jump = max((s.jump_norm for s in res.snapshots), default=0.0)
        table.add_row(count, res.survival_probability, jump)
    return table, [("zeno.svg", "n_protections", ["survival"], ["survival"],
                    "Zeno protection")]


def run_thermal(p):
    basis = _basis(p)
    rho = twostate.thermal_density(p["beta"], basis)
    pure = twostate.thermal_purification(p["beta"], basis)
    table = ResultTable(["n", "weight", "purification_amp"], ["", "", ""],
                        int_columns=frozenset(["n"]))
    for n in range(basis.dim):
        table.add_row(n, rho.entries[n, n].real, pure.amplitudes[n].real)
    return table, [("thermal.svg", "n", ["weight"], ["Boltzmann weight"],
                    "thermal occupation")]


def run_two_state(p):
    basis = _basis(p)
    schedule = MeasurementSchedule(p["T"], p["ramp"], p["steps"])
    region = IntervalRegion(p["x0"] - p["w"] / 2, p["x0"] + p["w"] / 2)
    P = projector_matrix(region, basis)
    pre = number_state(basis, 0)
    post = coherent_state(basis, p["alpha"] * np.exp(1j * p["delta"])).dual()
    table = ResultTable(
        ["t", "wv_direct_re", "wv_direct_im", "wv_trace_re", "wv_trace_im",
         "herm_defect"],
        ["s", "", "", "", "", ""])
    direct, _ = weak_value_series(P, pre, post, schedule.times, p["T"])
    for t, d in zip(schedule.times, direct):
        rho = twostate.two_state_density(pre, post, float(t), p["T"])
        traced = twostate.weak_value_from_density(P, rho)
        table.add_row(t, d.real, d.imag, traced.real, traced.imag,
                      rho.hermiticity_defect())
    return table, [("two_state.svg", "t", ["wv_direct_re"], ["Re weak value"],
                    "two-state weak value")]


def run_ergodic(p):
    _require(p["seed"] is not None,
             "ergodic runs are stochastic: an explicit --seed is mandatory")
    _require(p["n_samples"] >= 1, "n_samples must be >= 1")
    _require(p["ensemble_n"] >= 1, "ensemble_n must be >= 1")
    region = _region(p)
    amplitude = p["amplitude"]
    duration = p["periods"] * 2.0 * np.pi / p["omega"]
    time_avg = ergodicity.classical_time_average(
        amplitude, 0.0, p["omega"], region, duration, p["n_samples"])
    ens = ergodicity.uniform_phase_ensemble(p["ensemble_n"], amplitude, p["omega"],
                                            p["seed"])
    ens_avg = ergodicity.classical_ensemble_average(ens, region, p["t"])
    analytic = ergodicity.classical_dwell_fraction(amplitude, region)
    err_t = ergodicity.sampling_error(time_avg, p["n_samples"])
    err_e = ergodicity.sampling_error(ens_avg, p["ensemble_n"])
    combined = float(np.hypot(err_t, err_e))
    gap_sigmas = abs(time_avg - ens_avg) / combined if combined > 0 else 0.0
    table = ResultTable(
        ["time_average", "ensemble_average", "analytic_fraction",
         "stat_error_time", "stat_error_ensemble", "gap_sigmas"],
        ["", "", "", "", "", ""])
    table.add_row(time_avg, ens_avg, analytic, err_t, err_e, gap_sigmas)
    return table, []


def run_correspondence(p):
    basis = _basis(p)
    region = _region(p)
    report = ergodicity.correspondence_check(
        p["n"], region, basis, n_samples=p["n_samples"], n_periods=p["periods"])
    rel_gap = (abs(report.quantum_fraction - report.analytic_fraction)
               / max(report.analytic_fraction, 1e-300))
    table = ResultTable(
        ["n", "quantum_fraction", "classical_fraction", "time_average", "rel_gap"],
        ["", "", "", "", ""], int_columns=frozenset(["n"]))
    table.add_row(p["n"], report.quantum_fraction, report.analytic_fraction,
                  report.time_average, rel_gap)
    return table, []


RUNNERS = {
    "sketch": run_sketch,
    "pointer-trace": run_pointer_trace,
    "heisenberg-projector": run_heisenberg,
    "bipartite": run_bipartite,
    "zeno": run_zeno,
    "thermal": run_thermal,
    "two-state": run_two_state,
    "ergodic": run_ergodic,
    "correspondence": run_correspondence,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protmeas",
        description="protective-measurement experiments on a harmonic oscillator")
    parser.add_argument("experiment", choices=EXPERIMENT_NAMES)
    parser.add_argument("--config", help="JSON file with parameter values")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--plot", action="store_true", help="also emit SVG plots")
    parser.add_argument("--sweep", default=None, metavar="KEY=V1,V2,...",
                        help="run once per value, each in its own subdirectory")
    for name, (kind, default) in PARAMS.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, dest=name, action="store_const", const=True,
                                default=None)
        else:
            parser.add_argument(flag, dest=name, type=kind, default=None)
    return parser


def merge_params(args: argparse.Namespace):
    params = {name: default for name, (kind, default) in PARAMS.items()}
    params.update(EXPERIMENT_DEFAULTS.get(args.experiment, {}))
    explicit = set()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key in ("experiment", "out", "plot"):
                continue
            if key not in PARAMS:
                raise UsageError(f"unknown config parameter {key!r}")
            kind = PARAMS[key][0]
            if key == "n_list":
                params[key] = value
            else:
                try:
                    params[key] = kind(value) if value is not None else None
                except (TypeError, ValueError):
                    raise UsageError(f"config parameter {key!r}={value!r} is not "
                                     f"a valid {kind.__name__}") from None
            explicit.add(key)
    for name in PARAMS:
        value = getattr(args, name)
        if value is not None:
            params[name] = value
            explicit.add(name)
    params["use_alpha"] = "alpha" in explicit
    return params


def run_single(experiment: str, params: dict, out_dir: str, plot: bool) -> str:
    table, plots = RUNNERS[experiment](params)
    csv_path = os.path.join(out_dir, experiment.replace("-", "_") + ".csv")
    table.write_csv(csv_path)
    written = [csv_path]
    if plot:
        for fname, x, ys, labels, title in plots:
            path = os.path.join(out_dir, fname)
            emit_plot(table, x, ys, path, title=title, labels=labels)
            written.append(path)
    for path in written:
        print(f"wrote {path}")
    return csv_path


def _sweep_values(raw: str):
    if "=" not in raw:
        raise UsageError("--sweep expects KEY=V1,V2,...")
    key, _, tail = raw.partition("=")
    key = key.strip()
    if key not in PARAMS or key == "n_list":
        raise UsageError(f"cannot sweep over {key!r}")
    kind = PARAMS[key][0]
    try:
        values = [kind(tok) for tok in tail.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"sweep values for {key!r} must parse as {kind.__name__}") from None
    if not values:
        raise UsageError("sweep needs at least one value")
    return key, values


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = merge_params(args)
        if args.sweep:
            key, values = _sweep_values(args.sweep)
            for value in values:
                sub = dict(params)
                sub[key] = value
                if key == "alpha":
                    sub["use_alpha"] = True
                sub_dir = os.path.join(args.out, f"{key}={value:g}"
                                       if isinstance(value, float) else f"{key}={value}")
                run_single(args.experiment, sub, sub_dir, args.plot)
        else:
            run_single(args.experiment, params, args.out, args.plot)
    except UsageError as exc:
        print(f"usage error ({args.experiment}): {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"usage error ({args.experiment}): {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure ({args.experiment}): {exc}", file=sys.stderr)
        return 3
    except ProtmeasError as exc:
        print(f"error ({args.experiment}): {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O failure ({args.experiment}): {exc}", file=sys.stderr)
        return 4
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
