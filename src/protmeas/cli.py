"""Experiment runner: declarative configs in, CSV tables and SVG plots out.

Usage:  protmeas <experiment> [--config file.json] [--param value ...] --out DIR

A runner's keyword-only signature lists the parameters its experiment
takes, with any default that differs from PARAMS.  Flags override config
values, which override the defaults; a key the experiment does not take, a
non-boolean bool or a non-integral int is a usage error.  Outputs are
deterministic for a fixed config and seed: CSV files are written atomically
and SVG plots carry no timestamps or environment-dependent bytes.  Exit
codes: 0 ok, 2 usage, 3 numerical failure, 4 I/O failure.  Only parameters
the runners validate give a usage error; any other exception is a package
fault and propagates.
"""

import argparse
import inspect
import json
import os
import sys

import numpy as np

from . import ergodicity, simulation, twostate
from .errors import NumericalError, ProtmeasError, UsageError
from .oscillator import OscillatorBasis, StateVector, coherent_state, number_state
from .projectors import (IntervalRegion, bin_edges, heisenberg_projector,
                         projector_matrix, time_averaged_projector)
from .quadrature import bin_probabilities
from .svgplot import emit_plot
from .tables import ResultTable
from .weak import (MeasurementSchedule, closed_form_pvi_weak, expectation,
                   pointer_trace, weak_value_series)

# every tunable: name -> (type, default); each runner's signature names the
# ones its experiment takes and may give its own default
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


def _checked(build, *args, **kwargs):
    """Build an object from user parameters; its ValueError is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require(cond: bool, message: str):
    if not cond:
        raise UsageError(message)


def _basis(dim, omega, zero_point) -> OscillatorBasis:
    return _checked(OscillatorBasis, dim=dim, omega=omega, include_zero_point=zero_point)


def _window(x0, w) -> IntervalRegion:
    """The interval of width w centred on x0."""
    _require(w > 0, "interval width w must be positive")
    return _checked(IntervalRegion, x0 - w / 2, x0 + w / 2)


def run_sketch(*, dim, omega, zero_point, bin_width, L, n=None, alpha=None):
    """|psi|^2 per bin of [-L, L] for |n> (|0> by default), or for |alpha> if alpha is given."""
    basis = _basis(dim, omega, zero_point)
    edges = _checked(bin_edges, bin_width, L)
    _require(n is None or alpha is None, "sketch draws |n> or |alpha>: give n or alpha, not both")
    state = (_checked(number_state, basis, n or 0) if alpha is None
             else _checked(coherent_state, basis, alpha))
    table = ResultTable(["bin_center", "probability"], ["", ""])
    for a, b, prob in zip(edges[:-1], edges[1:], bin_probabilities(state.amplitudes, edges)):
        table.add_row(0.5 * (a + b), prob)
    return table, [("sketch.svg", "bin_center", ["probability"], ["|psi|^2 per bin"],
                    "wavefunction sketch")]


def run_pointer_trace(*, dim, omega, zero_point, T, ramp, steps, x0, w, alpha, delta,
                      alpha2):
    basis = _basis(dim, omega, zero_point)
    schedule = _checked(MeasurementSchedule, T, ramp, steps)
    P = projector_matrix(_window(x0, w), basis)
    pre = number_state(basis, 0)

    trivial = pointer_trace(schedule, pre, P)
    post = _checked(coherent_state, basis, alpha * np.exp(1j * delta)).dual()
    sel = pointer_trace(schedule, pre, P, post)

    cols = ["t", "reading_trivial", "reading_alpha", "wv_re_alpha", "closed_form"]
    units = ["s", "", "", "", ""]
    closed = closed_form_pvi_weak(abs(alpha), delta, x0, omega, T, schedule.times)
    series = [trivial.readings, sel.readings, sel.values, closed * w]
    plots = [("fig1.svg", "t", ["reading_alpha", "reading_trivial"],
              ["alpha post-selection", "trivial post-selection"],
              "pointer readings")]
    if alpha2 is not None:
        post2 = _checked(coherent_state, basis, alpha2 * np.exp(1j * delta)).dual()
        sel2 = pointer_trace(schedule, pre, P, post2)
        cols += ["reading_alpha2", "wv_re_alpha2"]
        units += ["", ""]
        series += [sel2.readings, sel2.values]
        plots.append(("fig2.svg", "t", ["wv_re_alpha", "wv_re_alpha2"],
                      [f"alpha={alpha:g}", f"alpha={alpha2:g}"],
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


def run_heisenberg(*, dim, omega, zero_point, a, b, T, max_index, t):
    basis = _basis(dim, omega, zero_point)
    region = _checked(IntervalRegion, a, b)
    k = min(max_index, basis.dim)
    P = projector_matrix(region, basis)
    Pt = heisenberg_projector(P, t)
    avg = _checked(time_averaged_projector, P, T)
    table = ResultTable(
        ["m", "n", "p_re", "p_im", "heis_re", "heis_im", "avg_re", "avg_im", "bound"],
        ["", "", "", "", "", "", "", "", ""], int_columns=frozenset(["m", "n"]))
    for m in range(k):
        for n in range(k):
            bound = (2.0 * abs(P.entries[m, n]) / (abs(m - n) * basis.omega * T)
                     if m != n else abs(P.entries[m, n]))
            table.add_row(m, n, P.entries[m, n].real, P.entries[m, n].imag,
                          Pt[m, n].real, Pt[m, n].imag,
                          avg[m, n].real, avg[m, n].imag, bound)
    return table, []


def run_bipartite(*, dim, omega, zero_point, a, b, T, ramp, steps, pointer_points,
                  pointer_sigma, shift_tol):
    basis = _basis(dim, omega, zero_point)
    region = _checked(IntervalRegion, a, b)
    schedule = _checked(MeasurementSchedule, T, ramp, steps)
    P = projector_matrix(region, basis)
    grid = _checked(simulation.PointerGrid, points=pointer_points, sigma=pointer_sigma)
    _require(shift_tol >= 0, "shift_tol must be non-negative")
    result = simulation.bipartite_protective_sim(
        P, schedule, grid=grid, steps=steps, shift_tol=shift_tol)
    ref = expectation(P, number_state(basis, 0))
    table = ResultTable(
        ["T", "pointer_shift", "energy_shift_per_p", "survival", "steps_used",
         "expectation_P"],
        ["s", "", "1/s", "", "", ""], int_columns=frozenset(["steps_used"]))
    table.add_row(T, result.pointer_shift, result.energy_shift_per_p,
                  result.survival_probability, result.steps_used, ref)
    return table, []


def _parse_n_list(raw: str) -> list:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"n_list must be comma-separated integers, got {raw!r}") from None
    _require(len(values) > 0 and all(v >= 1 for v in values),
             "n_list must contain positive protection counts")
    return values


def run_zeno(*, dim, omega, zero_point, a, b, T, n_list, coupling, n=1):
    basis = _basis(dim, omega, zero_point)
    _require(0 < n < basis.dim, f"n={n} must satisfy 0 < n < dim")
    _require(T > 0, "protection window T must be positive")
    amps = np.zeros(basis.dim, dtype=complex)
    amps[0] = amps[n] = 1.0  # superposition of |0> and |n>
    initial = StateVector(amps, basis)
    P = projector_matrix(_checked(IntervalRegion, a, b), basis)
    table = ResultTable(["n_protections", "survival", "max_op_jump"], ["", "", ""],
                        int_columns=frozenset(["n_protections"]))
    for count in _parse_n_list(n_list):
        res = simulation.zeno_protect_sim(initial, count, T, measured=P, coupling=coupling)
        table.add_row(count, res.survival_probability, res.jump_norms.max(initial=0.0))
    return table, [("zeno.svg", "n_protections", ["survival"], ["survival"],
                    "Zeno protection")]


def run_thermal(*, dim, omega, zero_point, beta):
    basis = _basis(dim, omega, zero_point)
    _require(beta > 0, f"beta must be positive, got {beta}")
    rho = twostate.thermal_density(beta, basis)
    pure = twostate.thermal_purification(beta, basis)
    table = ResultTable(["n", "weight", "purification_amp"], ["", "", ""],
                        int_columns=frozenset(["n"]))
    for n in range(basis.dim):
        table.add_row(n, rho.entries[n, n].real, pure.amplitudes[n].real)
    return table, [("thermal.svg", "n", ["weight"], ["Boltzmann weight"],
                    "thermal occupation")]


def run_two_state(*, dim, omega, zero_point, T, ramp, steps, x0, w, alpha, delta):
    basis = _basis(dim, omega, zero_point)
    schedule = _checked(MeasurementSchedule, T, ramp, steps)
    P = projector_matrix(_window(x0, w), basis)
    pre = number_state(basis, 0)
    post = _checked(coherent_state, basis, alpha * np.exp(1j * delta)).dual()
    table = ResultTable(
        ["t", "wv_direct_re", "wv_direct_im", "wv_trace_re", "wv_trace_im",
         "herm_defect"],
        ["s", "", "", "", "", ""])
    direct, _ = weak_value_series(P, pre, post, schedule.times, T)
    for t, d in zip(schedule.times, direct):
        rho = twostate.two_state_density(pre, post, float(t), T)
        traced = twostate.weak_value_from_density(P, rho)
        table.add_row(t, d.real, d.imag, traced.real, traced.imag,
                      rho.hermiticity_defect())
    return table, [("two_state.svg", "t", ["wv_direct_re"], ["Re weak value"],
                    "two-state weak value")]


def run_ergodic(*, omega, seed, amplitude, n_samples, ensemble_n, periods, t,
                a=0.5, b=1.0):
    _require(seed is not None,
             "ergodic runs are stochastic: an explicit --seed is mandatory")
    _require(n_samples >= 1, "n_samples must be >= 1")
    _require(ensemble_n >= 1, "ensemble_n must be >= 1")
    _require(amplitude > 0, f"amplitude must be positive, got {amplitude}")
    _require(omega > 0, f"omega must be positive, got {omega}")
    region = _checked(IntervalRegion, a, b)
    duration = periods * 2.0 * np.pi / omega
    time_avg = ergodicity.classical_time_average(
        amplitude, 0.0, omega, region, duration, n_samples)
    ens = ergodicity.uniform_phase_ensemble(ensemble_n, amplitude, omega, seed)
    ens_avg = ergodicity.classical_ensemble_average(ens, region, t)
    analytic = ergodicity.classical_dwell_fraction(amplitude, region)
    err_t = ergodicity.sampling_error(time_avg, n_samples)
    err_e = ergodicity.sampling_error(ens_avg, ensemble_n)
    combined = float(np.hypot(err_t, err_e))
    gap_sigmas = abs(time_avg - ens_avg) / combined if combined > 0 else 0.0
    table = ResultTable(
        ["time_average", "ensemble_average", "analytic_fraction",
         "stat_error_time", "stat_error_ensemble", "gap_sigmas"],
        ["", "", "", "", "", ""])
    table.add_row(time_avg, ens_avg, analytic, err_t, err_e, gap_sigmas)
    return table, []


def run_correspondence(*, omega, zero_point, n_samples, periods, n=50, a=2.0, b=4.0,
                       dim=128):
    basis = _basis(dim, omega, zero_point)
    region = _checked(IntervalRegion, a, b)
    _require(0 <= 2 * n <= basis.dim, f"n={n} must satisfy 0 <= 2n <= dim")
    _require(n_samples >= 1, "n_samples must be >= 1")
    report = ergodicity.correspondence_check(
        n, region, basis, n_samples=n_samples, n_periods=periods)
    rel_gap = (abs(report.quantum_fraction - report.analytic_fraction)
               / max(report.analytic_fraction, 1e-300))
    table = ResultTable(
        ["n", "quantum_fraction", "classical_fraction", "time_average", "rel_gap"],
        ["", "", "", "", ""], int_columns=frozenset(["n"]))
    table.add_row(n, report.quantum_fraction, report.analytic_fraction,
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
    parser.add_argument("experiment", choices=RUNNERS)
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


def _convert(key: str, value, default, token=False):
    """A config or flag value, or a --sweep token, as a value of PARAMS[key]'s type.

    null stays None where the default is None; booleans must be JSON booleans
    or the tokens true/false, integers must be integral, and n_list may be a
    JSON array.  Anything else raises UsageError.
    """
    kind = PARAMS[key][0]
    if value is None and default is None:
        return None
    if isinstance(value, list) and kind is str:       # n_list as a JSON array
        value = ",".join(map(str, value))
    elif token:
        try:
            value = {"true": True, "false": False}[value.strip()] if kind is bool else float(value)
        except (KeyError, ValueError):
            pass
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        if (isinstance(value, kind) if kind in (bool, str) else
                number and (kind is float or isinstance(value, int) or value.is_integer())):
            return kind(value)
    except OverflowError:   # an integer beyond the float range
        pass
    raise UsageError(f"{key}={value!r} is not a valid {kind.__name__}")


def merge_params(args: argparse.Namespace) -> list:
    """The runs `args` asks for, as (output directory, runner keyword arguments).

    Each argument starts at the PARAMS default, or at the runner's own
    default, then takes the config value and then the flag; --sweep gives
    one run per value, each in its own subdirectory.  A key the runner does
    not take raises UsageError.
    """
    taken = inspect.signature(RUNNERS[args.experiment]).parameters
    params = {name: PARAMS[name][1] if p.default is p.empty else p.default
              for name, p in taken.items()}

    def accept(key, source):
        if key not in params:
            raise UsageError(f"{args.experiment} does not take {key!r} (from {source}); "
                             f"it takes {', '.join(params)}")

    config = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {args.config} is not valid JSON: {exc}") from None
        _require(isinstance(config, dict), "config file must hold a JSON object")
        config = {k: v for k, v in config.items() if k not in ("experiment", "out", "plot")}
    flags = {name: getattr(args, name) for name in PARAMS if getattr(args, name) is not None}
    for source, given in (("the config", config), ("a flag", flags)):
        for key, value in given.items():
            accept(key, source)
            params[key] = _convert(key, value, params[key])
    if not args.sweep:
        return [(args.out, params)]

    key, eq, tail = args.sweep.partition("=")
    key = key.strip()
    _require(eq == "=", "--sweep expects KEY=V1,V2,...")
    accept(key, "--sweep")
    _require(key != "n_list", "cannot sweep over 'n_list'")
    values = [_convert(key, tok, params[key], token=True)
              for tok in tail.split(",") if tok.strip()]
    _require(len(values) > 0, "sweep needs at least one value")
    return [(os.path.join(args.out, f"{key}={v:g}" if isinstance(v, float) else f"{key}={v}"),
             {**params, key: v}) for v in values]


def run_single(experiment: str, params: dict, out_dir: str, plot: bool) -> str:
    table, plots = RUNNERS[experiment](**params)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for out_dir, params in merge_params(args):
            run_single(args.experiment, params, out_dir, args.plot)
    except UsageError as exc:
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
