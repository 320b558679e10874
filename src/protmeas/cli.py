"""Experiment runner: declarative configs in, CSV tables and SVG plots out.

Usage:  protmeas <experiment> [--config file.json] [--param value ...] --out DIR

A runner's keyword-only signature lists the parameters its experiment
takes, with any default that differs from PARAMS; it returns its table's
columns and plots.  Runners read each library name beyond the
oscillator's off the package, as `pm.<name>`: the package's one name ->
module table imports a layer module on first use, so a command compiles
only the modules it runs.  Flags override config values, which override
the defaults.  argparse only splits the command line: `_convert` alone
parses a flag value or --sweep token by its parameter's kind and checks
it, as it checks a config value, whose JSON integers read by their
digits as on the command line, so a value is refused with the same
"key=value ..." message from all three.  A key the experiment does not
take, a non-integral int, a non-finite float (other than the interval
ends a and b), a size above its LIMITS bound or a time whose largest
phase overflows is a usage error.
Outputs are deterministic for a fixed config and seed: CSV files are
written atomically and SVG plots carry no timestamps or
environment-dependent bytes.  Exit codes: 0 ok, 2 usage, 3 numerical
failure, 4 I/O failure.  A library refusal (ValueError, TruncationError or
PostSelectionError) becomes a usage error in `_checked` alone, so only
parameters the runners validate give one, and its message starts with
the keys it refuses; any other exception is a package fault and
propagates.  argparse's own errors (an unknown experiment or flag, a flag
without its value) exit 2 through SystemExit.
"""

import argparse
import inspect
import os
import sys

import numpy as np

import protmeas as pm
from .errors import NumericalError, PostSelectionError, TruncationError, UsageError
# every command runs the oscillator layer; the runners read the other layers' names off pm
from .oscillator import OscillatorBasis, StateVector, check_phase, coherent_state, number_state

# every tunable: name -> (type, default); each runner's signature names the
# ones its experiment takes and may give its own default
PARAMS = {
    "dim": (int, 64),
    "omega": (float, 1.0),
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
    "n_list": (list, [4, 8, 16, 32, 64, 128, 256]),
    "coupling": (float, 0.0),
    "t": (float, 0.0),
    "seed": (int, None),
    "amplitude": (float, 1.0),
    "n_samples": (int, 100_001),
    "periods": (int, 1000),
    "ensemble_n": (int, 100_000),
    "pointer_sigma": (float, 10.0),
    "shift_tol": (float, 1e-4),
}


def _checked(keys: str, build, *args, **kwargs):
    """build(*args, **kwargs) on user parameters; its refusal is a usage error naming them.

    `keys` lists the parameters whose values the call checks, as in
    "T, ramp, steps"; a ValueError, TruncationError or PostSelectionError of
    the call becomes a UsageError that starts "<keys>: ".
    """
    try:
        return build(*args, **kwargs)
    except (ValueError, TruncationError, PostSelectionError) as exc:
        raise UsageError(f"{keys}: {exc}") from None


def _require(cond: bool, message: str):
    if not cond:
        raise UsageError(message)


def _phase_time(basis: OscillatorBasis, key: str, value: float):
    """A time whose phase E_max |value| overflows is a usage error naming `key`.

    The largest energy bounds every phase the runners form from a time:
    E_n t, and the Heisenberg (m - n) omega t.
    """
    _checked(key, check_phase, basis.energies()[-1], value, key)


def _window(x0, w):
    """The IntervalRegion of width w centred on x0."""
    return _checked("x0, w", pm.IntervalRegion, x0 - w / 2, x0 + w / 2)


def _measured(region, dim, omega, schedule):
    """(basis, projector onto `region`, pre-selected |0>) of a run measured on `schedule`.

    A window T whose largest phase overflows is a usage error naming T.
    """
    basis = _checked("dim, omega", OscillatorBasis, dim, omega)
    _phase_time(basis, "T", schedule.duration)
    return basis, pm.projector_matrix(region, basis), number_state(basis, 0)


def run_sketch(*, dim, bin_width, L, n=None, alpha=None):
    """|psi|^2 per bin of [-L, L] for |n> (|0> by default), or for |alpha> if alpha is given."""
    basis = _checked("dim", OscillatorBasis, dim)
    edges = _checked("bin_width, L", pm.bin_edges, bin_width, L)
    _require(n is None or alpha is None,
             f"n={n}, alpha={alpha}: sketch draws |n> or |alpha>, give one of them")
    state = (_checked("n", number_state, basis, n or 0) if alpha is None
             else _checked("alpha", coherent_state, basis, alpha))
    columns = [("bin_center", "", 0.5 * (edges[:-1] + edges[1:])),
               ("probability", "", pm.bin_probabilities(state.amplitudes, edges))]
    return columns, [("sketch.svg", "bin_center", ["probability"], ["|psi|^2 per bin"],
                      "wavefunction sketch")]


def run_pointer_trace(*, dim, omega, T, ramp, steps, x0, w, alpha, delta, alpha2):
    schedule = _checked("T, ramp, steps", pm.MeasurementSchedule, T, ramp, steps)
    basis, P, pre = _measured(_window(x0, w), dim, omega, schedule)

    trivial = pm.pointer_trace(schedule, pre, P)
    post = _checked("alpha", coherent_state, basis, alpha * np.exp(1j * delta)).dual()
    sel = pm.pointer_trace(schedule, pre, P, post)

    closed = _checked("alpha, x0", pm.closed_form_pvi_weak, abs(alpha), delta, x0, omega, T,
                      schedule.times)
    columns = [("t", "s", schedule.times), ("reading_trivial", "", trivial.readings),
               ("reading_alpha", "", sel.readings), ("wv_re_alpha", "", sel.values),
               ("closed_form", "", closed * w)]
    plots = [("fig1.svg", "t", ["reading_alpha", "reading_trivial"],
              ["alpha post-selection", "trivial post-selection"], "pointer readings")]
    if alpha2 is not None:
        post2 = _checked("alpha2", coherent_state, basis, alpha2 * np.exp(1j * delta)).dual()
        sel2 = pm.pointer_trace(schedule, pre, P, post2)
        columns += [("reading_alpha2", "", sel2.readings), ("wv_re_alpha2", "", sel2.values)]
        plots.append(("fig2.svg", "t", ["wv_re_alpha", "wv_re_alpha2"],
                      [f"alpha={alpha:g}", f"alpha={alpha2:g}"], "weak value comparison"))
    gap = abs(sel.final_reading - trivial.final_reading) / max(abs(trivial.final_reading), 1e-300)
    print(f"final_trivial={trivial.final_reading!r}")
    print(f"final_alpha={sel.final_reading!r}")
    print(f"relative_gap={gap!r}")
    if sel.flagged:
        print(f"flagged_points={sel.times.size}")
    if alpha2 is not None and sel2.flagged:
        print(f"flagged_points_alpha2={sel2.times.size}")
    return columns, plots


def run_heisenberg(*, a, b, T, max_index, t):
    # the k x k block, k = max_index, needs phi_0..phi_k only: P on the first max(k, 2)
    # levels at omega = 1, where the output sees omega only through omega T and omega t
    basis = OscillatorBasis(max(max_index, 2))
    region = _checked("a, b", pm.IntervalRegion, a, b)
    _phase_time(basis, "T", T)
    _phase_time(basis, "t", t)
    _require(max_index >= 1, f"max_index={max_index} must be >= 1")
    P = pm.projector_matrix(region, basis)
    Pt = pm.heisenberg_projector(P, t)
    avg = _checked("T", pm.time_averaged_projector, P, T)
    m, n = np.indices((max_index, max_index)).reshape(2, -1)
    p, pt, pa, bound = (M[m, n] for M in (P.entries, Pt, avg, pm.dephasing_bound(P, T)))
    columns = [("m", "", m), ("n", "", n), ("p_re", "", p.real), ("p_im", "", p.imag),
               ("heis_re", "", pt.real), ("heis_im", "", pt.imag),
               ("avg_re", "", pa.real), ("avg_im", "", pa.imag), ("bound", "", bound)]
    return columns, []


def run_bipartite(*, dim, omega, a, b, T, ramp, steps=None, pointer_sigma, shift_tol):
    # no steps: the ladder starts at bipartite_protective_sim's own default
    given = {} if steps is None else {"steps": steps}
    schedule = _checked("T, ramp, steps", pm.MeasurementSchedule, T, ramp, **given)
    _, P, pre = _measured(_checked("a, b", pm.IntervalRegion, a, b), dim, omega, schedule)
    result = _checked("pointer_sigma, shift_tol", pm.bipartite_protective_sim, P, schedule,
                      pointer_sigma=pointer_sigma, shift_tol=shift_tol, **given)
    ref = pm.expectation(P, pre)
    columns = [("T", "s", [T]), ("pointer_shift", "", [result.pointer_shift]),
               ("energy_shift_per_p", "1/s", [result.energy_shift_per_p]),
               ("survival", "", [result.survival_probability]),
               ("steps_used", "", [result.steps_used]), ("expectation_P", "", [ref])]
    return columns, []


def run_zeno(*, dim, a, b, T, n_list, coupling, n=1):
    basis = _checked("dim", OscillatorBasis, dim)
    _require(0 < n < basis.dim, f"n={n} must satisfy 0 < n < dim")
    # named T here, where zeno_protect_sim's own check would name the duration; a
    # coupled eigenvalue is at most E_max + |coupling| / T, its phase E_max T + |coupling|
    _phase_time(basis, "T", T)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[0] = amps[n] = 1.0  # superposition of |0> and |n>
    initial = StateVector(amps, basis)
    P = pm.projector_matrix(_checked("a, b", pm.IntervalRegion, a, b), basis)
    runs = [_checked("T, coupling", pm.zeno_protect_sim, initial, count, T, measured=P,
                     coupling=coupling) for count in n_list]
    columns = [("n_protections", "", n_list),
               ("survival", "", [r.survival_probability for r in runs]),
               ("max_op_jump", "", [r.jump_norms.max(initial=0.0) for r in runs])]
    return columns, [("zeno.svg", "n_protections", ["survival"], ["survival"],
                      "Zeno protection")]


def run_thermal(*, dim, beta):
    basis = _checked("dim", OscillatorBasis, dim)
    pure = _checked("beta", pm.thermal_purification, beta, basis)
    columns = [("n", "", np.arange(basis.dim)),
               ("weight", "", pm.thermal_weights(beta, basis)),
               ("purification_amp", "", pure.amplitudes.real)]
    return columns, [("thermal.svg", "n", ["weight"], ["Boltzmann weight"],
                      "thermal occupation")]


def run_two_state(*, dim, omega, T, steps, x0, w, alpha, delta):
    # the rows read only the schedule's times, which no ramp moves
    schedule = _checked("T, steps", pm.MeasurementSchedule, T, steps=steps)
    basis, P, pre = _measured(_window(x0, w), dim, omega, schedule)
    post = _checked("alpha", coherent_state, basis, alpha * np.exp(1j * delta)).dual()
    direct = _checked("alpha, delta, T", pm.weak_value_series, P, pre, post, schedule.times, T)
    traced, defect = pm.two_state_readings(P, pre, post, schedule.times, T)
    columns = [("t", "s", schedule.times),
               ("wv_direct_re", "", direct.real), ("wv_direct_im", "", direct.imag),
               ("wv_trace_re", "", traced.real), ("wv_trace_im", "", traced.imag),
               ("herm_defect", "", np.full(traced.size, defect))]
    return columns, [("two_state.svg", "t", ["wv_direct_re"], ["Re weak value"],
                      "two-state weak value")]


def run_ergodic(*, seed, amplitude, n_samples, ensemble_n, periods, t, a=0.5, b=1.0):
    from .ergodicity import sampling_error
    _require(seed is not None and seed >= 0,
             f"seed={seed}: ergodic runs are stochastic and need a non-negative --seed")
    region = _checked("a, b", pm.IntervalRegion, a, b)
    # at omega = 1: the outputs see omega only through omega t
    dwell = _checked("amplitude, periods, n_samples", pm.dwell_report,
                     amplitude, region, 1.0, n_samples, periods)
    ens_avg = _checked("ensemble_n", pm.classical_ensemble_average,
                       ensemble_n, amplitude, seed, region, t)
    err_e = sampling_error(ens_avg, ensemble_n)
    combined = float(np.hypot(dwell.statistical_error, err_e))
    gap_sigmas = abs(dwell.time_average - ens_avg) / combined if combined > 0 else 0.0
    columns = [("time_average", "", [dwell.time_average]),
               ("ensemble_average", "", [ens_avg]),
               ("analytic_fraction", "", [dwell.analytic_fraction]),
               ("stat_error_time", "", [dwell.statistical_error]),
               ("stat_error_ensemble", "", [err_e]), ("gap_sigmas", "", [gap_sigmas])]
    return columns, []


def run_correspondence(*, n_samples, periods, n=50, a=2.0, b=4.0, dim=128):
    basis = _checked("dim", OscillatorBasis, dim)
    region = _checked("a, b", pm.IntervalRegion, a, b)
    report = _checked("n, n_samples, periods", pm.correspondence_check,
                      n, region, basis, n_samples=n_samples, n_periods=periods)
    rel_gap = (abs(report.quantum_fraction - report.analytic_fraction)
               / max(report.analytic_fraction, 1e-300))
    columns = [("n", "", [n]), ("quantum_fraction", "", [report.quantum_fraction]),
               ("classical_fraction", "", [report.analytic_fraction]),
               ("time_average", "", [report.time_average]), ("rel_gap", "", [rel_gap])]
    return columns, []


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
    for name in PARAMS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name)
    return parser


# how a flag value, --sweep token or JSON integer reads as each kind: the first
# reader that does not raise wins, and text that no reader takes is left for
# _convert to refuse
_READERS = {
    int: [int, float],      # exactly, or an integral float such as 1e2 or 16.0
    float: [float],
    list: [lambda text: [int(tok) for tok in text.split(",") if tok.strip()]],
}

# the largest value of each size parameter (each count, for n_list), so that a
# run can allocate its arrays and finish its loops.  At 2**14 levels one dim x
# dim complex matrix takes 4 GiB, and correspondence's recurrence runs over
# phi_0..phi_n (sketch and zeno need n < dim).  Measured on 2 cores, one
# process each: pointer-trace at 2**20 steps and dim 64 took 4.7-7.9 s, most of
# it formatting the CSV, and peaked at 205 MB RSS (270 MB with alpha2), a Zeno
# protection 20 us at dim 12 and 2.3-2.9 ms at dim 512, ergodic 25 ns per
# dwell sample and 80 ns per ensemble member, and heisenberg-projector's
# max_index**2 rows 7-9 s, 264 MB RSS and a 135 MB CSV at max_index 2**10,
# most of it formatting the CSV
LIMITS = {"dim": 2 ** 14, "n": 2 ** 14, "steps": 2 ** 20, "n_list": 2 ** 16,
          "n_samples": 2 ** 30, "ensemble_n": 2 ** 24, "max_index": 2 ** 10}


def _read(kind, text: str):
    """`text` read by the first of _READERS[kind] that takes it, or `text` if none does."""
    for reader in _READERS[kind]:
        try:
            return reader(text)
        except ValueError:
            pass
    return text


def _convert(key: str, value, default, token=False):
    """A parameter value as a value of PARAMS[key]'s kind; the one place values are parsed.

    A flag value or --sweep token (`token`) is text, read by _READERS; a
    config value keeps its JSON type, but an n_list string is read as a
    token is, and a float parameter reads a JSON integer by its digits, as
    float() reads the same flag value: beyond the float range it is +-inf.
    null stays None where the default is None; integers must be integral,
    floats other than the interval ends a and b finite, n_list a non-empty
    list of integers >= 1, and a size no larger than its LIMITS bound.
    Anything else raises UsageError "<key>=<value> ...".
    """
    kind = PARAMS[key][0]
    if value is None and default is None:
        return None
    if isinstance(value, str) and (token or kind is list):
        value = _read(kind, value)
    valid = {float: type(value) in (int, float),
             int: type(value) is int or type(value) is float and value.is_integer(),
             list: type(value) is list and value != [] and all(type(v) is int and v >= 1
                                                                for v in value)}[kind]
    if not valid:
        what = "list of counts >= 1" if kind is list else kind.__name__
        raise UsageError(f"{key}={value!r} is not a valid {what}")
    value = float(str(value)) if kind is float else kind(value)
    _require(kind is not float or key in ("a", "b") or np.isfinite(value),
             f"{key}={value!r} is not finite")
    _require(key not in LIMITS or max(value if kind is list else [value]) <= LIMITS[key],
             f"{key}={value!r} exceeds the bound {LIMITS.get(key)}")
    return value


def merge_params(args: argparse.Namespace) -> list:
    """The runs `args` asks for, as (output directory, runner keyword arguments).

    Each argument starts at the PARAMS default, or at the runner's own
    default, then takes the config value and then the flag; --sweep gives
    one run per value, each in its own subdirectory.  A key the runner does
    not take, or two sweep values that name the same subdirectory, raises
    UsageError.
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
        import json  # only a config file is JSON
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh, parse_int=lambda text: _read(int, text))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {args.config} is not valid JSON: {exc}") from None
        _require(isinstance(config, dict), "config file must hold a JSON object")
        config = {k: v for k, v in config.items() if k not in ("experiment", "out", "plot")}
    flags = {name: getattr(args, name) for name in PARAMS if getattr(args, name) is not None}
    for source, given, token in (("the config", config, False), ("a flag", flags, True)):
        for key, value in given.items():
            accept(key, source)
            params[key] = _convert(key, value, params[key], token)
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
    runs = {}
    for v in values:
        out_dir = os.path.join(args.out, f"{key}={v:g}" if isinstance(v, float) else f"{key}={v}")
        if out_dir in runs:
            raise UsageError(f"--sweep values {runs[out_dir]!r} and {v!r} would both write "
                             f"to {out_dir}")
        runs[out_dir] = v
    return [(out_dir, {**params, key: v}) for out_dir, v in runs.items()]


def run_single(experiment: str, params: dict, out_dir: str, plot: bool) -> str:
    from .tables import ResultTable
    columns, plots = RUNNERS[experiment](**params)
    table = ResultTable(columns)
    csv_path = os.path.join(out_dir, experiment.replace("-", "_") + ".csv")
    table.write_csv(csv_path)
    written = [csv_path]
    if plot:
        from .svgplot import emit_plot
        for fname, x, ys, labels, title in plots:
            path = os.path.join(out_dir, fname)
            emit_plot(table, x, ys, path, title=title, labels=labels)
            written.append(path)
    for path in written:
        print(f"wrote {path}")
    return csv_path


def _join_negative_values(parser: argparse.ArgumentParser, argv: list) -> list:
    """argv with '--delta -1e-3' joined into '--delta=-1e-3', for every flag that takes a value.

    argparse takes a token with a leading dash for a flag unless it looks
    like -1 or -.5, but a value may be -inf or -1e3.  Only a number after
    a flag that takes a value is joined; every other token is left as it is.
    """
    takes_value = {flag for action in parser._actions if action.nargs != 0
                   for flag in action.option_strings}
    out = []
    for tok in argv:
        if out and out[-1] in takes_value and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_negative_values(parser, argv))
    try:
        for out_dir, params in merge_params(args):
            run_single(args.experiment, params, out_dir, args.plot)
    except UsageError as exc:
        print(f"usage error ({args.experiment}): {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure ({args.experiment}): {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure ({args.experiment}): {exc}", file=sys.stderr)
        return 4
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
