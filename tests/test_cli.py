import ast
import contextlib
import dataclasses
import functools
import importlib
import inspect
import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

import protmeas
from protmeas.cli import (LIMITS, PARAMS, RUNNERS, _join_negative_values, build_parser, main,
                          merge_params)
from protmeas.errors import UsageError
from protmeas.svgplot import emit_plot
from protmeas.tables import CSV_BLOCK_ROWS, ResultTable

from dense_two_state import hermiticity_defect, two_state_density, weak_value_from_density


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ------------------------------------------------------------------- tables

def test_table_round_trip(tmp_path):
    # an integer column prints without a dot, every other value as repr(float(v))
    t = ResultTable([("n", "", np.arange(1, 3)), ("value", "s", [0.5, 0.25]),
                     ("whole", "", np.array([3.0, -0.0])), ("flag", "", [True, False])])
    path = tmp_path / "t.csv"
    t.write_csv(path)
    text = read(path).decode()
    assert text == "n,value [s],whole,flag\n1,0.5,3.0,1.0\n2,0.25,-0.0,0.0\n"
    assert t.column("value").tolist() == [0.5, 0.25]
    with pytest.raises(KeyError, match="nope"):
        t.column("nope")


def _csv_formula(table) -> bytes:
    """The whole-table CSV of one join over every row: the reference the blocked writer keeps."""
    cells = [map(repr, (v if v.dtype.kind in "iu" else v.astype(float)).tolist())
             for v in table.values]
    return ("\n".join([",".join(table.header()), *map(",".join, zip(*cells))]) + "\n").encode()


def test_table_blocks_write_the_formula_bytes(tmp_path):
    # the rows cross two block boundaries, and every kind of value comes around
    n = 2 * CSV_BLOCK_ROWS + 3
    specials = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308, 0.1])
    t = ResultTable([("i", "", np.arange(n) - 7), ("u", "", np.arange(n, dtype=np.uint8)),
                     ("x", "s", np.resize(specials, n)),
                     ("f", "", np.linspace(-1, 1, n, dtype=np.float32)),
                     ("b", "", np.arange(n) % 3 == 0)])
    for table in (t, ResultTable([("x", "", np.empty(0))])):
        table.write_csv(tmp_path / "t.csv")
        assert read(tmp_path / "t.csv") == _csv_formula(table)


def test_table_write_holds_the_csv_about_twice(tmp_path):
    # 65,536 rows of 5 floats: the whole-table formula peaked at 3.9 times the
    # file, a list of row blocks and their join at 2.1, one growing buffer at 1.3
    rng = np.random.default_rng(7)
    t = ResultTable([(f"c{i}", "", rng.normal(size=65536)) for i in range(5)])
    tracemalloc.start()
    try:
        t.write_csv(tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * os.path.getsize(tmp_path / "t.csv")


def test_pointer_trace_runner_holds_little_beyond_its_columns(capsys):
    # 2**18 steps with alpha2: seven columns of 2**18 + 1 floats.  The runner
    # peaked at 2.58 times their bytes when each trace kept its own times,
    # a .real view of its complex series and five trapezoid temporaries
    tracemalloc.start()
    try:
        columns, _ = RUNNERS["pointer-trace"](dim=64, omega=1.0, T=100.0, ramp=0.05,
                                              steps=2**18, x0=1.0, w=0.05, alpha=2.5,
                                              delta=0.0, alpha2=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert len(columns) == 7
    assert peak < 1.6 * sum(np.asarray(values).nbytes for _, _, values in columns)


def test_table_rejects_ragged_columns():
    for columns in ([("a", "", [1.0, 2.0]), ("b", "", [1.0])],     # unequal lengths
                    [("a", "", np.zeros((2, 2)))],                  # 2-D
                    [("a", "", 1.0)],                               # 0-D
                    [("a", "", [1j, 2.0])]):                        # complex: pass _re/_im
        with pytest.raises(ValueError, match="one-dimensional"):
            ResultTable(columns)


def test_no_partial_files_left(tmp_path):
    t = ResultTable([("a", "", [1.0])])
    t.write_csv(tmp_path / "out.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_the_umask(tmp_path, umask, mode):
    # as any open() would: a temp file made owner-only keeps 0o600 through the rename
    t = ResultTable([("x", "", [0.0, 1.0]), ("y", "", [1.0, 2.0])])
    previous = os.umask(umask)
    try:
        t.write_csv(tmp_path / "t.csv")
        emit_plot(t, "x", ["y"], tmp_path / "p.svg", "title", ["y"])
    finally:
        os.umask(previous)
    for name in ("t.csv", "p.svg"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == mode


# --------------------------------------------------------------------- svg

def test_svg_single_series(tmp_path):
    x = np.arange(10.0)
    t = ResultTable([("x", "", x), ("y", "", x * x)])
    data = emit_plot(t, "x", ["y"], tmp_path / "p.svg", "title", ["y"])
    assert data.startswith(b"<svg")
    assert data.count(b"<polyline") == 1
    assert b"Date" not in data


def test_svg_missing_column_named(tmp_path):
    t = ResultTable([("x", "", [1.0])])
    with pytest.raises(KeyError, match="ghost"):
        emit_plot(t, "x", ["ghost"], tmp_path / "p.svg", "title", ["ghost"])


@pytest.mark.parametrize("y", [1e17 + np.array([0.0, 16.0, 0.0, 16.0]), np.full(4, 1e17)])
def test_svg_ticks_end_beyond_2_to_53(tmp_path, y):
    # the tick step 5 is below the ulp 16 of 1e17, and 1e17 + 1.0 == 1e17 leaves a
    # constant column no range: the alarm turns a tick loop that never ends into a failure
    def hung(signum, frame):
        raise TimeoutError("emit_plot did not finish within 1 s")

    t = ResultTable([("x", "", np.arange(4.0)), ("y", "", y)])
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(1)
    try:
        data = emit_plot(t, "x", ["y"], tmp_path / "p.svg", "title", ["y"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    labels = re.findall(r'text-anchor="end">([^<]*)<', data.decode())
    assert labels and len(set(labels)) == len(labels)


@pytest.mark.parametrize("column", ["x", "y"])
@pytest.mark.parametrize("bad, at", [(np.inf, 2), (-np.inf, 1), (np.nan, 0), (np.nan, 1)])
def test_svg_refuses_a_non_finite_value_by_column(tmp_path, column, bad, at):
    # inf overflowed in the tick loop, a leading NaN failed int(), and a NaN
    # elsewhere wrote points="... nan" into the file
    values = {"x": np.arange(4.0), "y": np.array([0.0, 1.0, 2.0, 3.0])}
    values[column][at] = bad
    t = ResultTable([(c, "", v) for c, v in values.items()])
    with pytest.raises(ValueError, match=f"column '{column}'"):
        emit_plot(t, "x", ["y"], tmp_path / "p.svg", "title", ["y"])
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("y", [[0.0, 5e-324, 0.0, 5e-324], [0.0, 3e-323, 0.0, 3e-323]])
def test_svg_widens_a_range_whose_tick_step_underflows(tmp_path, y):
    # (hi - lo) / 6 is 0, or so far below the smallest normal float that 10 ** its
    # decade is 0: math.log10 raised a domain error, or no tick step was found
    t = ResultTable([("x", "", np.arange(4.0)), ("y", "", np.array(y))])
    text = emit_plot(t, "x", ["y"], tmp_path / "p.svg", "title", ["y"]).decode()
    labels = re.findall(r'text-anchor="end">([^<]*)<', text)
    assert labels and len(set(labels)) == len(labels)
    assert not re.search(r"nan|inf", text)


@pytest.mark.parametrize("column, values", [
    ("y", [-1e308, 1e308, 0.0, 1.0]), ("y", [-1.7e308, 0.0, 0.0, 0.0]),
    ("y", [0.0, 1.7e308, 1.0, 1.0]), ("x", [-1e308, 1e308, 0.0, 1.0])])
def test_svg_refuses_a_range_that_overflows_a_float(tmp_path, column, values):
    # every value is finite, but hi - lo overflows, for the 1.7e308 columns only once y
    # is padded by 5 %: _nice_ticks raised a bare OverflowError at math.floor(math.log10(inf))
    columns = {"x": np.arange(4.0), "y": np.arange(4.0), column: np.array(values)}
    t = ResultTable([(c, "", v) for c, v in columns.items()])
    with pytest.raises(ValueError, match=re.escape(f"columns ['{column}']")):
        emit_plot(t, "x", ["y"], tmp_path / "p.svg", "title", ["y"])
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("ys, labels", [
    pytest.param(["y", "z"], ["y"], id="too-few"), pytest.param(["y"], ["y", "z"], id="too-many"),
    pytest.param(["y"], [], id="none")])
def test_svg_refuses_a_label_count_other_than_the_column_count(tmp_path, ys, labels):
    # zip dropped the unlabelled columns' polylines, while the y range still spanned them
    t = ResultTable([("x", "", np.arange(4.0)), ("y", "", np.arange(4.0)),
                     ("z", "", 10.0 * np.arange(4.0))])
    with pytest.raises(ValueError, match=f"got {len(labels)} labels for {len(ys)} plotted columns"):
        emit_plot(t, "x", ys, tmp_path / "p.svg", "title", labels)
    assert not (tmp_path / "p.svg").exists()


def test_svg_deterministic_bytes(tmp_path):
    x = np.arange(50) * 0.1
    t = ResultTable([("x", "s", x), ("y", "", np.sin(x)), ("z", "", np.cos(x))])
    a = emit_plot(t, "x", ["y", "z"], tmp_path / "a.svg", "title", ["y", "z"])
    b = emit_plot(t, "x", ["y", "z"], tmp_path / "b.svg", "title", ["y", "z"])
    assert a == b


# ------------------------------------------------------------ CLI behaviors

def test_unknown_experiment_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["definitely-not-real"])
    assert err.value.code == 2


def test_ergodic_requires_seed(tmp_path, capsys):
    code = main(["ergodic", "--out", str(tmp_path)])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_a_small_resolvable_pointer_sigma_runs_the_ladder(tmp_path, capsys):
    # at sigma = 1e-8 every kick phase is representable: the ladder runs and fails to converge
    assert main(["bipartite", "--dim", "12", "--T", "2", "--steps", "16",
                 "--pointer-sigma", "1e-8", "--out", str(tmp_path)]) == 3
    assert "pointer shift did not converge" in capsys.readouterr().err


def test_pointer_trace_columns_and_determinism(tmp_path, capsys):
    args = ["pointer-trace", "--T", "20", "--steps", "256", "--plot"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    csv_a = read(tmp_path / "a" / "pointer_trace.csv")
    assert csv_a == read(tmp_path / "b" / "pointer_trace.csv")
    assert read(tmp_path / "a" / "fig1.svg") == read(tmp_path / "b" / "fig1.svg")
    header = csv_a.decode().splitlines()[0].split(",")
    assert header[0] == "t [s]"
    assert "reading_trivial" in header and "reading_alpha" in header


def test_bipartite_sweep_deterministic(tmp_path):
    args = ["bipartite", "--sweep", "T=20,40"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for T in ("20", "40"):
        csv_a = read(tmp_path / "a" / f"T={T}" / "bipartite.csv")
        assert csv_a == read(tmp_path / "b" / f"T={T}" / "bipartite.csv")
        assert csv_a.decode().splitlines()[1].startswith(f"{T}.0,0.0786")


def test_pointer_trace_fig2_overlay(tmp_path):
    assert main(["pointer-trace", "--T", "20", "--steps", "128", "--alpha", "2.5",
                 "--alpha2", "1.0", "--plot", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig2.svg").exists()
    svg = read(tmp_path / "fig2.svg").decode()
    assert svg.count("<polyline") == 2
    assert "#1f77b4" in svg and "#d62728" in svg   # blue + red analogues


def test_pointer_trace_below_the_floor_is_flagged_not_failed(tmp_path, capsys):
    # |<alpha=6.2|U(T)|0>| = e^{-6.2^2/2} is below the 1e-8 floor: one flag, zero readings
    assert main(["pointer-trace", "--dim", "128", "--alpha", "6.2", "--T", "5", "--steps", "16",
                 "--out", str(tmp_path)]) == 0
    assert "flagged_points=17\n" in capsys.readouterr().out
    lines = read(tmp_path / "pointer_trace.csv").decode().splitlines()
    col = lines[0].split(",").index("reading_alpha")
    assert [ln.split(",")[col] for ln in lines[1:]] == ["0.0"] * 17


def test_a_flagged_alpha2_trace_is_reported(tmp_path, capsys):
    # alpha 2.5 stays above the overlap floor, alpha2 6.2 falls below it
    assert main(["pointer-trace", "--dim", "128", "--alpha", "2.5", "--alpha2", "6.2", "--T", "5",
                 "--steps", "16", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "flagged_points_alpha2=17\n" in out
    assert "flagged_points=" not in out
    lines = read(tmp_path / "pointer_trace.csv").decode().splitlines()
    header = lines[0].split(",")
    for name in ("reading_alpha2", "wv_re_alpha2"):
        col = header.index(name)
        assert [ln.split(",")[col] for ln in lines[1:]] == ["0.0"] * 17


def test_an_all_zero_plot_is_written_and_deterministic(tmp_path):
    # both post-selections fall below the overlap floor, so fig2 draws two
    # all-zero columns on a flat y range
    args = ["pointer-trace", "--dim", "128", "--alpha", "6.2", "--alpha2", "6.5", "--T", "5",
            "--steps", "16", "--plot"]
    for run in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / run)]) == 0
    svg = read(tmp_path / "a" / "fig2.svg")
    assert svg.count(b"<polyline") == 2
    assert svg == read(tmp_path / "b" / "fig2.svg")


def test_sketch_matches_quadrature_oracle(tmp_path):
    assert main(["sketch", "--bin-width", "0.1", "--L", "4", "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "sketch.csv").decode().splitlines()
    assert lines[0] == "bin_center,probability"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 80
    for center, prob in rows[::13]:
        oracle, _ = integrate.quad(lambda x: np.exp(-x * x) / np.sqrt(np.pi),
                                   center - 0.05, center + 0.05)
        assert prob == pytest.approx(oracle, abs=1e-8)
    total = sum(p for _, p in rows)
    assert total == pytest.approx(1.0, abs=1e-4)   # [-4, 4] misses only the tails


@pytest.mark.parametrize("state", [[], ["--n", "5"], ["--alpha", "2.5"]])
def test_sketch_does_not_depend_on_dim(state, tmp_path):
    # the README sketch flags at dim 64 and 128: no bin moves beyond 1e-12
    probs = {}
    for dim in ("64", "128"):
        out = tmp_path / dim
        assert main(["sketch", "--bin-width", "0.1", "--L", "4", *state, "--dim", dim,
                     "--out", str(out)]) == 0
        lines = read(out / "sketch.csv").decode().splitlines()[1:]
        probs[dim] = np.array([float(ln.split(",")[1]) for ln in lines])
    assert probs["64"].size == 80
    assert np.max(np.abs(probs["64"] - probs["128"])) <= 1e-12


def test_correspondence_does_not_depend_on_dim(tmp_path):
    # the README correspondence run: <50|P|50> needs phi_0..phi_50 at the edges only
    csv = {}
    for dim in ("64", "128", "256"):
        assert main(["correspondence", "--n", "50", "--a", "2", "--b", "4", "--dim", dim,
                     "--out", str(tmp_path / dim)]) == 0
        csv[dim] = read(tmp_path / dim / "correspondence.csv")
    assert csv["64"] == csv["128"] == csv["256"]


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"beta": 1.0, "dim": 32}))
    assert main(["thermal", "--config", str(config), "--beta", "2.0",
                 "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "thermal.csv").decode().splitlines()
    w0 = float(lines[1].split(",")[1])
    w1 = float(lines[2].split(",")[1])
    assert w1 / w0 == pytest.approx(np.exp(-2.0), abs=1e-12)   # flag wins over config


def test_config_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bogus": 1}))
    assert main(["thermal", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


# refusals whose value a command line spells too: named -> (experiment, each text
# of a flag value or --sweep token that spells the config value)
SPELLED_ALIKE = {
    "dim=32.9": ("thermal", "32.9"),
    "dim=1.5 is not a valid int": ("thermal", "1.5"),
    "dim='abc' is not a valid int": ("thermal", "abc"),
    "dim=inf is not a valid int": ("thermal", "inf"),
    "dim=nan is not a valid int": ("thermal", "nan"),
    "dim=100000000000000000000 exceeds the bound 16384": ("thermal", "1e20",
                                                          "100000000000000000000"),
    "beta='two' is not a valid float": ("thermal", "two"),
    # the digits of 10**400 read as inf, in a config as on a command line
    "beta=inf is not finite": ("thermal", "inf", "1" + "0" * 400),
    "omega=nan is not finite": ("pointer-trace", "nan"),
    "seed=1.5 is not a valid int": ("ergodic", "1.5"),
    "max_index=inf is not a valid int": ("heisenberg-projector", "1e400"),
    "n_list='4,x' is not a valid list": ("zeno", "4,x"),
    "n_list=[0] is not a valid list": ("zeno", "0"),
    "n_list=[] is not a valid list": ("zeno", ","),
    "n_list=[4, 0] is not a valid list": ("zeno", "4,0"),
    "n_list=[4, 100000000000000] exceeds the bound 65536": ("zeno", "4,100000000000000"),
}


@pytest.mark.parametrize("config, named", [
    ({"alpha": 3}, "thermal does not take 'alpha'"),
    ({"dim": 32, "n_list": "4,8"}, "thermal does not take 'n_list'"),
    ({"beta": True}, "beta=True is not a valid float"),
    ({"dim": [16]}, "dim=[16] is not a valid int"),
    ({"dim": 32.9}, "dim=32.9"),
    ({"dim": True}, "dim=True"),
    ({"beta": "2"}, "beta='2'"),
    ({"beta": None}, "beta=None"),
    ({"beta": 10 ** 400}, "beta=inf is not finite"),
    ({"dim": 1.5}, "dim=1.5 is not a valid int"),
    ({"dim": "abc"}, "dim='abc' is not a valid int"),
    ({"dim": math.inf}, "dim=inf is not a valid int"),
    ({"dim": math.nan}, "dim=nan is not a valid int"),
    ({"beta": "two"}, "beta='two' is not a valid float"),
    ({"beta": math.inf}, "beta=inf is not finite"),
    ({"omega": math.nan}, "omega=nan is not finite"),
    ({"zero_point": True}, "thermal does not take 'zero_point'"),
    ({"seed": 1.5}, "seed=1.5 is not a valid int"),
    ({"max_index": math.inf}, "max_index=inf is not a valid int"),
    ({"n_list": "4,x"}, "n_list='4,x' is not a valid list"),
    ({"n_list": "0"}, "n_list=[0] is not a valid list"),
    ({"n_list": ","}, "n_list=[] is not a valid list"),
    ({"n_list": [4, 0]}, "n_list=[4, 0] is not a valid list"),
    ({"dim": 1e20}, "dim=100000000000000000000 exceeds the bound 16384"),
    ({"n_list": [4, 10 ** 14]}, "n_list=[4, 100000000000000] exceeds the bound 65536"),
])
def test_config_value_rejected_and_named(config, named, tmp_path, capsys):
    # a value a command line spells too is refused with the same line as a flag
    # and as a one-value sweep; n_list is not swept
    experiment, *texts = SPELLED_ALIKE.get(named, ("thermal",))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([experiment, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error ({experiment}): ") and named in err, err
    for text in texts:
        (key, _), = config.items()
        forms = [["--sweep", f"{key}={text}"]] if key != "n_list" else []
        forms.append([f"--{key.replace('_', '-')}={text}"])
        for form in forms:
            assert main([experiment, *form, "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == err
    assert not any(tmp_path.glob("**/*.csv"))


@pytest.mark.parametrize("experiment, key, value", [
    # these build their basis at omega = 1: a density in oscillator units, a dwell
    # fraction, and outputs that see omega only through omega T, omega t or beta omega
    *(pytest.param(experiment, "omega", 2, id=experiment)
      for experiment in ("sketch", "correspondence", "zeno", "heisenberg-projector",
                         "thermal", "ergodic")),
    # two-state reads only the schedule's times, which no ramp moves
    pytest.param("two-state", "ramp", 0.1, id="two-state-ramp"),
    # heisenberg-projector builds its k = max_index levels only
    pytest.param("heisenberg-projector", "dim", 32, id="heisenberg-projector-dim"),
])
def test_omega_is_refused_where_no_output_depends_on_it(experiment, key, value, tmp_path,
                                                         capsys):
    # from a flag, a config or a sweep alike
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    flag = "--" + key.replace("_", "-")
    for source in ([flag, str(value)], ["--config", str(config)],
                   ["--sweep", f"{key}={value},{2 * value}"]):
        assert main([experiment, *source, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error ({experiment}): {experiment} does not take {key!r}")
    assert not any(tmp_path.glob("**/*.csv"))


def test_the_zero_point_is_no_cli_flag(tmp_path, capsys):
    # it multiplies every state by a global phase only; the library's
    # OscillatorBasis(include_zero_point=True) chooses it
    with pytest.raises(SystemExit) as exc:
        main(["thermal", "--zero-point", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --zero-point" in capsys.readouterr().err


def test_config_and_sweep_values_keep_their_type(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dim": 16.0, "n_list": [4, 8], "T": 3}))
    assert main(["zeno", "--config", str(config), "--out", str(tmp_path / "c")]) == 0
    for dim in ("16", "16.0", "1.6e1"):   # a flag takes an integral float as a config does
        assert main(["zeno", "--dim", dim, "--n-list", "4,8", "--T", "3",
                     "--out", str(tmp_path / dim)]) == 0
        assert read(tmp_path / "c" / "zeno.csv") == read(tmp_path / dim / "zeno.csv")


def test_a_sweep_token_keeps_every_digit_of_an_integer(tmp_path):
    # 2**53 + 1 has no float: read as one, the sweep ran seed 2**53
    base = ["ergodic", "--n-samples", "101", "--ensemble-n", "100", "--periods", "3"]
    assert main(base + ["--sweep", "seed=9007199254740993,3", "--out", str(tmp_path / "s")]) == 0
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
        "seed=3", "seed=9007199254740993"]
    assert main(base + ["--seed", "9007199254740993", "--out", str(tmp_path / "f")]) == 0
    assert (read(tmp_path / "s" / "seed=9007199254740993" / "ergodic.csv")
            == read(tmp_path / "f" / "ergodic.csv"))


@pytest.mark.parametrize("experiment, key, text, code", [
    ("heisenberg-projector", "a", "-1" + "0" * 400, 0),
    ("heisenberg-projector", "a", "-1" + "0" * 5000, 0),
    ("thermal", "beta", "1" + "0" * 5000, 2),
    ("thermal", "dim", "1" + "0" * 5000, 2),
], ids=["a-401-digits", "a-5001-digits", "beta-5001-digits", "dim-5001-digits"])
def test_a_config_integer_reads_as_its_digits_on_a_command_line(experiment, key, text, code,
                                                                 tmp_path, capsys):
    # beyond the float range the digits read as -inf or inf, and past Python's
    # 4,300-digit int limit they read as a float, as a flag's do
    (tmp_path / "cfg.json").write_text(f'{{"{key}": {text}}}')
    runs = []
    for name, given in (("config", ["--config", str(tmp_path / "cfg.json")]),
                        ("flag", [f"--{key}={text}"])):
        assert main([experiment, *given, "--out", str(tmp_path / name)]) == code
        csv = [read(path) for path in (tmp_path / name).glob("*.csv")]
        runs.append((capsys.readouterr().err, csv))
    assert runs[0] == runs[1]
    err, csv = runs[0]
    assert csv if code == 0 else err.startswith(f"usage error ({experiment}): {key}=")


@pytest.mark.parametrize("key", sorted(LIMITS))
def test_a_size_at_its_bound_is_taken(key):
    # the bound itself is accepted, the next integer refused by name before any run
    experiment = next(e for e, run in RUNNERS.items() if key in inspect.signature(run).parameters)
    flag, limit = "--" + key.replace("_", "-"), LIMITS[key]
    parser = build_parser()
    (_, params), = merge_params(parser.parse_args([experiment, f"{flag}={limit}"]))
    assert params[key] == ([limit] if key == "n_list" else limit)
    with pytest.raises(UsageError, match=rf"^{key}=\[?{limit + 1}\]? exceeds the bound {limit}$"):
        merge_params(parser.parse_args([experiment, f"{flag}={limit + 1}"]))


def test_a_null_config_value_keeps_a_none_default(tmp_path, capsys):
    # null leaves alpha2 at its None default; seed has no other default to take
    (tmp_path / "alpha2.json").write_text('{"alpha2": null}')
    args = ["pointer-trace", "--T", "5", "--steps", "16", "--out"]
    assert main(args + [str(tmp_path / "c"), "--config", str(tmp_path / "alpha2.json")]) == 0
    assert main(args + [str(tmp_path / "f")]) == 0
    assert read(tmp_path / "c" / "pointer_trace.csv") == read(tmp_path / "f" / "pointer_trace.csv")
    (tmp_path / "seed.json").write_text('{"seed": null}')
    capsys.readouterr()
    assert main(["ergodic", "--config", str(tmp_path / "seed.json"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error (ergodic): seed=None: ")


def test_sketch_draws_number_or_coherent_state(tmp_path):
    for label, extra in [("default", []), ("n0", ["--n", "0"]), ("alpha0", ["--alpha", "0"]),
                         ("n1", ["--n", "1"]), ("alpha1", ["--alpha", "1"])]:
        assert main(["sketch", "--L", "2", *extra, "--out", str(tmp_path / label)]) == 0
    csv = {p.name: read(p / "sketch.csv") for p in tmp_path.iterdir()}
    assert csv["default"] == csv["n0"] == csv["alpha0"]   # |alpha=0> is |0>
    assert len({csv["default"], csv["n1"], csv["alpha1"]}) == 3


def test_config_invalid_json_rejected(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    assert main(["thermal", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_module_precondition_maps_to_usage_exit(tmp_path, capsys):
    # thermal tail too fat for the truncation: named precondition, exit 2
    code = main(["thermal", "--beta", "0.1", "--dim", "64", "--out", str(tmp_path)])
    assert code == 2
    assert "thermal tail" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["pointer-trace", "--dim", "1"],
    ["pointer-trace", "--steps", "1"],
    ["pointer-trace", "--omega", "0"],
    ["two-state", "--w", "0"],
    ["pointer-trace", "--ramp", "0.7"],
    ["sketch", "--n", "64"],
    ["bipartite", "--pointer-sigma", "0"],
    ["thermal", "--beta", "0"],
    ["ergodic", "--seed", "1", "--amplitude", "0"],
    ["bipartite", "--omega", "0"],
    ["correspondence", "--n", "-1"],
    ["correspondence", "--n-samples", "0"],
    ["zeno", "--T", "0", "--coupling", "0.3"],
    ["zeno", "--T", "-3"],
    ["bipartite", "--shift-tol", "-1", "--dim", "16", "--T", "2", "--steps", "64"],
    # parameters the experiment does not take
    ["heisenberg-projector", "--alpha", "3"],
    ["thermal", "--T", "5"],
    ["ergodic", "--seed", "1", "--dim", "8"],
    ["thermal", "--sweep", "T=1,2"],
    ["sketch", "--n", "3", "--alpha", "1"],
    # malformed sweep values
    ["thermal", "--sweep", "dim=32,0x40"],
    ["thermal", "--sweep", "dim=32,32.5"],
    ["thermal", "--sweep", "beta=1,two"],
    # sketch bins that do not tile [-L, L], or too many of them
    ["sketch", "--bin-width", "0.3", "--L", "4"],
    ["sketch", "--bin-width", "20", "--L", "4"],
    ["sketch", "--bin-width", "inf"],
    ["sketch", "--L", "inf"],
    ["sketch", "--bin-width", "1e-9"],
    ["heisenberg-projector", "--T", "inf"],
    # float values that are not finite, or a phase that overflows
    ["zeno", "--T", "inf"],
    ["zeno", "--T", "1e308"],
    ["zeno", "--coupling", "nan"],
    ["heisenberg-projector", "--t", "inf"],
    ["two-state", "--omega", "inf"],
    ["pointer-trace", "--T", "inf"],
    ["two-state", "--T", "nan"],
    ["thermal", "--beta", "inf"],
    ["bipartite", "--T", "inf"],
    ["bipartite", "--pointer-sigma", "inf"],
    ["thermal", "--sweep", "beta=1,inf"],
    # counts below 1 name the flag
    ["heisenberg-projector", "--max-index", "0"],
    ["heisenberg-projector", "--max-index", "-1"],
    ["ergodic", "--seed", "1", "--periods", "0"],
    ["ergodic", "--seed", "1", "--periods", "-3"],
    ["correspondence", "--periods", "0"],
    # a window of periods 2 pi that overflows to inf
    ["ergodic", "--seed", "1", "--periods", "1e308"],
    # correspondence builds its basis at omega = 1 and takes no --omega
    ["correspondence", "--omega", "1e-308"],
])
def test_invalid_parameter_is_usage_exit(args, tmp_path, capsys):
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["sketch", "--alpha", "inf"],
                                  ["pointer-trace", "--alpha", "nan"]])
def test_non_finite_alpha_is_named(args, tmp_path, capsys):
    # any RuntimeWarning on the way would fail the test (filterwarnings = error)
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    (["heisenberg-projector", "--T", "1e308"], "T=1e+308"),
    (["heisenberg-projector", "--t", "1e308"], "t=1e+308"),
    (["heisenberg-projector", "--t=-1e308"], "t=-1e+308"),
    (["pointer-trace", "--T", "1e308"], "T=1e+308"),
    (["two-state", "--T", "1e308", "--steps", "16"], "T=1e+308"),
    (["bipartite", "--T", "1e308", "--dim", "16"], "T=1e+308"),
])
def test_overflowing_phase_is_named(args, named, tmp_path, capsys):
    # finite times whose phase E_max T overflows the float range at dim 64, or at
    # the 20 levels of heisenberg-projector's default max_index
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "overflows" in err and named in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, named", [
    pytest.param(["sketch", "--dim", "16", "--alpha", "1e308"], "alpha=1e+308",
                 id="sketch-alpha"),
    pytest.param(["sketch", "--dim", "16", "--alpha=-1e308"], "alpha=-1e+308",
                 id="sketch-negative-alpha"),
    pytest.param(["pointer-trace", "--dim", "32", "--alpha", "1e308"], "alpha=(1e+308",
                 id="pointer-trace-alpha"),
    pytest.param(["pointer-trace", "--dim", "32", "--alpha", "1", "--steps", "8",
                  "--T", "5e-324"], "duration=", id="pointer-trace-T"),
    pytest.param(["pointer-trace", "--dim", "32", "--alpha", "1", "--delta", "1e308"], None,
                 id="pointer-trace-delta"),
    pytest.param(["pointer-trace", "--dim", "32", "--alpha", "1", "--delta=-1e308"], None,
                 id="pointer-trace-negative-delta"),
    pytest.param(["heisenberg-projector", "--max-index", "8", "--T", "5e-324"], None,
                 id="heisenberg-T"),
    # the top energy omega (dim - 1) overflows, named before any phase warns
    *(pytest.param([experiment, "--dim", "12", "--omega", "1e308"], "omega=1e+308",
                   id=f"{experiment}-omega")
      for experiment in ("pointer-trace", "bipartite", "two-state")),
    pytest.param(["bipartite", "--dim", "12", "--pointer-sigma", "5e-324"],
                 "pointer sigma=4.94066e-324", id="bipartite-sigma"),
    # finite momenta whose kick phase cannot resolve a radian: refused before the ladder
    pytest.param(["bipartite", "--dim", "12", "--T", "2", "--steps", "16",
                  "--pointer-sigma", "1e-300"], "pointer_sigma, shift_tol: pointer sigma=1e-300",
                 id="bipartite-sigma-unresolvable"),
    *(pytest.param(["thermal", "--dim", "12", "--beta", value], "beta*omega=",
                   id=f"thermal--beta-{value}")
      for value in ("5e-324", "1e-300")),
    pytest.param(["thermal", "--dim", "12", "--beta", "1e308"], None, id="thermal-beta"),
    # named T, where zeno_protect_sim's own check would name the duration
    pytest.param(["zeno", "--dim", "12", "--T", "1e308"], "T=1e+308", id="zeno-T"),
    pytest.param(["pointer-trace", "--dim", "32", "--alpha", "1", "--alpha2", "1e308"],
                 "alpha2: coherent amplitude", id="pointer-trace-alpha2"),
    # a truncation refusal names its flag and shows alpha as a plain number
    pytest.param(["pointer-trace", "--dim", "16", "--alpha", "1", "--alpha2", "40",
                  "--steps", "16"],
                 "alpha2: coherent state alpha=40 ", id="pointer-trace-alpha2-truncation"),
    pytest.param(["two-state", "--dim", "16", "--T", "5", "--steps", "16", "--alpha", "40"],
                 "alpha: coherent state alpha=40 ", id="two-state-alpha-truncation"),
    # named by correspondence itself, not as the recurrence's count n + 1 = 0
    pytest.param(["correspondence", "--n", "-1"], "n, n_samples, periods: n must be >= 0, got -1",
                 id="correspondence-negative-n"),
    # the schedule refuses it first, as it did before the simulation checked steps
    pytest.param(["bipartite", "--dim", "12", "--steps", "1"],
                 "T, ramp, steps: steps must be >= 2, got 1", id="bipartite-steps"),
    # the rate 1e10 / 1e-300 overflows: it warned in eigh's input and exited 2 with
    # "Eigenvalues did not converge"
    pytest.param(["zeno", "--dim", "16", "--a", "0", "--coupling", "1e10", "--T", "1e-300"],
                 "T, coupling: the coupling rate coupling/duration=inf is not finite",
                 id="zeno-coupling-rate"),
    # numpy's seed sequence would raise ValueError, exit 1
    pytest.param(["ergodic", "--seed=-1"], "seed=-1", id="ergodic-seed"),
    # sizes beyond LIMITS: a traceback (an int too large for a float, numpy's
    # maximum array size or a 728 TiB allocation), another key's name, or a
    # loop that does not end
    pytest.param(["thermal", "--dim", "1" + "0" * 400], "dim=1" + "0" * 400 + " exceeds",
                 id="thermal-dim-401-digits"),
    pytest.param(["thermal", "--dim", "1e20"], "dim=100000000000000000000 exceeds",
                 id="thermal-dim-1e20"),
    pytest.param(["sketch", "--dim", "1e20"], "dim=100000000000000000000 exceeds",
                 id="sketch-dim-1e20"),
    pytest.param(["pointer-trace", "--steps", "100000000000000000000"],
                 "steps=100000000000000000000 exceeds", id="pointer-trace-steps"),
    pytest.param(["zeno", "--dim", "12", "--n-list", "100000000000000"],
                 "n_list=[100000000000000] exceeds", id="zeno-n-list"),
    pytest.param(["ergodic", "--seed", "3", "--n-samples", "100000000000000000000"],
                 "n_samples=100000000000000000000 exceeds", id="ergodic-n-samples"),
    pytest.param(["ergodic", "--seed", "3", "--ensemble-n", "100000000000000"],
                 "ensemble_n=100000000000000 exceeds", id="ergodic-ensemble-n"),
    pytest.param(["correspondence", "--n", "100000000000000"], "n=100000000000000 exceeds",
                 id="correspondence-n"),
    # the closed form's prefactor e^((|alpha|^2 - x0^2)/2) overflows from |alpha| = 37.7
    # at x0 = 1; it wrote nan and inf cells and exited 0
    pytest.param(["pointer-trace", "--alpha", "40", "--dim", "2400", "--steps", "16",
                  "--T", "10"], "alpha, x0: alpha=40.0, x0=1.0", id="pointer-trace-closed-form"),
])
def test_extreme_values_are_refused_or_stay_finite(args, named, tmp_path, capsys):
    # a refusal exits 2, names the value and writes no CSV; a run that goes
    # ahead writes no NaN or infinite cell
    code = main(args + ["--out", str(tmp_path)])
    if named:
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"usage error ({args[0]}): ") and named in err, err
        assert not any(tmp_path.glob("**/*.csv"))
        return
    assert code == 0
    rows = read(next(tmp_path.glob("*.csv"))).decode().splitlines()[1:]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_largest_finite_phase_runs(tmp_path):
    # (max_index - 1) T = 15e307 is still finite: every cell is a number
    assert main(["heisenberg-projector", "--max-index", "16", "--T", "1e307", "--t", "1e307",
                 "--out", str(tmp_path)]) == 0
    rows = read(tmp_path / "heisenberg_projector.csv").decode().splitlines()[1:]
    assert len(rows) == 256
    assert all(np.isfinite(float(cell)) for row in rows for cell in row.split(","))


# small flags on which each experiment runs in a few milliseconds at dim 8 to 16;
# the fuzz tests below set one float or int flag on top of them
FUZZ_BASE = {
    "sketch": ["--dim", "12"],
    "pointer-trace": ["--dim", "16", "--steps", "16", "--alpha", "1"],
    "heisenberg-projector": ["--max-index", "4"],
    "bipartite": ["--dim", "12", "--T", "2", "--steps", "16"],
    "zeno": ["--dim", "12", "--n-list", "4,8"],
    "thermal": ["--dim", "12", "--beta", "4"],
    "two-state": ["--dim", "16", "--T", "5", "--steps", "16", "--alpha", "1"],
    "ergodic": ["--seed", "1", "--n-samples", "101", "--ensemble-n", "100", "--periods", "3"],
    "correspondence": ["--n", "3", "--dim", "16", "--n-samples", "101", "--periods", "3"],
}


def fuzz_flags(kind):
    return [(experiment, "--" + name.replace("_", "-"))
            for experiment, runner in RUNNERS.items()
            for name in inspect.signature(runner).parameters if PARAMS[name][0] is kind]


FUZZ_VALUES = ["0", "-0", "5e-324", "-5e-324", "1e-300", "1e308", "-1e308", "inf", "-inf",
               "nan"]
# no large positive ints: --dim or --steps would allocate that many entries
FUZZ_INTS = [str(-2 ** 63), "-2", "-1", "0", "1", "2", "3"]
FUZZ_PREFIXES = {2: ("usage error",), 3: ("numerical failure",)}


# 39 float flags x 10 values = 390 pairs of a few ms each; 500 derandomized examples
# reach every pair
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(flag=st.sampled_from(fuzz_flags(float)), value=st.sampled_from(FUZZ_VALUES))
def test_one_extreme_float_flag_exits_as_documented(flag, value):
    exits_as_documented(*flag, value)


# 20 int flags x 7 values = 140 pairs; 200 derandomized examples reach every pair
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(flag=st.sampled_from(fuzz_flags(int)), value=st.sampled_from(FUZZ_INTS))
def test_one_extreme_int_flag_exits_as_documented(flag, value):
    exits_as_documented(*flag, value)


def leading_keys(err):
    """The comma list of keys that starts a refusal's message, after its "(<experiment>): "."""
    head, sep, _ = err.partition("): ")[2].partition(": ")
    return head.split(", ") if sep else []


def exits_as_documented(experiment, name, value):
    """Exit 0 with every CSV cell finite, or exit 2 or 3 with its prefix; any
    RuntimeWarning on the way fails the test (filterwarnings = error).  An
    exit 2 names the flag's key, in the keys that start the message or as key=."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([experiment, *FUZZ_BASE[experiment], f"{name}={value}", "--out", out])
        cells = [cell for path in Path(out).glob("*.csv")
                 for row in path.read_text().splitlines()[1:] for cell in row.split(",")]
    if code == 0:
        assert cells and all(math.isfinite(float(cell)) for cell in cells)
    else:
        assert code in FUZZ_PREFIXES, err.getvalue()
        assert err.getvalue().startswith(tuple(f"{prefix} ({experiment}): "
                                               for prefix in FUZZ_PREFIXES[code]))
        key = name[2:].replace("-", "_")   # "beta*omega=" does not name omega
        assert code == 3 or key in leading_keys(err.getvalue()) or re.search(
            rf"(?<![\w*]){key}=", err.getvalue()), err.getvalue()


# refusals the library words in its own terms ("duration", "region", "extent"):
# the message starts with the keys whose values the refused call checked
@pytest.mark.parametrize("args, key", [
    pytest.param(["pointer-trace", "--T", "0"], "T", id="T-duration"),
    pytest.param(["heisenberg-projector", "--T", "0"], "T", id="T-averaging-window"),
    pytest.param(["two-state", "--T", "5e-324", "--steps", "8"], "T", id="T-plateau-height"),
    pytest.param(["bipartite", "--ramp", "0.7"], "ramp", id="ramp-fraction"),
    pytest.param(["zeno", "--a", "2", "--b", "1"], "a", id="a-region"),
    pytest.param(["heisenberg-projector", "--b", "-inf"], "b", id="b-region"),
    pytest.param(["two-state", "--x0", "1e308"], "x0", id="x0-region"),
    pytest.param(["pointer-trace", "--w", "0"], "w", id="w-region"),
    pytest.param(["sketch", "--L", "0"], "L", id="L-extent"),
    pytest.param(["sketch", "--bin-width", "0.3"], "bin_width", id="bin-width-extent"),
    # |<alpha=7|U(T)|0>| = e^{-49/2} = 2.3e-11, below the 1e-8 floor on the
    # overlap that the two-state density divides by
    pytest.param(["two-state", "--alpha", "7", "--dim", "128", "--T", "20", "--steps", "8"],
                 "alpha", id="alpha-overlap-floor"),
])
def test_a_refusal_in_library_terms_names_its_flag(args, key, tmp_path, capsys):
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error ({args[0]}): ") and key in leading_keys(err), err
    assert not any(tmp_path.glob("**/*.csv"))


def test_interval_ends_take_a_leading_dash(tmp_path):
    # '--a -inf' is one flag and its value, as '--a=-inf' is
    for name, ends in (("sep", ["--a", "-inf", "--b", "-0.5"]),
                       ("eq", ["--a=-inf", "--b=-0.5"])):
        assert main(["heisenberg-projector", "--max-index", "16", *ends,
                     "--out", str(tmp_path / name)]) == 0
    csv = read(tmp_path / "sep" / "heisenberg_projector.csv")
    assert csv == read(tmp_path / "eq" / "heisenberg_projector.csv")
    p00 = float(csv.splitlines()[1].split(b",")[2])
    assert p00 == pytest.approx(0.5 * math.erfc(0.5), abs=1e-14)   # <0|P_(-inf,-0.5]|0>
    assert main(["zeno", "--dim", "16", "--a", "-1e3", "--b", "-inf",
                 "--out", str(tmp_path / "zeno")]) == 2
    # so is any flag that takes a value and a number in exponent form
    for name, args in (("delta", ["pointer-trace", "--delta", "-1e-3", "--T", "5",
                                  "--steps", "16"]),
                       ("t", ["heisenberg-projector", "--max-index", "16", "--t", "-1e3"])):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
        eq = [a + "=" + b for a, b in zip(args[1::2], args[2::2])]
        assert main(args[:1] + eq + ["--out", str(tmp_path / (name + "_eq"))]) == 0
        out = args[0].replace("-", "_") + ".csv"
        assert read(tmp_path / name / out) == read(tmp_path / (name + "_eq") / out)


def test_interval_end_tokens_leave_other_flags_alone():
    # only a number after a flag that takes a value is joined
    argv = ["--t", "-1", "--a", "-inf", "--b", "-2e3", "--plot", "-3", "--out", "-x",
            "--a", "--b", "1"]
    assert _join_negative_values(build_parser(), argv) == [
        "--t=-1", "--a=-inf", "--b=-2e3", "--plot", "-3", "--out", "-x", "--a", "--b", "1"]


def test_library_fault_is_not_a_usage_error(tmp_path, monkeypatch):
    def fault(*args):
        raise ValueError("injected fault")
    monkeypatch.setattr(protmeas.weak, "_overlap", fault)
    with pytest.raises(ValueError, match="injected fault"):
        main(["pointer-trace", "--T", "20", "--steps", "16", "--out", str(tmp_path)])


def test_numerical_failure_exit_code(tmp_path):
    code = main(["bipartite", "--T", "2", "--steps", "64", "--dim", "16",
                 "--shift-tol", "0", "--out", str(tmp_path)])
    assert code == 3


def test_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["thermal", "--out", str(blocker / "sub")])
    assert code == 4


def test_zeno_experiment_runs(tmp_path):
    assert main(["zeno", "--dim", "16", "--T", str(np.pi), "--n-list", "4,8",
                 "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "zeno.csv").decode().splitlines()
    assert lines[0] == "n_protections,survival,max_op_jump"
    s4 = float(lines[1].split(",")[1])
    assert s4 == pytest.approx(np.cos(np.pi / 8) ** 8, abs=1e-12)


def test_sweep_runs_per_value(tmp_path):
    assert main(["thermal", "--dim", "32", "--sweep", "beta=1,2",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "beta=1" / "thermal.csv").exists()
    assert (tmp_path / "beta=2" / "thermal.csv").exists()


@pytest.mark.parametrize("args, values, subdir", [
    (["heisenberg-projector", "--T", "100", "--max-index", "2",
      "--sweep", "t=1.0000001,1.0000002"], "1.0000001 and 1.0000002", "t=1"),
    (["correspondence", "--sweep", "n=50,50"], "50 and 50", "n=50"),
], ids=["float", "int"])
def test_sweep_values_sharing_a_subdirectory_are_refused(args, values, subdir, tmp_path,
                                                          capsys):
    # each value would overwrite the one before in the same subdirectory
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"values {values} would both write to {tmp_path / subdir}" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_output_lines_in_sweep_order(tmp_path, capsys):
    assert main(["pointer-trace", "--T", "20", "--steps", "128",
                 "--sweep", "x0=1,1.5", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.count("final_trivial=") <= 1 for line in lines)
    csv = [tmp_path / f"x0={x0}" / "pointer_trace.csv" for x0 in ("1", "1.5")]
    seen = ["final_trivial" if line.startswith("final_trivial=") else line
            for line in lines if line.startswith(("final_trivial=", "wrote "))]
    assert seen == ["final_trivial", f"wrote {csv[0]}", "final_trivial", f"wrote {csv[1]}"]


def test_two_state_experiment_consistency(tmp_path):
    assert main(["two-state", "--T", "10", "--steps", "32",
                 "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "two_state.csv").decode().splitlines()
    cols = lines[0].split(",")
    i_direct = cols.index("wv_direct_re")
    i_trace = cols.index("wv_trace_re")
    for ln in lines[1:]:
        cells = [float(v) for v in ln.split(",")]
        assert cells[i_direct] == pytest.approx(cells[i_trace], abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(T=st.floats(0.5, 50.0), alpha=st.floats(0.5, 3.0), delta=st.floats(-np.pi, np.pi))
@example(T=20.0, alpha=2.5, delta=0.0)   # the README flags: 32.156...
def test_two_state_herm_defect_is_the_overlap_constant(T, alpha, delta):
    # with normalized k(t) and b(t), b.k is the time-independent overlap
    # <Phi|U(T)|0>, so ||rho - rho^dagger||_F = sqrt(2 (1/|den|^2 - 1)) in every row;
    # |den| is the |0> amplitude of the truncated coherent post-selection
    den = abs(protmeas.coherent_state(protmeas.OscillatorBasis(dim=64),
                                      alpha * np.exp(1j * delta)).amplitudes[0])
    want = np.sqrt(2.0 * (1.0 / den ** 2 - 1.0))
    with tempfile.TemporaryDirectory() as out:
        assert main(["two-state", f"--T={T!r}", f"--alpha={alpha!r}",
                     f"--delta={delta!r}", "--steps", "16", "--out", out]) == 0
        lines = read(Path(out) / "two_state.csv").decode().splitlines()
    col = lines[0].split(",").index("herm_defect")
    assert len(lines) - 1 == 17
    for ln in lines[1:]:
        assert float(ln.split(",")[col]) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dim", [64, 128])
def test_two_state_rows_match_the_library_density(tmp_path, dim):
    # the runner reads each row off k(t) and b(t) (`two_state_readings`); the dense
    # rank-one density of the test oracle is the reference.  Where A_w passes near 0 the trace is a cancelling sum, its terms
    # sum_mn |b_m P_mn k_n| / |b.k| up to 2.2e4 |A_w| here: against an 80-bit evaluation
    # the density path is off by 7.7e-13 there and the vector path by 2.3e-12, both
    # relative.  So A_w is held to 1e-12 of the larger of |A_w| and that scale
    assert main(["two-state", "--dim", str(dim), "--T", "20", "--steps", "64",
                 "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "two_state.csv").decode().splitlines()
    cols = lines[0].split(",")
    basis = protmeas.OscillatorBasis(dim=dim)
    pre = protmeas.number_state(basis, 0)
    post = protmeas.coherent_state(basis, PARAMS["alpha"][1]).dual()
    x0, w = PARAMS["x0"][1], PARAMS["w"][1]
    P = protmeas.projector_matrix(protmeas.IntervalRegion(x0 - w / 2, x0 + w / 2), basis)
    assert len(lines) - 1 == 65
    for line in lines[1:]:
        row = dict(zip(cols, map(float, line.split(","))))
        rho = two_state_density(pre, post, row["t [s]"], 20.0)
        want = weak_value_from_density(P, rho)
        got = complex(row["wv_trace_re"], row["wv_trace_im"])
        terms = np.sum(np.abs(P.entries * rho.T))
        assert abs(got - want) <= 1e-12 * max(abs(want), terms), (row["t [s]"], got, want)
        assert row["herm_defect"] == pytest.approx(hermiticity_defect(rho), rel=1e-12)


def test_two_state_herm_defect_of_a_trivial_post_selection(tmp_path):
    # pre and post are both |0>, with E_0 = 0: k and b are exactly e_0, so the part
    # of b orthogonal to k is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["two-state", "--alpha", "0", "--T", "20", "--steps", "64",
                     "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "two_state.csv").decode().splitlines()
    col = lines[0].split(",").index("herm_defect")
    defects = [float(line.split(",")[col]) for line in lines[1:]]
    assert len(defects) == 65 and all(d == 0.0 for d in defects)


def test_two_state_runs_the_requested_steps(tmp_path):
    assert main(["two-state", "--steps", "600", "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "two_state.csv").decode().splitlines()
    assert len(lines) - 1 == 601


def test_heisenberg_experiment_bound_column(tmp_path):
    assert main(["heisenberg-projector", "--T", "100", "--max-index", "32",
                 "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "heisenberg_projector.csv").decode().splitlines()
    cols = lines[0].split(",")
    ia, ib = cols.index("avg_re"), cols.index("avg_im")
    ibound = cols.index("bound")
    im, _in = cols.index("m"), cols.index("n")
    for ln in lines[1:]:
        cells = [float(v) for v in ln.split(",")]
        if cells[im] != cells[_in]:
            assert np.hypot(cells[ia], cells[ib]) <= cells[ibound] + 1e-15


# --------------------------------------------------------- what loads when

def modules_after(code: str) -> set:
    """The names in sys.modules after `code` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(protmeas.__file__).parents[1]))
    probe = f"{code}\nimport sys; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


LAYERS = {f"protmeas.{name}" for name in ("oscillator", "quadrature", "projectors", "weak",
                                           "simulation", "twostate", "ergodicity", "tables",
                                           "svgplot")}


def test_cli_import_leaves_scipy_unloaded():
    assert "scipy" not in modules_after("import protmeas.cli")


@pytest.mark.parametrize("code, layers", [("import protmeas", set()),
                                         ("import protmeas.cli", {"protmeas.oscillator"})])
def test_an_import_loads_numpy_and_no_other_layer(code, layers):
    # numpy loads at one BLAS thread with the package, and each layer on first
    # use; the CLI loads the oscillator, which every command runs
    loaded = modules_after(code)
    assert "numpy" in loaded and loaded & LAYERS == layers


# a small run of each command, and the layer modules it loads beyond sketch's
COMMAND_LAYERS = [
    (["sketch", "--dim", "12"], set()),
    (["heisenberg-projector", "--max-index", "4"], set()),
    (["pointer-trace", "--dim", "32", "--T", "2", "--steps", "16"], {"weak"}),
    (["pointer-trace", "--dim", "32", "--T", "2", "--steps", "16", "--plot"],
     {"weak", "svgplot"}),
    (["zeno", "--dim", "12", "--n-list", "4"], {"weak", "simulation"}),
    (["bipartite", "--dim", "12", "--T", "2"], {"weak", "simulation"}),
    (["thermal", "--dim", "32"], {"weak", "twostate"}),
    (["two-state", "--dim", "32", "--T", "2", "--steps", "16"], {"weak", "twostate"}),
    (["ergodic", "--seed", "1", "--n-samples", "1001", "--ensemble-n", "1000"], {"ergodicity"}),
    (["correspondence", "--n", "5", "--dim", "16", "--n-samples", "1001"], {"ergodicity"}),
]


def test_a_command_loads_only_the_layers_it_runs(tmp_path):
    # each command in a fresh process: the package, cli, errors and the layers it
    # runs, and no numpy.polynomial (bipartite's four nodes are constants)
    assert {argv[0] for argv, _ in COMMAND_LAYERS} == set(RUNNERS)
    for argv, extra in COMMAND_LAYERS:
        argv = [*argv, "--out", str(tmp_path / "-".join(argv))]
        loaded = modules_after(f"from protmeas.cli import main; assert main({argv!r}) == 0")
        layers = {"oscillator", "quadrature", "projectors", "tables", *extra}
        assert {m for m in loaded if m.startswith("protmeas")} == {
            "protmeas", "protmeas.cli", "protmeas.errors", *(f"protmeas.{m}" for m in layers)}, argv
        assert "numpy.polynomial" not in loaded, argv
    assert "protmeas.simulation" in modules_after("import protmeas; protmeas.simulation")


# the names `protmeas` exports, by the module that defines each
EXPORTS = {
    "errors": ["NumericalError", "PostSelectionError", "ProtmeasError", "TruncationError",
               "UsageError"],
    "oscillator": ["DualState", "OscillatorBasis", "StateVector", "coherent_state", "evolve",
                   "hamiltonian", "hermite_functions", "number_state", "position_wavefunction"],
    "projectors": ["IntervalRegion", "ProjectorMatrix", "bin_edges", "dephasing_bound",
                   "heisenberg_projector", "projector_matrix", "time_averaged_projector"],
    "quadrature": ["bin_probabilities", "interval_diagonal"],
    "weak": ["MeasurementSchedule", "PointerTrace", "closed_form_pvi_weak", "expectation",
             "pointer_trace", "weak_value_series"],
    "simulation": ["BipartiteResult", "ZenoResult", "bipartite_protective_sim",
                   "zeno_protect_sim"],
    "twostate": ["thermal_purification", "thermal_weights", "two_state_readings"],
    "ergodicity": ["DwellReport", "classical_dwell_fraction", "classical_ensemble_average",
                   "classical_time_average", "correspondence_check", "dwell_report"],
}


def test_each_public_name_is_its_modules_object():
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(protmeas, name) is getattr(sys.modules[f"protmeas.{module}"], name)
            assert name in vars(protmeas)   # a second read is a plain attribute lookup
    star = {}
    exec("from protmeas import *", star)
    exported = {name for names in EXPORTS.values() for name in names}
    assert set(protmeas.__all__) == set(star) - {"__builtins__"} == exported
    assert exported <= set(dir(protmeas))
    with pytest.raises(AttributeError, match="^module 'protmeas' has no attribute 'nope'$"):
        protmeas.nope


# -------------------------------------------------------------- README CLI

README = Path(__file__).parents[1] / "README.md"


def readme_commands() -> list:
    """The argv of every `protmeas ...` line of the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("protmeas ")]


def test_readme_commands_are_accepted():
    # every README command parses and merges
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(RUNNERS)
    parser = build_parser()
    for argv in commands:
        assert merge_params(parser.parse_args(argv))


# flags that make a README command cheap, where its experiment takes them
SMALL = {"dim": "32", "steps": "64", "n_samples": "1001", "ensemble_n": "1000"}
INT_COLUMNS = {"n_protections", "steps_used", "m", "n"}


@pytest.mark.parametrize("argv", readme_commands(),
                         ids=lambda argv: argv[argv.index("--out") + 1].split("/")[-1])
def test_readme_command_writes_whole_columns(argv, tmp_path):
    # integer columns print without a dot, every other cell as repr(float(v)),
    # and a rerun writes the same bytes, SVG plots included
    taken = inspect.signature(RUNNERS[argv[0]]).parameters
    small = [a for k, v in SMALL.items() if k in taken for a in ("--" + k.replace("_", "-"), v)]
    argv, out = list(argv), argv.index("--out") + 1
    for run in ("a", "b"):
        argv[out] = str(tmp_path / run)
        assert main(argv + small + ["--plot"]) == 0
    a, b = ([p.relative_to(tmp_path / run) for p in sorted((tmp_path / run).rglob("*"))
             if p.is_file()] for run in ("a", "b"))
    assert a == b
    for name in a:
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)
        if name.suffix != ".csv":
            continue
        header, *rows = read(tmp_path / "a" / name).decode().splitlines()
        for column, cells in zip(header.split(","), zip(*(r.split(",") for r in rows))):
            kind = int if column.split(" [")[0] in INT_COLUMNS else float
            assert all(repr(kind(c)) == c for c in cells), column


def test_readme_python_example_runs(tmp_path, capsys):
    # the README's python block uses only the public API; its reading is the
    # final_alpha of the README Fig. 1 command, which takes the same inputs
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    reading = capsys.readouterr().out.strip()
    assert main(["pointer-trace", "--alpha", "2.5", "--x0", "1", "--omega", "1", "--T", "100",
                 "--w", "0.05", "--out", str(tmp_path)]) == 0
    assert f"final_alpha={reading}" in capsys.readouterr().out.splitlines()


def test_readme_lists_each_experiments_parameters():
    rows = re.findall(r"^\| `([\w-]+)` +\| (.*) \|$", README.read_text(encoding="utf-8"), re.M)
    listed = {name: {flag.replace("-", "_") for flag in re.findall(r"`--([\w-]+)`", cells)}
              for name, cells in rows}
    assert listed == {name: set(inspect.signature(run).parameters)
                      for name, run in RUNNERS.items()}


def test_bipartite_steps_default_to_the_ladder_start(tmp_path):
    # the README's bracket and a run without --steps both read simulation.LADDER_START
    from protmeas.simulation import LADDER_START
    assert f"`--steps` [{LADDER_START}]" in README.read_text(encoding="utf-8")
    for name, extra in (("default", []), ("given", ["--steps", str(LADDER_START)])):
        assert main(["bipartite", "--dim", "12", "--T", "2", *extra,
                     "--out", str(tmp_path / name)]) == 0
    csv = [read(tmp_path / name / "bipartite.csv") for name in ("default", "given")]
    assert csv[0] == csv[1]


# ---------------------------------------------------------------- benchmark

def worker_spans(tmp_path, *argv, trace=True) -> list:
    """The spans of one `perfbench/worker.py cli` run of `argv`, writing to tmp_path."""
    root = Path(__file__).parents[1]
    result = tmp_path / "R.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "cli", "--result", str(result),
         *(["--trace"] if trace else []), "--", *argv, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(result.read_text(encoding="utf-8"))["spans"]


def test_benchmark_worker_traces_bipartite(tmp_path):
    # the benchmark worker binds bipartite_protective_sim's `steps` argument
    # and its result's steps_used and final_norm; renaming any of them
    # breaks every benchmark run
    spans = worker_spans(tmp_path, "bipartite", "--dim", "16", "--T", "2", "--steps", "64",
                         trace=False)
    spans = [s for s in spans if s["name"] == "simulation.bipartite_protective_sim"]
    assert len(spans) == 1
    assert spans[0]["steps"] == 64 and spans[0]["steps_used"] >= 128
    assert spans[0]["norm"] == pytest.approx(1.0, abs=1e-10)


def test_tracer_observers_read_parameters_and_fields_that_exist():
    # perfbench/tracer.py's observers read arguments of wrapped functions by
    # name and fields of their results; only a traced benchmark run calls
    # them, so a rename would fail there alone.  The file is read, not run
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    observers = next(node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name == "_observers")
    table = next(node.value for node in ast.walk(observers) if isinstance(node, ast.Return))
    # their functions are gone; the next change to the benchmark drops or re-points them
    gone = {"quadrature.panel_nodes", "ergodicity.uniform_phase_ensemble"}
    arguments, fields = set(), set()
    for key, observe in zip(table.keys, table.values):
        module, *path = key.value.split(".")
        owner = importlib.import_module(f"protmeas.{module}")
        if key.value in gone:
            assert not hasattr(owner, path[0]), key.value
            continue
        fn = functools.reduce(getattr, path, owner)
        args, result = (arg.arg for arg in observe.args.args)
        for node in ast.walk(observe.body):
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == args:
                assert node.slice.value in inspect.signature(fn).parameters, key.value
                arguments.add(node.slice.value)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == result:
                returned = typing.get_type_hints(fn)["return"]
                assert node.attr in {f.name for f in dataclasses.fields(returned)}, key.value
                fields.add(node.attr)
    assert arguments >= {"n_max", "x", "times", "pre", "steps", "n_protections", "n_samples",
                         "data", "argv"}
    assert fields >= {"steps_used", "final_norm"}


def test_benchmark_worker_traces_sketch(tmp_path):
    # `--trace 1` wraps the public functions of protmeas.quadrature by name;
    # sketch takes its bins from the shared edges, not from a projector per bin
    names = [s["name"] for s in worker_spans(tmp_path, "sketch", "--bin-width", "0.1", "--L", "4")]
    assert names.count("quadrature.bin_probabilities") == 1
    assert "projectors.projector_matrix" not in names


def test_benchmark_worker_traces_pointer_trace(tmp_path):
    # the runner calls the library through the package's names, which the tracer
    # must still see: a run with no spans would pass the smoke run's checks
    spans = worker_spans(tmp_path, "pointer-trace", "--T", "2", "--steps", "16")
    names = [s["name"] for s in spans]
    assert names.count("weak.pointer_trace") == 2
    assert names.count("weak.weak_value_series") == 2
    assert names.count("projectors.projector_matrix") == 1


def test_benchmark_worker_traces_correspondence(tmp_path):
    # the dwell probability comes off the diagonal recurrence: no projector, no expectation
    spans = worker_spans(tmp_path, "correspondence", "--n", "50", "--a", "2", "--b", "4",
                         "--dim", "128")
    names = [s["name"] for s in spans]
    assert names.count("quadrature.interval_diagonal") == 1
    assert "projectors.projector_matrix" not in names
    assert "weak.expectation" not in names
