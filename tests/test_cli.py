import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

import protmeas
from protmeas.cli import RUNNERS, build_parser, main, merge_params
from protmeas.svgplot import emit_plot
from protmeas.tables import ResultTable


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ------------------------------------------------------------------- tables

def test_table_round_trip(tmp_path):
    t = ResultTable(["n", "value"], ["", "s"], int_columns=frozenset(["n"]))
    t.add_row(1, 0.5)
    t.add_row(2, 0.25)
    path = tmp_path / "t.csv"
    t.write_csv(path)
    text = read(path).decode()
    assert text == "n,value [s]\n1,0.5\n2,0.25\n"
    assert t.column("value") == [0.5, 0.25]
    with pytest.raises(KeyError, match="nope"):
        t.column("nope")


def test_table_rejects_ragged_rows():
    t = ResultTable(["a", "b"], ["", ""])
    with pytest.raises(ValueError):
        t.add_row(1.0)


def test_no_partial_files_left(tmp_path):
    t = ResultTable(["a"], [""])
    t.add_row(1.0)
    t.write_csv(tmp_path / "out.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


# --------------------------------------------------------------------- svg

def test_svg_single_series(tmp_path):
    t = ResultTable(["x", "y"], ["", ""])
    for i in range(10):
        t.add_row(float(i), float(i * i))
    data = emit_plot(t, "x", ["y"], tmp_path / "p.svg")
    assert data.startswith(b"<svg")
    assert data.count(b"<polyline") == 1
    assert b"Date" not in data


def test_svg_missing_column_named(tmp_path):
    t = ResultTable(["x"], [""])
    t.add_row(1.0)
    with pytest.raises(KeyError, match="ghost"):
        emit_plot(t, "x", ["ghost"], tmp_path / "p.svg")


def test_svg_deterministic_bytes(tmp_path):
    t = ResultTable(["x", "y", "z"], ["s", "", ""])
    for i in range(50):
        t.add_row(i * 0.1, np.sin(i * 0.1), np.cos(i * 0.1))
    a = emit_plot(t, "x", ["y", "z"], tmp_path / "a.svg")
    b = emit_plot(t, "x", ["y", "z"], tmp_path / "b.svg")
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
    for dim in ("128", "256"):
        assert main(["correspondence", "--n", "50", "--a", "2", "--b", "4", "--dim", dim,
                     "--out", str(tmp_path / dim)]) == 0
        csv[dim] = read(tmp_path / dim / "correspondence.csv")
    assert csv["128"] == csv["256"]


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


@pytest.mark.parametrize("config, named", [
    ({"alpha": 3}, "thermal does not take 'alpha'"),
    ({"dim": 32, "n_list": "4,8"}, "thermal does not take 'n_list'"),
    ({"zero_point": "false"}, "zero_point='false'"),
    ({"zero_point": 0}, "zero_point=0"),
    ({"dim": 32.9}, "dim=32.9"),
    ({"dim": True}, "dim=True"),
    ({"beta": "2"}, "beta='2'"),
    ({"beta": None}, "beta=None"),
    ({"beta": 10 ** 400}, "beta=1000"),
])
def test_config_value_rejected_and_named(config, named, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["thermal", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "usage error (thermal)" in err and named in err
    assert not (tmp_path / "thermal.csv").exists()


def test_config_and_sweep_values_keep_their_type(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dim": 16.0, "zero_point": True, "n_list": [4, 8],
                                  "T": 3}))
    assert main(["zeno", "--config", str(config), "--out", str(tmp_path / "c")]) == 0
    assert main(["zeno", "--dim", "16", "--zero-point", "--n-list", "4,8", "--T", "3",
                 "--out", str(tmp_path / "f")]) == 0
    assert read(tmp_path / "c" / "zeno.csv") == read(tmp_path / "f" / "zeno.csv")
    assert main(["thermal", "--dim", "32", "--sweep", "zero_point=false,true",
                 "--out", str(tmp_path / "s")]) == 0
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
        "zero_point=False", "zero_point=True"]


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
    ["two-state", "--ramp", "0.7"],
    ["sketch", "--n", "64"],
    ["bipartite", "--pointer-points", "100"],
    ["thermal", "--beta", "0"],
    ["ergodic", "--seed", "1", "--amplitude", "0"],
    ["ergodic", "--seed", "1", "--omega", "0"],
    ["correspondence", "--n", "65"],
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
    ["thermal", "--sweep", "zero_point=0,1"],
    ["thermal", "--sweep", "dim=32,32.5"],
    ["thermal", "--sweep", "beta=1,two"],
    # sketch bins that do not tile [-L, L], or too many of them
    ["sketch", "--bin-width", "0.3", "--L", "4"],
    ["sketch", "--bin-width", "20", "--L", "4"],
    ["sketch", "--bin-width", "inf"],
    ["sketch", "--L", "inf"],
    ["sketch", "--bin-width", "1e-9"],
    ["heisenberg-projector", "--T", "inf"],
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


def test_library_fault_is_not_a_usage_error(tmp_path, monkeypatch):
    def fault(*args):
        raise ValueError("injected fault")
    monkeypatch.setattr(protmeas.weak, "post_selection_overlap", fault)
    with pytest.raises(ValueError, match="injected fault"):
        main(["pointer-trace", "--T", "20", "--steps", "16", "--out", str(tmp_path)])


def test_numerical_failure_exit_code(tmp_path):
    code = main(["bipartite", "--T", "2", "--steps", "64", "--dim", "16",
                 "--pointer-points", "64", "--shift-tol", "0",
                 "--out", str(tmp_path)])
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


def test_two_state_runs_the_requested_steps(tmp_path):
    assert main(["two-state", "--steps", "600", "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "two_state.csv").decode().splitlines()
    assert len(lines) - 1 == 601


def test_heisenberg_experiment_bound_column(tmp_path):
    assert main(["heisenberg-projector", "--T", "100", "--dim", "32",
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


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(protmeas.__file__).parents[1]))
    code = "import sys, protmeas.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# -------------------------------------------------------------- README CLI

README = Path(__file__).parents[1] / "README.md"


def test_readme_commands_are_accepted():
    # every `protmeas ...` line of the README's sh blocks parses and merges
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("protmeas ")]
    assert {argv[0] for argv in commands} == set(RUNNERS)
    parser = build_parser()
    for argv in commands:
        assert merge_params(parser.parse_args(argv))


def test_readme_lists_each_experiments_parameters():
    rows = re.findall(r"^\| `([\w-]+)` +\| (.*) \|$", README.read_text(encoding="utf-8"), re.M)
    listed = {name: {flag.replace("-", "_") for flag in re.findall(r"`--([\w-]+)`", cells)}
              for name, cells in rows}
    assert listed == {name: set(inspect.signature(run).parameters)
                      for name, run in RUNNERS.items()}


# ---------------------------------------------------------------- benchmark

def test_benchmark_worker_traces_bipartite(tmp_path):
    # the benchmark worker binds bipartite_protective_sim's `steps` argument
    # and its result's steps_used and final_norm; renaming any of them
    # breaks every benchmark run
    root = Path(__file__).parents[1]
    result = tmp_path / "R.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "cli", "--result", str(result),
         "--", "bipartite", "--dim", "16", "--T", "2", "--steps", "64", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    report = json.loads(result.read_text(encoding="utf-8"))
    spans = [s for s in report["spans"] if s["name"] == "simulation.bipartite_protective_sim"]
    assert len(spans) == 1
    assert spans[0]["steps"] == 64 and spans[0]["steps_used"] >= 128
    assert spans[0]["norm"] == pytest.approx(1.0, abs=1e-10)


def test_benchmark_worker_traces_sketch(tmp_path):
    # `--trace 1` wraps the public functions of protmeas.quadrature by name;
    # sketch takes its bins from the shared edges, not from a projector per bin
    root = Path(__file__).parents[1]
    result = tmp_path / "R.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "cli", "--result", str(result),
         "--trace", "--", "sketch", "--bin-width", "0.1", "--L", "4", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    names = [s["name"] for s in json.loads(result.read_text(encoding="utf-8"))["spans"]]
    assert names.count("quadrature.bin_probabilities") == 1
    assert "projectors.projector_matrix" not in names


def test_benchmark_worker_traces_correspondence(tmp_path):
    # the dwell probability comes off the diagonal recurrence: no projector, no expectation
    root = Path(__file__).parents[1]
    result = tmp_path / "R.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "cli", "--result", str(result),
         "--trace", "--", "correspondence", "--n", "50", "--a", "2", "--b", "4", "--dim", "128",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    names = [s["name"] for s in json.loads(result.read_text(encoding="utf-8"))["spans"]]
    assert names.count("quadrature.interval_diagonal") == 1
    assert "projectors.projector_matrix" not in names
    assert "weak.expectation" not in names
