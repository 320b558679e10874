"""protmeas benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload {readme,bipartite,large-dim}
                             [--seed 20260809] [--seconds 10] [--trace 0|1]

Run it from the root of a protmeas checkout; the package is imported from
`src/`.  With `--trace 0` the last line of standard output is a JSON object
with `setup_s`, `wall_s`, `cpu_s` and `peak_rss_mb`; with `--trace 1` it
holds the per-layer metrics of a traced pass instead.  Progress, failed
checks and the run's environment go to standard error.  See README.md in
this directory for what each workload runs and why.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import layers
import selftest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
README_SEED = 20260809
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0      # no child may outlive this point of the run
PASS_BUDGET_S = 150.0   # no new pass starts if it would end after this point


class RunError(Exception):
    """The run cannot produce a result (missing code, crash, timeout)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Starts children one at a time and reads their resource usage."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.start = time.monotonic()
        self.env = child_env()
        self.logs = 0

    def elapsed(self):
        return time.monotonic() - self.start

    def run(self, argv, check_rc=True):
        """Run argv to its end; returns (rc, wall, cpu, peak_rss_mb, log text)."""
        self.logs += 1
        log_path = self.tmp / f"child-{self.logs}.log"
        with open(log_path, "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT, env=self.env)
        killer = threading.Timer(max(DEADLINE_S - self.elapsed(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildProcessError:
            raise RunError(f"{argv[1:3]} was killed at the run deadline") from None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = log_path.read_text(errors="replace")
        if proc.returncode < 0:
            raise RunError(f"{argv[1:3]} ended by signal {-proc.returncode}\n{text}")
        if check_rc and proc.returncode != 0:
            raise RunError(f"{argv} exited with {proc.returncode}\n{text}")
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, text)

    def worker(self, mode, result, *extra, argv=(), check_rc=True):
        cmd = [sys.executable, str(WORKER), mode, "--result", str(result), *extra]
        if argv:
            cmd += ["--", *argv]
        out = self.run(cmd, check_rc=check_rc)
        try:
            with open(result, encoding="utf-8") as fh:
                return out, json.load(fh)
        except (OSError, ValueError):
            raise RunError(f"{mode} worker left no result\n{out[4]}") from None


# ---------------------------------------------------------------- set-up

def setup_seconds(runner):
    """Median time from starting an interpreter to `import protmeas.cli` done.

    Parent and child read the same CLOCK_MONOTONIC; the first, untimed
    import fills the page cache (and the bytecode cache, where one is kept).
    """
    code = "import protmeas.cli, time; print(repr(time.monotonic()))"
    runner.run([sys.executable, "-c", code])
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        text = runner.run([sys.executable, "-c", code])[4]
        samples.append(float(text.split()[-1]) - t0)
    return statistics.median(samples)


def import_times(runner):
    """Cumulative `-X importtime` seconds of protmeas.cli and protmeas.oscillator."""
    found = {"protmeas.cli": [], "protmeas.oscillator": []}
    for _ in range(IMPORTTIME_SAMPLES):
        text = runner.run([sys.executable, "-X", "importtime", "-c", "import protmeas.cli"])[4]
        for line in text.splitlines():
            match = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if match and match.group(3) in found:
                found[match.group(3)].append(int(match.group(2)) * 1e-6)
    return {"cli.import_s": statistics.median(found["protmeas.cli"]),
            "oscillator.import_s": statistics.median(found["protmeas.oscillator"])}


# ---------------------------------------------------------------- workloads

def readme_commands(seed):
    """The README's commands with its flags; the seed feeds `ergodic --seed`."""
    return [
        ("fig1", ["pointer-trace", "--alpha", "2.5", "--x0", "1", "--omega", "1",
                  "--T", "100", "--w", "0.05", "--plot"]),
        ("fig2", ["pointer-trace", "--alpha", "2.5", "--alpha2", "1.0", "--plot"]),
        ("fig3", ["pointer-trace", "--sweep", "x0=1,1.5"]),
        ("sketch", ["sketch", "--bin-width", "0.1", "--L", "4"]),
        ("heis", ["heisenberg-projector", "--T", "100"]),
        ("zeno", ["zeno", "--T", "3.141592653589793", "--n-list", "4,8,16,32,64,128,256"]),
        ("thermal", ["thermal", "--beta", "1"]),
        ("twostate", ["two-state", "--T", "20", "--steps", "128"]),
        ("ergodic", ["ergodic", "--seed", str(seed)]),
        ("corr", ["correspondence", "--n", "50", "--a", "2", "--b", "4", "--dim", "128"]),
    ]


def _outputs(out_dir):
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def check_readme(files):
    """Independent checks of one readme pass; returns (failures, diagnostics)."""
    failures, diag = [], {}

    def rows(name):
        if name not in files:
            raise KeyError(f"{name} was not written")
        return checks.read_csv(files[name])

    def guarded(label, fn):
        try:
            failures.extend(fn())
        except (KeyError, ValueError, IndexError) as exc:
            failures.append(f"{label}: unreadable output ({exc})")

    for name, x0 in (("fig1/pointer_trace.csv", 1.0), ("fig2/pointer_trace.csv", 1.0),
                     ("fig3/x0=1/pointer_trace.csv", 1.0),
                     ("fig3/x0=1.5/pointer_trace.csv", 1.5)):
        guarded(name, lambda: checks.check_trivial_reading(
            rows(name)[-1]["reading_trivial"], x0, 0.05))
    guarded("sketch", lambda: checks.check_sketch(rows("sketch/sketch.csv"), 0.1))
    guarded("heisenberg", lambda: checks.check_heisenberg(
        rows("heis/heisenberg_projector.csv")))
    guarded("thermal", lambda: checks.check_thermal(rows("thermal/thermal.csv"), 1.0, 64))
    guarded("two-state", lambda: checks.check_two_state(rows("twostate/two_state.csv")))
    guarded("zeno", lambda: checks.check_zeno(
        [r["survival"] for r in rows("zeno/zeno.csv")]))

    def ergodic():
        r = rows("ergodic/ergodic.csv")[0]
        return (checks.check_fraction("ergodic analytic fraction",
                                      r["analytic_fraction"], 1.0, 0.5, 1.0)
                + checks.check_sampled_fraction("ergodic time average",
                                                r["time_average"], 1.0, 0.5, 1.0, 100_001)
                + checks.check_sampled_fraction("ergodic ensemble average",
                                                r["ensemble_average"], 1.0, 0.5, 1.0,
                                                100_000))
    guarded("ergodic", ergodic)
    guarded("correspondence", lambda: checks.check_fraction(
        "correspondence classical fraction",
        rows("corr/correspondence.csv")[0]["classical_fraction"],
        math.sqrt(101.0), 2.0, 4.0))

    def trace_formula_err():
        diag["trace_formula_err"] = max(
            abs(complex(r["wv_direct_re"], r["wv_direct_im"])
                - complex(r["wv_trace_re"], r["wv_trace_im"]))
            for r in rows("twostate/two_state.csv"))
        return []
    guarded("two-state", trace_formula_err)
    return failures, diag


def readme_pass(runner, seed, index, traced, want_env):
    tag = f"{'traced-' if traced else ''}{index}"
    out = runner.tmp / f"readme-{tag}"
    commands = readme_commands(seed)
    walls, cpus, rss, groups, failures, env = [], [], [], [], [], None
    for label, argv in commands:
        extra = ["--trace"] if traced else []
        if want_env and env is None:
            extra.append("--env")
        (rc, wall, cpu, peak, text), res = runner.worker(
            "cli", runner.tmp / f"{label}-{tag}.json", *extra,
            argv=[*argv, "--out", str(out / label)], check_rc=False)
        env = env or res.get("env")
        if rc != 0:
            failures.append(f"readme {label} exited with {rc}: {text.strip()[-400:]}")
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        groups.append(res.get("spans", []))
    files = _outputs(out)
    shutil.rmtree(out)
    more, diag = check_readme(files)
    return {"wall": walls, "cpu": cpus, "rss": max(rss),
            "attempted": len(commands), "failed": 0, "failures": failures + more,
            "files": files, "spans": groups, "diag": diag, "env": env}


def bipartite_pass(runner, seed, index, traced, want_env):
    tag = f"{'traced-' if traced else ''}{index}"
    out = runner.tmp / f"bipartite-{tag}"
    extra = (["--trace"] if traced else []) + (["--env"] if want_env else [])
    (rc, wall, cpu, peak, text), res = runner.worker(
        "cli", runner.tmp / f"bipartite-{tag}.json", *extra,
        argv=["bipartite", "--sweep", "T=20,40", "--out", str(out)], check_rc=False)
    failures = [] if rc == 0 else [f"bipartite exited with {rc}: {text.strip()[-400:]}"]
    spans = res.get("spans", [])
    norms = [s["norm"] for s in spans
             if s["name"] == "simulation.bipartite_protective_sim" and not s["error"]]
    try:
        by_T = {T: checks.read_csv((out / f"T={T}" / "bipartite.csv").read_bytes())[0]
                for T in (20, 40)}
        failures += checks.check_bipartite(by_T, norms)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        failures.append(f"bipartite: unreadable output ({exc})")
    shutil.rmtree(out, ignore_errors=True)
    return {"wall": [wall], "cpu": [cpu], "rss": peak, "attempted": 1, "failed": 0,
            "failures": failures, "files": {}, "spans": [spans], "diag": {},
            "env": res.get("env")}


def large_dim_passes(runner, seed, seconds, traced, want_env):
    """Every pass of one large-dim worker process."""
    extra = ["--seed", str(seed), "--seconds", str(seconds)]
    extra += (["--trace"] if traced else []) + (["--env"] if want_env else [])
    name = "large-dim-traced.json" if traced else "large-dim.json"
    _, res = runner.worker("large-dim", runner.tmp / name, *extra)
    passes = []
    for p in res["passes"]:
        passes.append({"wall": [p["wall"]], "cpu": [p["cpu"]], "rss": res["peak_rss_mb"],
                       "attempted": p["attempted"], "failed": len(p["failed"]),
                       "failures": p["failures"], "failed_ops": p["failed"],
                       "files": {}, "spans": [res.get("spans", [])], "diag": p["diag"],
                       "env": res.get("env")})
    return passes


# an untraced readme run makes two passes or more, whose outputs must match
MIN_PASSES = {"readme": 2, "bipartite": 1, "large-dim": 1}
PASSES = {"readme": readme_pass, "bipartite": bipartite_pass}


def measure(runner, workload, seed, seconds, min_passes=1, traced=False,
            want_env=False):
    """Whole passes until `seconds` have gone by; large-dim loops in its worker."""
    if workload == "large-dim":
        return large_dim_passes(runner, seed, seconds, traced, want_env)
    passes, t0 = [], time.monotonic()
    while True:
        passes.append(PASSES[workload](runner, seed, len(passes), traced,
                                       want_env and not passes))
        if len(passes) < min_passes:
            continue
        if (time.monotonic() - t0 >= seconds
                or runner.elapsed() + sum(passes[-1]["wall"]) > PASS_BUDGET_S):
            return passes


def typical_pass(passes, key):
    """Sum over a pass's operations of each operation's median over passes."""
    return sum(statistics.median(ops) for ops in zip(*(p[key] for p in passes)))


def outcome(passes):
    """(failures, attempted, failed, failed-operation messages) over one run."""
    failures = [f for p in passes for f in p["failures"]]
    for p in passes[1:]:
        failures += checks.check_identical(passes[0]["files"], p["files"])
    failed_ops = [f for p in passes for f in p.get("failed_ops", [])]
    return (failures, sum(p["attempted"] for p in passes),
            sum(p["failed"] for p in passes), failed_ops)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("readme", "bipartite", "large-dim"))
    parser.add_argument("--seed", type=int, default=README_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: the running child is killed and scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "protmeas" / "cli.py").is_file():
        print(f"no protmeas sources under {SRC}; run from a protmeas checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    broken = selftest.run()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        runner = Runner(tmp)
        if args.trace:
            metrics = import_times(runner)
            traced = measure(runner, args.workload, args.seed, 0, traced=True,
                             want_env=True)
            # the untraced pass only gives trace.overhead_s: skip it rather
            # than run past the deadline on a slow machine
            plain = []
            if runner.elapsed() + 1.2 * sum(traced[-1]["wall"]) < DEADLINE_S:
                plain = measure(runner, args.workload, args.seed, 0)
                metrics["trace.overhead_s"] = (typical_pass(traced, "wall")
                                               - typical_pass(plain, "wall"))
            else:
                print("trace.overhead_s not measured: no time left for an untraced pass",
                      file=sys.stderr)
            passes = traced + plain
            metrics.update(layers.from_spans([g for p in traced for g in p["spans"]]))
            diag = {k: v for p in traced for k, v in p["diag"].items()}
            metrics["projectors.identity_defect"] = diag.get("identity_defect", 0.0)
            metrics["weak.sum_rule_err"] = diag.get("sum_rule_err", 0.0)
            metrics["twostate.trace_formula_err"] = diag.get("trace_formula_err", 0.0)
            wanted = spec["per_layer"]
        else:
            setup = setup_seconds(runner)
            passes = measure(runner, args.workload, args.seed, args.seconds,
                             MIN_PASSES[args.workload], want_env=True)
            metrics = {"setup_s": setup,
                       "wall_s": typical_pass(passes, "wall"),
                       "cpu_s": typical_pass(passes, "cpu"),
                       "peak_rss_mb": max(p["rss"] for p in passes)}
            wanted = spec["end_to_end"]
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    failures, attempted, failed, failed_ops = outcome(passes)
    failures += [f"benchmark self-test: {b}" for b in broken]
    env = next((p["env"] for p in passes if p.get("env")), {})
    env.update({"git_commit": git_commit(), "workload": args.workload, "seed": args.seed,
                "passes": len(passes), "pass_walls_s": [sum(p["wall"]) for p in passes]})
    print("environment " + json.dumps(env, sort_keys=True), file=sys.stderr)
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    for f in failed_ops:
        print(f"failed operation: {f}", file=sys.stderr)
    unknown = set(metrics) - {m["name"] for m in wanted}
    if unknown:
        print(f"metrics missing from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 1
    # a layer the workload never calls reads 0
    values = {m["name"]: float(metrics.get(m["name"], 0.0)) for m in wanted}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    for m in wanted:
        print(f"{m['name']:32s} {values[m['name']]:.6g} {m['unit']}", file=sys.stderr)
    print(f"attempted {attempted}, failed {failed}, correct {not failures}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
