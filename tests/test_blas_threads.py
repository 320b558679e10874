"""`import protmeas` loads numpy's OpenBLAS with one thread unless the caller chose.

Each case runs in a fresh interpreter, because OpenBLAS fixes its thread
count when the library loads, once per process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import protmeas

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# the thread count is read as perfbench/worker.py's _blas_threads reads it
CHILD = """
import ctypes, glob, json, os, sys
from pathlib import Path

def blas_threads():
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None

before = dict(os.environ)
first = None
if sys.argv[1] == "numpy-first":
    import numpy
    first = blas_threads()
import protmeas
getenv = ctypes.CDLL(None).getenv
getenv.argtypes, getenv.restype = [ctypes.c_char_p], ctypes.c_char_p
print(json.dumps({"threads": blas_threads(), "first": first,
                  "environ_kept": dict(os.environ) == before,
                  "c_environ": {name: (getenv(name.encode()) or b"").decode()
                                for name in %r}}))
""" % (THREAD_VARS,)


def _import_in_child(order, **env_vars):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=str(Path(protmeas.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", CHILD, order], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    seen = json.loads(out)
    # the caller's environment, and so any child process's, is what the caller set
    assert seen["environ_kept"]
    assert seen["c_environ"] == {name: env_vars.get(name, "") for name in THREAD_VARS}
    if seen["threads"] is None:
        pytest.skip("numpy does not bundle OpenBLAS here; only the environment was checked")
    return seen


def _cores():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def test_import_loads_openblas_with_one_thread():
    assert _import_in_child("protmeas")["threads"] == 1


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_count_the_caller_set_is_kept(name):
    # OpenBLAS caps the count at the cores it may run on
    assert _import_in_child("protmeas", **{name: "2"})["threads"] == min(2, _cores())


def test_numpy_imported_first_keeps_its_thread_count():
    seen = _import_in_child("numpy-first")
    assert seen["threads"] == seen["first"]
