"""Protective measurements on a harmonic oscillator with pre- and post-selection."""

import importlib
import os
import sys


def _import_numpy_with_one_blas_thread():
    """Import numpy with OpenBLAS at one thread, unless the caller chose already.

    At the dims this package runs, no BLAS call is large enough for a second
    thread to help, and the idle helper thread spins when the library loads
    and after each threaded call.  OpenBLAS reads these variables once, when
    it loads, so the one set here is removed after numpy's import: the
    environment of the caller and of child processes stays as it was.
    """
    if "numpy" in sys.modules or any(
            name in os.environ
            for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_with_one_blas_thread()

# the public names of each module.  A module is imported when one of its names
# (or the module itself) is first read from the package, so a process compiles
# only the layers it uses; the name is then bound here, and a second read is a
# plain attribute lookup
_EXPORTS = {
    "errors": ("NumericalError", "PostSelectionError", "ProtmeasError", "TruncationError",
               "UsageError"),
    "oscillator": ("DualState", "OscillatorBasis", "StateVector", "coherent_state", "evolve",
                   "hamiltonian", "hermite_functions", "number_state", "position_wavefunction"),
    "projectors": ("IntervalRegion", "ProjectorMatrix", "bin_edges", "dephasing_bound",
                   "heisenberg_projector", "projector_matrix", "time_averaged_projector"),
    "quadrature": ("bin_probabilities", "interval_diagonal"),
    "weak": ("MeasurementSchedule", "PointerTrace", "closed_form_pvi_weak", "expectation",
             "pointer_trace", "weak_value_series"),
    "simulation": ("BipartiteResult", "ZenoResult", "bipartite_protective_sim",
                   "zeno_protect_sim"),
    "twostate": ("thermal_purification", "thermal_weights", "two_state_readings"),
    "ergodicity": ("DwellReport", "classical_dwell_fraction", "classical_ensemble_average",
                   "classical_time_average", "correspondence_check", "dwell_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
