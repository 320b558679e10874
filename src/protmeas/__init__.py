"""Protective measurements on a harmonic oscillator with pre- and post-selection."""

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

from .errors import (NumericalError, PostSelectionError, ProtmeasError,
                     TruncationError, UsageError)
from .oscillator import (DualState, OscillatorBasis, StateVector, coherent_state, evolve,
                         hamiltonian, hermite_functions, number_state, position_wavefunction)
from .projectors import (IntervalRegion, ProjectorMatrix, bin_edges, dephasing_bound,
                         heisenberg_projector, projector_matrix, time_averaged_projector)
from .quadrature import bin_probabilities, interval_diagonal
from .weak import (MeasurementSchedule, PointerTrace, closed_form_pvi_weak,
                   expectation, pointer_trace, weak_value_series)
from .simulation import (BipartiteResult, ZenoResult, bipartite_protective_sim,
                         zeno_protect_sim)
from .twostate import thermal_purification, thermal_weights, two_state_readings
from .ergodicity import (DwellReport, classical_dwell_fraction, classical_ensemble_average,
                         classical_time_average, correspondence_check, dwell_report)

__version__ = "0.1.0"
