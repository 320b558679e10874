"""Protective measurements on a harmonic oscillator with pre- and post-selection."""

from .errors import (NumericalError, PostSelectionError, ProtmeasError,
                     TruncationError, UsageError)
from .oscillator import (DualState, OscillatorBasis, StateVector, backward_state,
                         coherent_state, evolve, hamiltonian, hermite_functions,
                         number_state, overlap, position_wavefunction)
from .projectors import (FULL_LINE, IntervalRegion, ProjectorMatrix, bin_edges,
                         heisenberg_projector, projector_matrix,
                         time_averaged_projector)
from .quadrature import bin_probabilities, interval_diagonal
from .weak import (MeasurementSchedule, PointerTrace, closed_form_pvi_weak,
                   expectation, pointer_trace, weak_value, weak_value_series)
from .simulation import (BipartiteResult, PointerGrid, ZenoResult,
                         bipartite_protective_sim, zeno_protect_sim)
from .twostate import (DensityMatrix, TwoStateDensity, sample_thermal_eigenstate,
                       thermal_density, thermal_pointer_rate,
                       thermal_purification, two_state_canonical,
                       two_state_density, von_neumann_residual,
                       weak_value_from_density)
from .ergodicity import (ClassicalEnsemble, DwellReport, classical_dwell_fraction,
                         classical_ensemble_average, classical_time_average,
                         correspondence_check, uniform_phase_ensemble)

__version__ = "0.1.0"
