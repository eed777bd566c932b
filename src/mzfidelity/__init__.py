"""Phase-information analysis of a two-port Mach-Zehnder interferometer.

Quantifies how much an experimenter learns about an interferometric
phase shift per measurement: exact photon-counting outcome
probabilities for arbitrary two-mode number-state superpositions,
Bayesian phase posteriors with peak structure, the Shannon mutual
information between phase and outcomes (in bits), and a search for the
input state that maximizes it.
"""

__version__ = "0.1.0"

from .exceptions import (ResourceLimitError, StationaryPointError,
                         UndefinedCircularMeanError, ZeroProbabilityOutcomeError)
from .grid import DEFAULT_GRID_SIZE, PhaseGrid
from .optics import (DEFAULT_GEOMETRY, InterferometerGeometry, LikelihoodTable,
                     Outcome, StateCoefficients, fock_outcome_prob, fock_state,
                     likelihood_table, noon_outcome_prob, noon_state,
                     outcome_distribution)
from .bayes import (MeasurementRecord, PhasePosterior, SimulationResult,
                    circular_summary, count_peaks, posterior_density,
                    posterior_for_outcome, simulate_sequence)
from .fidelity import (FidelityReport, SensitivityEstimate,
                       error_propagation_sensitivity, fidelity_sweep,
                       heisenberg_limit, mutual_information,
                       repeated_mutual_information, standard_limit)
from .optimizer import (OptimizationResult, OptimizerConfig, optimize_input_state,
                        project_normalize)

__all__ = [
    "__version__",
    "DEFAULT_GEOMETRY",
    "DEFAULT_GRID_SIZE",
    "FidelityReport",
    "InterferometerGeometry",
    "LikelihoodTable",
    "MeasurementRecord",
    "OptimizationResult",
    "OptimizerConfig",
    "Outcome",
    "PhaseGrid",
    "PhasePosterior",
    "ResourceLimitError",
    "SensitivityEstimate",
    "SimulationResult",
    "StateCoefficients",
    "StationaryPointError",
    "UndefinedCircularMeanError",
    "ZeroProbabilityOutcomeError",
    "circular_summary",
    "count_peaks",
    "error_propagation_sensitivity",
    "fidelity_sweep",
    "fock_outcome_prob",
    "fock_state",
    "heisenberg_limit",
    "likelihood_table",
    "mutual_information",
    "noon_outcome_prob",
    "noon_state",
    "optimize_input_state",
    "outcome_distribution",
    "posterior_density",
    "posterior_for_outcome",
    "project_normalize",
    "repeated_mutual_information",
    "simulate_sequence",
    "standard_limit",
]
