"""Absorption probabilities of stopped multitype branching processes.

Exact dynamic programming over capped state spaces, spectral analysis of
the offspring mean matrix, generating-function iteration, Monte Carlo
estimators, and the cyclic limit diagnostics for large initial
populations.
"""

from stopbp.model import (
    BranchingModel,
    ModelFormatError,
    ModelValidationError,
    OffspringLaw,
    PopulationState,
    StoppingSet,
    dump_model,
    load_model,
    parse_state,
    unit_state,
    zero_state,
)
from stopbp.exact_engine import (
    CapacityError,
    enumerate_states,
    one_step_kernel,
    restricted_kernel,
    stop_coefficients,
)
from stopbp.spectral import (
    classify,
    first_moments,
    moment_asymptotics,
    moments,
    perron_triple,
    second_moments,
    survival_constant,
    survival_constants,
)
from stopbp.genfun import (
    eval_h,
    iterate_h,
    make_s_grid,
    ratio_limit,
    survival_path,
    yaglom,
    yaglom_residual,
)
from stopbp.montecarlo import (
    estimate_absorption,
    estimate_yaglom,
)
from stopbp.asymptotics import (
    build_cyclic_model,
    eval_Hj,
    fit_cyclic_amplitudes,
    periodicity_probe,
)

__version__ = "0.1.0"

__all__ = [
    "BranchingModel",
    "CapacityError",
    "ModelFormatError",
    "ModelValidationError",
    "OffspringLaw",
    "PopulationState",
    "StoppingSet",
    "build_cyclic_model",
    "classify",
    "dump_model",
    "enumerate_states",
    "estimate_absorption",
    "estimate_yaglom",
    "eval_Hj",
    "eval_h",
    "first_moments",
    "fit_cyclic_amplitudes",
    "iterate_h",
    "load_model",
    "make_s_grid",
    "moment_asymptotics",
    "moments",
    "one_step_kernel",
    "parse_state",
    "periodicity_probe",
    "perron_triple",
    "ratio_limit",
    "restricted_kernel",
    "second_moments",
    "stop_coefficients",
    "survival_constant",
    "survival_constants",
    "survival_path",
    "unit_state",
    "yaglom",
    "yaglom_residual",
    "zero_state",
    "__version__",
]
