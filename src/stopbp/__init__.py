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
    validate_model,
    zero_state,
)
from stopbp.exact_engine import (
    CapacityError,
    absorb_direct,
    absorb_via_formula,
    absorb_via_restricted,
    enumerate_states,
    limiting_absorption,
    limiting_absorptions,
    one_step_kernel,
    restricted_kernel,
    stop_coefficients,
    t_step_kernel,
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
    iterate_survival,
    make_s_grid,
    mean_dominance,
    ratio_limit,
    yaglom,
    yaglom_residual,
)
from stopbp.montecarlo import (
    estimate_absorption,
    estimate_yaglom,
    run_stopped,
    step,
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
    "absorb_direct",
    "absorb_via_formula",
    "absorb_via_restricted",
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
    "iterate_survival",
    "limiting_absorption",
    "limiting_absorptions",
    "load_model",
    "make_s_grid",
    "mean_dominance",
    "moment_asymptotics",
    "moments",
    "one_step_kernel",
    "parse_state",
    "periodicity_probe",
    "perron_triple",
    "ratio_limit",
    "restricted_kernel",
    "run_stopped",
    "second_moments",
    "step",
    "stop_coefficients",
    "survival_constant",
    "survival_constants",
    "t_step_kernel",
    "unit_state",
    "validate_model",
    "yaglom",
    "yaglom_residual",
    "zero_state",
    "__version__",
]
