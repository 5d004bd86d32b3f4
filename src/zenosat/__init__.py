"""Measurement-driven (Zeno-dragging) k-SAT simulator and experiment CLI."""

__version__ = "0.1.0"

from .satcore import (  # noqa: F401
    Assignment,
    CnfFormula,
    SatError,
    SolutionSet,
    enumerate_solutions,
    evaluate,
    parse_dimacs,
    random_instance,
    random_unique_solution_instance,
    write_dimacs,
)
from .encoding import ClauseSet, Schedule  # noqa: F401
from .dynamics import average_map, kraus_measure, lindblad_step, sme_step  # noqa: F401
from .herald import FilterConfig, FilterState, detect_failure  # noqa: F401
from .solver import (  # noqa: F401
    RunConfig,
    RunOutcome,
    readout,
    run_average,
    run_full,
    run_heralded_restart,
    run_heralded_single,
    success_probability,
)
from .metrics import (  # noqa: F401
    ScalingFit,
    fit_lambda,
    n_star,
    phase_transition_curve,
    tts_99,
    tts_with_readout,
)
