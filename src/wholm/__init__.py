"""Weighted Holm procedures: step-down tests, closed testing, graphical
representation, adjusted p-values and Monte Carlo verification."""

__version__ = "0.1.0"

from .adjust import AdjustedReport, adjusted_wap, adjusted_whp
from .closure import (CapacityError, ConsonanceReport, CtpReport,
                      MonotonicityReport, check_consonance,
                      check_monotonicity_condition, ctp,
                      find_pvalue_monotonicity_violation, wap_local_test,
                      whp_local_test)
from .core import (OrderingKey, RejectionSet, TestingProblem,
                   load_problem_csv, validate_problem)
from .graphical import (GraphTrace, TransitionGraph, initial_graph,
                        reject_and_update, run_graphical)
from .montecarlo import (DegenerateSampleError, SimulationConfig,
                         SimulationResult, WeightScenario, estimate_sharpness,
                         lfc_stepdown_falsifier, rng_new, run_simulation,
                         sample_equicorrelated, t_sf, weight_scenario)
from .procedures import Procedure, holm_stepdown, wap_stepdown, whp_stepdown
