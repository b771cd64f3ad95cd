"""Hybrid MaxCut heuristic: cycle-relaxation LP, correlation-driven shrinking,
and a depth-1 QAOA statevector simulator with a closed-form parameter estimate."""

from .graph import (
    BRUTE_FORCE_CAP,
    ExactCutSummary,
    ParseError,
    WeightedGraph,
    brute_force,
    cut_value,
    cut_value_batch,
    dense_closure,
    format_instance,
    format_summary,
    parse_instance,
    qubo_to_maxcut,
)
from .pipeline import (
    CORRELATION_MODES,
    SUBSOLVERS,
    PipelineError,
    PipelineReport,
    SweepCell,
    approximation_ratio,
    run_pipeline,
    sweep_shrink_counts,
    sweep_to_csv,
)
from .qaoa import (
    STATEVECTOR_CAP,
    Landscape,
    QaoaParams,
    QaoaState,
    deviation_ratio,
    estimate_parameters,
    expectation_analytic,
    expectation_statevector,
    export_landscape_csv,
    grid_search,
    qaoa_state,
    sample_cuts,
)
from .relaxation import (
    FractionalSolution,
    format_solution,
    lp_solve,
    separate_odd_cycles,
    solve_cycle_relaxation,
)
from .shrink import (
    ShrinkRecord,
    ShrinkState,
    correlation_sign,
    correlations_from_relaxation,
    format_trace,
    ordered_pairs,
    shrink_to_target,
    zero_correlations,
)
from .simplex import InfeasibleError, LpProblem, SimplexError, solve_box_lp

__version__ = "0.1.0"
