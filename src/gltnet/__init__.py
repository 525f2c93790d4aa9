"""General linear threshold diffusion on networks.

Simulation of propagation traces, constrained maximum-likelihood weight
estimation, statistical inference, structural diagnostics, and greedy
influence maximization, under node-specific threshold distributions that
include the classic linear-threshold and independent-cascade models as
special cases.
"""

from .graph import (
    Graph,
    GraphError,
    SeedDistribution,
    build_graph,
    children_of_set,
    generate_cws,
    sample_seed,
    sample_weights_simplex,
)
from .thresholds import (
    ThresholdSpec,
    make_beta,
    make_exponential_unit,
    make_uniform,
)
from .model import (
    EnumerationCapError,
    ExactSpreadOracle,
    GltModel,
    ModelError,
    Trace,
    ZeroProbabilityError,
    enumerate_feasible_traces,
    exact_spread,
    from_ic,
    from_lt,
    simulate_trace,
    simulate_traces,
    trace_log_probability,
    transition_probability,
    validate_trace,
)
from .likelihood import (
    NodeData,
    PseudoTrace,
    build_all_node_data,
    build_node_data,
    build_pseudo_node_data,
    node_gradient,
    node_hessian,
    node_log_likelihood,
)
from .estimation import (
    EstimationError,
    FitOptions,
    NodeFitResult,
    baseline_ptp,
    baseline_wc,
    fit_all,
    fit_node,
    fit_with_threshold_grid,
)
from .inference import (
    CovarianceResult,
    InferenceError,
    Interval,
    activation_probability_interval,
    node_covariance,
    weight_difference_test,
    weight_intervals,
)
from .diagnostics import (
    IdentifiabilityReport,
    TriggeringEmbedding,
    check_identifiability,
    check_monotonicity_exact,
    check_submodularity_exact,
    solve_triggering_embedding,
)
from .influence import (
    ImSolution,
    InfluenceError,
    SpreadEstimate,
    estimate_spread_mc,
    greedy_im,
    im_solution_gap,
    optimal_seed_set,
    spread_bipartite_closed_form,
)
from .metrics import rmae

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
