"""Constructive Hamiltonian decompositions of dense regular graphs.

Pipeline: tri-partition into core/patch/residual, flow-based regular
subgraph extraction, (<=2)-factor sampling with rotation-extension into
Hamilton cycles, and exact backtracking completion, plus brute-force
counting oracles and permanent-based bound formulas for validation at
small n.

Importing the package does not load numpy: the first function that needs
it imports it.  Nothing in the package imports scipy.  The import caps the
BLAS/OpenMP pools at one thread unless the caller has set the variables: the
package's one matrix product, in the sampled robust-expander check, is
small, and on a shared host the default thread pools made such products
several times slower.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")
del _var

from .counting import (
    bregman_log_bound,
    count_decompositions_exact,
    count_hamilton_cycles_exact,
    decomposition_log_lower,
    decomposition_log_upper,
)
from .decompose import complete_residual, decompose_odd, run_pipeline
from .errors import BudgetError, HamdeckError, InfeasibleError, InputError
from .factor import (
    PartialHC,
    TwoFactor,
    sample_le2_factor,
)
from .graphs import (
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_robust_expander,
    parse_edge_list,
)
from .partition import PipelineParams, tri_partition, verify_partition
from .regularize import (
    build_flow_network,
    extract_regular_subgraph,
    max_flow,
    random_orientation,
)
from .rotation import extract_hamilton_step, merge_step, rotate_or_close
from .walecki import Decomposition, verify_decomposition, walecki_decomposition

__all__ = [
    "BudgetError",
    "Decomposition",
    "Graph",
    "HamdeckError",
    "InfeasibleError",
    "InputError",
    "PartialHC",
    "PipelineParams",
    "TwoFactor",
    "bregman_log_bound",
    "build_flow_network",
    "build_graph",
    "complete_graph",
    "complete_residual",
    "count_decompositions_exact",
    "count_hamilton_cycles_exact",
    "cycle_graph",
    "decompose_odd",
    "decomposition_log_lower",
    "decomposition_log_upper",
    "empty_graph",
    "extract_hamilton_step",
    "extract_regular_subgraph",
    "is_robust_expander",
    "max_flow",
    "merge_step",
    "parse_edge_list",
    "random_orientation",
    "rotate_or_close",
    "run_pipeline",
    "sample_le2_factor",
    "tri_partition",
    "verify_decomposition",
    "verify_partition",
    "walecki_decomposition",
]
