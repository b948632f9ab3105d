"""Reduced-order distributed observers for LTI plants over directed networks.

Synthesis of the order Nn - sum(p_i) observer network, numerical certificates
(cancellation identity, feasibility LMI, invariant-subspace algebra, and the
Lyapunov decrease that certifies the decay rate), and deterministic
simulation of the coupled dynamics.
"""

from .error_system import certify, verify_cancellation
from .graph import (
    GraphStructureError,
    NetworkGraph,
    is_strongly_connected,
    laplacian,
    perron_row_vector,
)
from .linalg import (
    FullRankFactorization,
    NodeDecomposition,
    full_rank_factorize,
    observability_decomposition,
    observability_matrix,
    solve_lyapunov,
    spectral_abscissa,
)
from .problem import (
    ProblemFile,
    ProblemFormatError,
    graph_from_fragment,
    load_problem,
    load_realization,
    problem_from_dict,
    realization_from_dict,
    realization_to_dict,
    save_realization,
    write_trace_csv,
)
from .simulate import (
    SimulationConfig,
    SimulationDiverged,
    SimulationTrace,
    check_invariance,
    estimate_rate,
    simulate,
)
from .synthesis import (
    NodeGains,
    ObserverRealization,
    Plant,
    SynthesisError,
    assemble_gains,
    compute_epsilon,
    decompose_nodes,
    place_injection,
    select_gamma,
    solve_pie,
    synthesize,
)

__version__ = "0.1.0"
