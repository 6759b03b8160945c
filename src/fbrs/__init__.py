"""Dense convex QP solver: a regularized, smoothed Fischer-Burmeister Newton
method with an enumeration oracle and a condensed-MPC warmstart harness."""

from .errors import (
    CholeskyFailure,
    DegenerateKkt,
    DimensionMismatch,
    EnumerationTooLarge,
    FbrsError,
    InfeasibleProblem,
    InvalidConfig,
    InvalidProblem,
    InvalidSpec,
    LinesearchError,
    MpcSequenceError,
    OracleError,
    ParseError,
    SingularSystem,
    UnboundedProblem,
)
from .fb import (
    fb_coefficients,
    phi_eps,
    residual_map,
    smoothing_gap_bound_check,
)
from .mpc import (
    BUNDLED_EXAMPLES,
    LtiMpcSpec,
    SequenceStats,
    Trajectory,
    condense,
    double_integrator,
    mass_spring_chain,
    run_sequence,
    shift_solution,
)
from .newton import (
    IterationRecord,
    NewtonSystem,
    SolverConfig,
    SolverResult,
    Status,
    assemble_system,
    fbrs_solve,
    kkt_matrix,
    linesearch,
    merit,
    merit_gradient,
    solve_condensed,
    solve_full,
)
from .oracle import (
    KktReport,
    random_infeasible_start,
    random_strictly_convex_qp,
    solve_by_enumeration,
    verify_kkt,
)
from .problem import (
    PrimalDualPoint,
    QpProblem,
    ValidationReport,
    constraint_slack,
    objective,
    validate_problem,
)
from .qpfile import parse_qp, serialize_qp

__version__ = "0.1.0"
