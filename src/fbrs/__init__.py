"""Dense convex QP solver: a regularized, smoothed Fischer-Burmeister Newton
method with an enumeration oracle and a condensed-MPC warmstart harness."""

from .errors import (
    DegenerateKkt,
    DimensionMismatch,
    EnumerationTooLarge,
    FbrsError,
    InfeasibleProblem,
    InvalidConfig,
    InvalidProblem,
    InvalidSpec,
    MpcSequenceError,
    OracleError,
    ParseError,
    UnboundedProblem,
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
    SolverConfig,
    SolverResult,
    Status,
    fbrs_solve,
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
