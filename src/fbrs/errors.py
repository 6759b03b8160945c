"""Exception types a caller can catch from the solver, oracle, harness, and CLI."""


class FbrsError(Exception):
    """Base class for all library errors."""


class InvalidProblem(FbrsError):
    """Problem data is malformed: bad shapes, non-finite entries, or q = 0."""


class InvalidConfig(FbrsError):
    """SolverConfig setting (tol, max_iters) out of its valid range, or a
    solver config that is neither a SolverConfig nor None."""


class OracleError(FbrsError):
    """Base class for enumeration outcomes that yield no KKT point."""


class EnumerationTooLarge(OracleError):
    """Instance exceeds the enumeration budget (q <= 16, n <= 8)."""


class InfeasibleProblem(OracleError):
    """No point satisfies Az <= b."""


class UnboundedProblem(OracleError):
    """Feasible, but no active set yields a KKT point."""


class DegenerateKkt(OracleError):
    """Every candidate active set produced a singular bordered system."""


class InvalidSpec(FbrsError):
    """MPC specification violates its invariants."""


class MpcSequenceError(FbrsError):
    """A QP in a closed-loop sequence did not solve."""

    def __init__(self, step: int, status, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step
        self.status = status


class ParseError(FbrsError):
    """QP file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DimensionMismatch(ParseError):
    """Row or vector length disagrees with the declared n or q."""
