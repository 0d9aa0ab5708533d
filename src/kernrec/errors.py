"""Exception hierarchy shared by all kernrec modules.

Three top-level families map onto the CLI exit codes: usage problems
(bad flags, malformed config) exit 1, numerical failures (singular
update, non-finite values) exit 2, and validation failures (step-size
threshold, floor violations) exit 3.  The solver errors are raised only
by the reference solvers of ``solver``, which runs do not call.
"""


class KernrecError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(KernrecError):
    """Bad command line or malformed configuration (exit code 1)."""


class ConfigError(UsageError):
    """Missing or unparseable configuration key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message if key is None else f"[{key}] {message}")
        self.key = key


class NumericalError(KernrecError):
    """Numerical failure during a run (exit code 2)."""


class SingularMatrixError(NumericalError):
    """Zero pivot in a direct solve."""


class IterationLimitError(NumericalError):
    """Iterative solver failed to reach its tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SingularUpdateError(NumericalError):
    """Kernel-update denominator fell below the safe magnitude."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class NonFiniteError(NumericalError):
    """A NaN or infinity appeared in the state or kernel."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class ValidationError(KernrecError):
    """Problem data fails a structural or discrete check (exit code 3)."""


class FloorViolationError(ValidationError):
    """|(h(t_i), 1)| dropped below the asserted floor at some time node."""


class StepThresholdError(ValidationError):
    """Time step exceeds the admissible threshold for the kernel update."""


class ExprError(KernrecError):
    """Base class for expression parsing/evaluation errors."""


class ExprSyntaxError(ExprError):
    """Source text does not match the expression grammar."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    """Identifier is not a known variable, constant, or function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (byte offset {offset})")
        self.name = name
        self.offset = offset


class ArityError(ExprError):
    """Function called with the wrong number of arguments."""

    def __init__(self, name: str, expected: int, got: int, offset: int):
        super().__init__(
            f"'{name}' takes {expected} argument(s), got {got} (byte offset {offset})"
        )
        self.name = name
        self.offset = offset


class UnboundVariableError(ExprError):
    """Evaluation environment does not bind a variable used in the tree."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainFaultError(ExprError):
    """Evaluation hit a domain fault (log of non-positive, division by zero, ...)."""

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr
