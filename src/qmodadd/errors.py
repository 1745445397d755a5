"""Exception types shared across the package."""


class QmodaddError(ValueError):
    """Base class for all package errors."""


class OperandOutOfRange(QmodaddError):
    """A gate operand references a wire outside the circuit."""


class DuplicateOperand(QmodaddError):
    """A gate lists the same wire more than once."""


class ArityMismatch(QmodaddError):
    """Operand count does not match the gate kind."""


class DomainError(QmodaddError):
    """Arithmetic input outside the supported operand range."""


class LengthMismatch(QmodaddError):
    """Register or bit-vector lengths disagree."""


class InvalidN(QmodaddError):
    """Adder size parameter below 1."""


class EmptyInput(QmodaddError):
    """An aggregate was requested over no data."""


class InvalidSMax(QmodaddError):
    """Normalization constant must be at least 1."""


class InvalidProbability(QmodaddError):
    """Probability outside its allowed interval."""


class InvalidShots(QmodaddError):
    """Shot count must be at least 1."""


class UnknownOption(QmodaddError):
    """An option string outside its documented choices."""


class QasmError(QmodaddError):
    """Base class for QASM parse problems; carries a source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class QasmSyntaxError(QasmError):
    """Input does not match the accepted grammar."""


class SubsetViolation(QasmError):
    """Valid-looking QASM construct outside the supported subset."""


class WidthMismatch(QasmError):
    """Gate operand index not below the declared register size."""
