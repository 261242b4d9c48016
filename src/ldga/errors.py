"""Every ldga exception, with the CLI's exit code and message prefix for it.

The CLI reports an ``LdgaError`` as one ``<prefix>: <message>`` stderr line
and exits with its ``exit_code`` (docs/report-schema.md), without loading the
module that raised it; that module re-exports the class under its own name.
"""

EXIT_OK, EXIT_PARSE, EXIT_VALIDATE, EXIT_STAGE = 0, 2, 3, 4


class LdgaError(Exception):
    exit_code, prefix = EXIT_PARSE, "error"


class CoefficientError(ValueError, LdgaError):
    """Raised on arithmetic between elements of different rings."""


class BuiltinError(ValueError, LdgaError):
    """An unknown builtin name or a family parameter out of range."""


class DSLError(ValueError, LdgaError):
    prefix = "parse error"

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class DiagramError(ValueError, LdgaError):
    """Malformed grid/front input or an unsupported diagram shape."""

    prefix = "parse error"


class AugmentationError(ValueError, LdgaError):
    prefix = "parse error"


class DGAValidationError(ValueError, LdgaError):
    """A DGA that violates degree purity or d^2 = 0, or an internal check on
    a computed resolution, DGA, augmentation or linearized complex that failed."""

    exit_code, prefix = EXIT_VALIDATE, "validation error"


class DiskSearchError(RuntimeError, LdgaError):
    """A diagram's disks break the index identity or d^2 = 0 (convention tripwire)."""

    exit_code, prefix = EXIT_VALIDATE, "validation error"


class SpinError(ValueError, LdgaError):
    exit_code, prefix = EXIT_STAGE, "stage error"


class DiskBudgetExceeded(RuntimeError, LdgaError):
    """The disk search ran past its step budget."""

    exit_code, prefix = EXIT_STAGE, "stage error"


class ObstructionStageError(RuntimeError, LdgaError):
    """A pipeline stage's precondition failed; carries the stage id."""

    exit_code, prefix = EXIT_STAGE, "stage error"

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
