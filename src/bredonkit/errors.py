"""Shared exception types with stable machine-readable codes.

Every error carries a short ``code`` string (stable across releases, used in
CLI diagnostics) and the CLI ``exit_status`` it maps to: 2 for input that
could not be understood at all, 1 for well-formed input that violates a
domain precondition.
"""


class BredonkitError(Exception):
    code = "error"
    exit_status = 1


class _LocatedError(BredonkitError):
    """An input error that may point at a line and column of the source."""

    exit_status = 2

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class PresentationSyntaxError(_LocatedError):
    code = "parse-error"


class UnknownGeneratorError(_LocatedError):
    code = "unknown-generator"


class DuplicateGeneratorError(BredonkitError):
    code = "duplicate-generator"
    exit_status = 2


class AlphabetMismatchError(BredonkitError):
    code = "alphabet-mismatch"


class DegenerateRelatorError(BredonkitError):
    code = "degenerate-relator"


class RootOfIdentityError(BredonkitError):
    code = "root-of-identity"


class TorsionModeError(BredonkitError):
    code = "torsion-mode"


class TorsionDeclarationError(BredonkitError):
    code = "invalid-torsion-declaration"
    exit_status = 2


class DeclaredTorsionFormError(BredonkitError):
    code = "declared-torsion-form"


class NotInKernelError(BredonkitError):
    code = "not-in-kernel"


class NotHempelFormError(BredonkitError):
    code = "not-hempel-form"


class HempelPreconditionError(BredonkitError):
    code = "hempel-precondition"


class NotTwoDimensionalError(BredonkitError):
    code = "not-2-dimensional"


class CombinatorDegreeError(BredonkitError):
    code = "combinator-degree"


class EmbeddingRestrictionError(BredonkitError):
    code = "one-generator-only"


class InputFormatError(BredonkitError):
    code = "invalid-input"
    exit_status = 2
