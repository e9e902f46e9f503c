"""Exception taxonomy and the process exit-code partition used by the CLI."""

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


class DocTrainError(Exception):
    """Base class; `exit_code` drives the CLI exit status."""

    exit_code = 1


class ConfigError(DocTrainError, ValueError):
    """Bad or inconsistent configuration supplied by the caller."""

    exit_code = EXIT_CONFIG


class DataError(DocTrainError, ValueError):
    """Problems with input data content."""

    exit_code = EXIT_DATA


class ParseError(DataError):
    """Malformed input file; message names the offending line(s)."""


class ValidationError(DataError):
    """Well-formed input that violates a documented constraint."""


class EmptyDocumentError(DataError):
    """Document with no usable text."""


class VocabularyError(DataError):
    """Token id outside the embedding vocabulary."""


class LengthError(DataError):
    """Sequence longer than the positional capacity, or empty."""


class NoNegativeAvailable(DataError):
    """Triplet mining found no document usable as a negative."""


class MiningExhausted(DataError):
    """Threshold-based mining ran out of attempts."""


class UnmappableCategory(DataError):
    """Category has no exact leaf match and no in-vocabulary token."""


class NumericError(DocTrainError, ArithmeticError):
    """Non-finite values or numerically invalid requests."""

    exit_code = EXIT_NUMERIC


class ShapeError(DocTrainError, ValueError):
    """Operand shapes incompatible with the requested operation."""

    exit_code = EXIT_NUMERIC


class ContractError(DocTrainError, RuntimeError):
    """An internal API precondition was violated by the caller."""

    exit_code = EXIT_NUMERIC


class StorageError(DocTrainError):
    """Checkpoint/file storage problems."""

    exit_code = EXIT_IO


class CorruptCheckpoint(StorageError):
    """Digest mismatch, truncation, or bad magic bytes."""


class UnsupportedVersion(StorageError):
    """Checkpoint format version not handled by this build."""


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit-code partition."""
    if isinstance(exc, DocTrainError):
        return exc.exit_code
    if isinstance(exc, OSError):
        return EXIT_IO
    return 1
