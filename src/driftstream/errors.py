"""Exception hierarchy shared by the whole package."""


class DriftStreamError(Exception):
    """Base class for every error raised by this library."""


class ParseError(DriftStreamError):
    """A record in an input file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaMismatch(DriftStreamError):
    """Attribute names disagree between records, streams or models."""


class EmptyStream(DriftStreamError):
    """An operation that needs at least one sample received none."""


class EmptyTrainingSet(DriftStreamError):
    """Feature extractor fitting requires at least one sample."""


class DimensionMismatch(DriftStreamError):
    """A vector's length does not match the model's fixed dimension."""


class ValueOutOfRange(DriftStreamError):
    """An input fell outside its admissible range (a detector input, a
    sample's label or timestamp)."""


class EmptyInput(DriftStreamError):
    """A statistical primitive was called with an empty sample."""


class UnlabeledSample(DriftStreamError):
    """A training path encountered a sample without a label."""


class WarmupTooSmall(DriftStreamError):
    """The warmup slice is empty or contains a single class only."""


class InsufficientTimeSpan(DriftStreamError):
    """The stream does not span enough calendar time for the strategy."""


class InsufficientData(DriftStreamError):
    """Not enough samples to run the requested evaluation."""


class ClassMissingInFold(DriftStreamError):
    """A cross-validation training split lost one of the classes."""


class InvalidSpec(DriftStreamError):
    """A synthetic stream specification is inconsistent."""


class EmptyCounts(DriftStreamError):
    """Metrics were requested from a confusion matrix with no entries."""


class ConfigError(DriftStreamError):
    """An experiment configuration is invalid (CLI exit code 2)."""
