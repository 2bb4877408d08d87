"""Exception types raised across the package."""


class FlowSentryError(Exception):
    """Base class for all package-specific errors."""


class MissingColumn(FlowSentryError):
    """A column required by the schema is absent from the CSV header."""


class NonNumericValue(FlowSentryError):
    """A feature cell could not be parsed as a number."""

    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"non-numeric value {value!r} at row {row}, column {column!r}")
        self.row = row
        self.column = column
        self.value = value


class ShortRow(FlowSentryError):
    """A data row has fewer cells than the CSV header."""

    def __init__(self, row: int, cells: int, columns: int):
        super().__init__(f"data row {row} has {cells} cells, the header has {columns}")
        self.row = row


class EmptyFile(FlowSentryError):
    """The CSV file has no header row."""


class InsufficientData(FlowSentryError):
    """Too few records to fit normalization statistics."""


class DimensionMismatch(FlowSentryError):
    """An array's feature or latent dimension does not match expectations."""


class NoBenignRecords(FlowSentryError):
    """A benign split was requested on a table with no benign records."""


class SequenceLongerThanData(FlowSentryError):
    """Requested window length exceeds the number of available flows."""


class NeedAtLeastTwoSequences(FlowSentryError):
    """Triplet building needs at least two sequences with distinct starts."""


class TooFewRecords(FlowSentryError):
    """Oversampling needs more records than the requested neighbor count."""


class TargetBelowInput(FlowSentryError):
    """Oversampling target is smaller than the input record count."""


class InvalidConfig(FlowSentryError):
    """A configuration value violates its declared invariants."""


class VersionMismatch(FlowSentryError):
    """Model artifact was written by an unsupported format version."""


class CorruptArtifact(FlowSentryError):
    """Model artifact bytes are truncated or malformed."""


class EmptyBatch(FlowSentryError):
    """Loss evaluation was requested on an empty batch."""


class EmptyTrainingSet(FlowSentryError):
    """Training was requested with no triplets."""


class DivergedLoss(FlowSentryError):
    """Training loss became non-finite."""


class EmptyCalibrationSet(FlowSentryError):
    """Threshold calibration was requested on an empty benign set."""


class UnknownCategory(FlowSentryError):
    """An attack sequence lacks the category metadata needed for grouping."""


class InsufficientCodes(FlowSentryError):
    """Latent cohesion needs at least two latent codes."""
