"""Exception hierarchy shared across the package."""


class DvfError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(DvfError):
    """Input does not satisfy a numerical precondition (too few points, rank deficiency)."""


class DegenerateSupport(DegenerateInput):
    """A patch match has too few / collinear support points for transform estimation."""


class ParseError(DvfError):
    """Malformed input file; carries the offending location."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


class SchemaError(DvfError):
    """A structured record is missing a field or holds an out-of-range value."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"field '{field}': {message}")


class UnsupportedFormat(DvfError):
    """File extension / magic number not recognised by any loader."""


class ImportKeyMismatch(DvfError):
    """Imported per-point features do not cover the requested point indices."""


class NoVisibleImage(DvfError):
    """No camera sees any point of the tile."""


class ImageTooSmall(DvfError):
    """Template size exceeds what the image can accommodate."""


class NoEstimateNearObservation(DvfError):
    """The source point nearest to an external observation carries no estimate."""


class EmptyNeighborhood(DvfError):
    """No displacement estimates fall within the comparison radius of an observation."""


class InvalidParams(DvfError):
    """Synthetic-scene or pipeline parameters are out of range."""


class ConfigError(DvfError):
    """Pipeline configuration is inconsistent or incomplete."""


class PipelineError(DvfError):
    """A pipeline stage failed; message carries stage name and tile id."""
