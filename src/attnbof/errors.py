"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands do not conform; the message names the offending shapes."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class DataFormatError(ValueError):
    """A serialized file is malformed or truncated."""


class ChecksumError(DataFormatError):
    """Payload bytes do not match the stored CRC32."""


class VersionError(DataFormatError):
    """File format version is not supported by this build."""


class NonFiniteError(RuntimeError):
    """A computation produced NaN or infinite values."""


class TrainingDiverged(NonFiniteError):
    """Training produced a non-finite loss; message names epoch and batch."""
