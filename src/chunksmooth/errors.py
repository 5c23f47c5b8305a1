"""Exception hierarchy shared across the package, and the input policy.

Three subfamilies map onto the CLI exit codes: configuration problems
(exit 2), data problems (exit 3) and numeric failures (exit 4).

Every file the package reads back crosses the same three steps, each of
which fails with a DataError: read_input reads its bytes (IoFailure),
json_loads decodes a JSON payload, and check_fields type-checks the
object it gives.
"""

import json
import sys
from pathlib import Path


class ChunkSmoothError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ChunkSmoothError):
    """Invalid configuration or degenerate parameter combination (exit 2)."""


class DataError(ChunkSmoothError):
    """Unusable input data: files, manifests, checkpoints (exit 3)."""


class NumericError(ChunkSmoothError):
    """Numeric breakdown during training or scoring (exit 4)."""


# -- configuration ------------------------------------------------------------

class ConfigInvalid(ConfigError):
    pass


class NoSlackAndNoPadAllowed(ConfigError):
    """Slack+padding attack invoked with no slack bytes and zero padding."""


class AlignmentUnsatisfiable(ConfigError):
    """Requested insertion cannot be aligned to the file alignment."""


class ShapeMismatch(ConfigError):
    """Tensor shapes disagree with the model hyperparameters."""


# -- data ---------------------------------------------------------------------

class IoFailure(DataError):
    pass


class FileTooLarge(DataError):
    def __init__(self, actual: int, cap: int):
        super().__init__(f"file is {actual} bytes, cap is {cap}")
        self.actual = actual
        self.cap = cap


class EmptyFile(DataError):
    pass


class NotPe(DataError):
    """Input lacks the DOS/PE magic this parser requires."""


class MalformedSectionTable(DataError):
    """Section table is truncated, unordered, overlapping or out of bounds."""


class EmptyCorpus(DataError):
    pass


class BadMagic(DataError):
    """Checkpoint file does not start with the expected magic bytes."""


class VersionUnsupported(DataError):
    def __init__(self, version: int):
        super().__init__(f"checkpoint version {version} is not supported")
        self.version = version


class TruncatedFile(DataError):
    pass


class SectionTableFull(DataError):
    """No room left in the COFF section count for injected sections."""


class CapUnsatisfiable(DataError):
    """Even a zero-payload injection would exceed the size-ratio cap."""


class NoCavesAndNoGapPossible(DataError):
    """File has no code caves and too few sections for a fallback gap."""


# -- smoothing contracts ------------------------------------------------------

class NotLengthPreserving(ConfigError):
    """Edit region extends outside the original file, so the certificate
    logic (which assumes in-place byte substitution) does not apply."""


class NotSca(ConfigError):
    """Certification is only defined for deterministic even-spaced chunks."""


# -- numerics -----------------------------------------------------------------

class NonFiniteLoss(NumericError):
    pass


class NonFiniteScore(NumericError):
    """A prediction scored a view NaN or infinite."""


class OracleFailure(NumericError):
    """The black-box score oracle returned something unusable."""


# -- the input boundary -------------------------------------------------------


def read_input(path, what: str = "") -> bytes:
    """The bytes of a file; `what` names the kind of input, with a
    trailing space, in the IoFailure message."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {what}{path}: {exc}") from exc


def json_loads(raw: bytes, where: str, noun: str):
    """The JSON value in raw, which must be UTF-8."""
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise DataError(f"{where}: not a UTF-8 JSON {noun}: {exc}") from exc


def check_fields(obj, types: dict, what: str, optional=()) -> None:
    """Refuse obj unless it is a JSON object holding each key of types,
    bar the optional ones, with a value of that JSON type.  A bool is
    never a number, an int is also a float, and no number lies beyond
    the range of a double, which no caller could average or format."""
    if not isinstance(obj, dict):
        raise DataError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for key, kind in types.items():
        if key not in obj:
            if key in optional:
                continue
            raise DataError(f"{what} is missing {key!r}")
        value = obj[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise DataError(f"{what} {key!r} is not a {kind.__name__}: {value!r}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise DataError(f"{what} {key!r} is beyond the range of a double")
