"""Exception types shared across the package, and how a missing or undecodable input file is reported."""


class ConvrecError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ConvrecError):
    """Malformed input row. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyDatasetError(ConvrecError):
    """No usable data remained after parsing or filtering."""


class SamplingError(ConvrecError):
    """Negative sampling could not proceed (exclusion set covers the universe)."""


class DataError(ConvrecError):
    """Interaction log or split file is missing, unreadable, or malformed."""


class CheckpointError(ConvrecError):
    """Checkpoint file is missing, corrupt, or shape-incompatible."""


class ConfigError(ConvrecError):
    """Bad key or value in a run configuration."""


class NonFiniteGradientError(ConvrecError):
    """A gradient tensor contained NaN or Inf; training is aborted."""


class NonFiniteLossError(ConvrecError):
    """A training batch's loss was NaN or Inf; training is aborted."""


def open_input(path: str, error: type[ConvrecError], mode: str = "r"):
    """Open an input file; a missing or unreadable one raises ``error``."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from None


def utf8_lines(fh, path: str, error: type[ConvrecError]):
    """The lines of a file from ``open_input``; bytes that are not UTF-8 raise ``error``."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
