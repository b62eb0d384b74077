"""The toolkit's error hierarchy.

Every error raised on bad input, data or configuration derives from one
of three kinds, and each kind carries the command line's exit code and
the prefix of its stderr message. Module errors subclass a kind, so the
command line needs a single handler for all of them.
"""

from __future__ import annotations

import numbers
import sys
from typing import Optional


def is_number(value) -> bool:
    """A real number and not a bool (JSON's true and false are not numbers)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """An integer, a numpy one included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed) -> int:
    """The one rule for a seed, an integer >= 0: seed as an int, or a ConfigError."""
    if not is_integer(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return int(seed)


def is_finite(value) -> bool:
    """A number within float range: not NaN, not infinite, no int too large for a float."""
    return is_number(value) and -sys.float_info.max <= value <= sys.float_info.max


class FlapwearError(ValueError):
    """Base of the hierarchy; ``line`` is the 1-based input line, if known."""

    exit_code: int
    label: str

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ParseError(FlapwearError):
    """Input that cannot be read or decoded into records."""

    exit_code = 2
    label = "parse error"


class ValidationError(FlapwearError):
    """Well-formed input whose values break an invariant."""

    exit_code = 3
    label = "validation error"


class ConfigError(FlapwearError):
    """A configuration file, flag or setting that cannot be used."""

    exit_code = 4
    label = "config error"


class EmptyInput(ValidationError):
    """An operation that needs at least one item was given none."""
