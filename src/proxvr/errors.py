"""Exception types shared across the package, and the integer check that
every library input of a count, an index or a seed goes through."""

import math

import numpy as np


class ContractViolation(ValueError):
    """A caller broke a documented precondition (dimension mismatch, bad index, ...)."""


def check_int(value, name: str, low: int = 0, stop: float = math.inf) -> int:
    """``value`` as an int in [``low``, ``stop``). Numpy integers pass;
    bools and non-integers, integral floats included, are refused."""
    if type(value) is not int and not isinstance(value, np.integer) or not low <= value < stop:
        raise ContractViolation(f"{name} must be an integer in [{low}, {stop}), got {value!r}")
    return int(value)


class ParseError(ValueError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class RateDomainError(ValueError):
    """A convergence-rate formula was evaluated outside its domain."""


class ConvergenceFailure(RuntimeError):
    """An iterative routine exhausted its budget; carries the best certificate seen."""

    def __init__(self, message, best_certificate=None):
        super().__init__(message)
        self.best_certificate = best_certificate
