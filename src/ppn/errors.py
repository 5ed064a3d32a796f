"""Exception hierarchy shared across the package.

Two broad families matter to callers: ``ValidationError`` for bad
parameters or inconsistent inputs (CLI exit code 2), and ``InputError``
for malformed data files or sequences (CLI exit code 3).
"""

__all__ = [
    "PpnError",
    "ValidationError",
    "InputError",
    "EmptySequenceError",
    "InvalidCharacterError",
    "OutOfRangeError",
    "NotSmoothError",
    "ParamsMismatchError",
    "MalformedFastaError",
    "DuplicateIdError",
    "NonFiniteDistanceError",
    "NewickParseError",
    "DuplicateLeafError",
    "LeafSetMismatchError",
    "TooFewLeavesError",
]


class PpnError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(PpnError, ValueError):
    """Invalid parameter or inconsistent input configuration."""


class InputError(PpnError, ValueError):
    """Malformed or unusable input data."""


# -- sequence encoding / vector computation ---------------------------------

class EmptySequenceError(InputError):
    """Sequence has no usable nucleotides after sanitization."""


class InvalidCharacterError(InputError):
    """Non-ACGT character encountered under the strict policy."""


class OutOfRangeError(ValidationError):
    """Window center lies outside the sequence."""


class NotSmoothError(InputError):
    """Integer has a prime factor outside {2, 3, 5, 7}."""


class ParamsMismatchError(ValidationError):
    """Vectors were computed with different window parameters."""


# -- FASTA input -------------------------------------------------------------

class MalformedFastaError(InputError):
    """Input does not follow the FASTA grammar."""


class DuplicateIdError(InputError):
    """Two records in one file share an identifier."""


# -- trees and matrices ------------------------------------------------------

class NonFiniteDistanceError(ValidationError):
    """Distance matrix holds a NaN, an infinity or an entry too large to average."""


class NewickParseError(InputError):
    """Newick text violates the grammar."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DuplicateLeafError(InputError):
    """Tree contains two leaves with the same label."""


class LeafSetMismatchError(ValidationError):
    """Two trees being compared have different leaf label sets."""


class TooFewLeavesError(ValidationError):
    """Tree comparison requires at least four shared leaves."""
