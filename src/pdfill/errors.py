"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: bad input specs exit with 2,
blown size budgets with 3, and internal invariant violations (a nonzero
double boundary, a filling that fails its re-check) with 4.
"""


class PdfillError(Exception):
    """Base class for all package errors."""


class SpecParseError(PdfillError):
    """A group, ring, character or family spec string is malformed or out of range."""


class RingMismatchError(PdfillError):
    """Two values from different coefficient rings were combined."""


class GroupMismatchError(PdfillError):
    """Two elements from different groups were combined."""


class UnsupportedTwistError(PdfillError):
    """Character twisting was requested over a noncommutative coefficient ring."""


class InvalidCharacterError(PdfillError):
    """A character value is not a unit, or the character fails on a relator."""


class NotAFieldError(PdfillError):
    """Homology dimensions were requested over a non-field descriptor."""


class NotACycleError(PdfillError):
    """A word does not close up, or a chain is not in the kernel of the boundary."""


class OutOfWindowError(PdfillError):
    """A path leaves the truncated ball it was supposed to stay inside."""


class BudgetError(PdfillError):
    """A size budget was exceeded.  Carries the radius that was reached."""

    def __init__(self, message, attained_radius=None):
        super().__init__(message)
        self.attained_radius = attained_radius


class NoFillingError(PdfillError):
    """No filling exists inside the window at the given coefficient bound.

    This is a statement about the finite window and the bound only, never
    about the group itself: the cycle may well bound outside the window.
    """


class InvariantError(PdfillError):
    """An internal consistency check failed (for example a nonzero double boundary)."""
