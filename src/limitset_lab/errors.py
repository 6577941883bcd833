"""Exception types shared across the library."""

import reprlib

EXCERPT_CHARS = 120

_excerpt = reprlib.Repr()
_excerpt.maxlevel = 2
_excerpt.maxstring = _excerpt.maxlong = _excerpt.maxother = 40


def clip(text: str) -> str:
    """``text`` cut to at most ``EXCERPT_CHARS`` characters."""
    if len(text) > EXCERPT_CHARS:
        text = text[:EXCERPT_CHARS - 3] + "..."
    return text


def excerpt(value) -> str:
    """A repr of an input value cut to at most ``EXCERPT_CHARS`` characters.

    Error messages quote offending input through this, so an error line
    stays short however large the input is.
    """
    return clip(_excerpt.repr(value))


class LimitsetError(ValueError):
    """Base class for all library-specific errors."""


class MalformedInputError(LimitsetError):
    """Structurally invalid input (non-square matrix, bad JSON shape, ...)."""


class UnsupportedRuleError(LimitsetError):
    """An index/tail rule outside the exactly-analyzable families."""


class SizeLimitError(LimitsetError):
    """A request beyond the tested enumeration bounds."""


class PreconditionError(LimitsetError):
    """A documented operation precondition was violated."""


class MembershipError(LimitsetError):
    """A point is not a member of the ground space."""


class UndefinedCaseError(LimitsetError):
    """A case the underlying theory leaves undefined, e.g. d(emptyset; emptyset)."""
