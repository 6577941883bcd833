"""Exception types shared across the library."""

import reprlib

EXCERPT_CHARS = 120


class _Excerpt(reprlib.Repr):
    """``reprlib`` showing an int past Python's int-to-str digit limit by
    its bit length, alone or in a ``Fraction``: no raise, no address."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            return f"{'-' if x < 0 else ''}<int of {x.bit_length()} bits>"

    def repr_Fraction(self, x, level):
        """``repr(x)`` spelled from its ints, cut as any other object is."""
        text = (f"Fraction({self.repr_int(x.numerator, level)}, "
                f"{self.repr_int(x.denominator, level)})")
        if len(text) <= self.maxother:
            return text
        head = (self.maxother - 3) // 2
        tail = self.maxother - 3 - head
        return text[:head] + self.fillvalue + text[-tail:]


_excerpt = _Excerpt()
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
