import random
import reprlib
from fractions import Fraction as F

import pytest

from limitset_lab.errors import EXCERPT_CHARS, clip, excerpt


class TestExcerpt:
    @pytest.mark.parametrize("value, shown", [
        (10 ** 5000, "<int of 16610 bits>"),
        (-10 ** 5000, "-<int of 16610 bits>"),
        (F(10 ** 5000), "Fraction(<int of 16610 bits>, 1)"),
        (F(-1, 10 ** 5000), "Fraction(-1, <int of 16610 bits>)"),
        ([F(10 ** 5000, 3), 7], "[Fraction(<int of 16610 bits>, 3), 7]")],
        ids=["int", "negative", "numerator", "denominator", "nested"])
    def test_an_int_past_the_digit_limit_shows_its_bit_length(
            self, default_int_digit_limit, value, shown):
        assert excerpt(value) == shown

    def test_the_same_value_reads_the_same_twice(self,
                                                 default_int_digit_limit):
        # a repr that raised used to fall back to a memory address
        assert excerpt(F(10 ** 5000)) == excerpt(F(10 ** 5000))

    def test_values_within_the_limit_read_as_plain_reprlib(self):
        plain = reprlib.Repr()
        plain.maxlevel = 2
        plain.maxstring = plain.maxlong = plain.maxother = 40
        rng = random.Random(0)
        for _ in range(2000):
            a = rng.randrange(-10 ** rng.randrange(1, 120),
                              10 ** rng.randrange(1, 120))
            b = rng.randrange(1, 10 ** rng.randrange(1, 120))
            for value in (a, F(a, b), [F(a, b), a], {"r": (F(b), "x")}):
                assert excerpt(value) == clip(plain.repr(value))
                assert len(excerpt(value)) <= EXCERPT_CHARS
