import sys

import pytest


@pytest.fixture
def default_int_digit_limit():
    """Python's default int-to-str digit limit (4300), whatever the
    environment set, restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
