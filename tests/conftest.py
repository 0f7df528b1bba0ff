"""Suite-wide guard: no test may leave the process-wide int-str cap changed."""

import sys

import pytest


@pytest.fixture(autouse=True)
def int_str_cap_unchanged():
    cap = sys.get_int_max_str_digits()
    yield
    after = sys.get_int_max_str_digits()
    if after != cap:
        sys.set_int_max_str_digits(cap)
        pytest.fail(f"test left the int-str cap at {after}, was {cap}")
