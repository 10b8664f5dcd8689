import pytest

from twosample import experiments


@pytest.fixture
def blas_at_two_threads():
    """The OpenBLAS thread getter, with the count set to 2 for the test."""
    calls = experiments._openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
    setter, getter = calls
    before = getter()
    setter(2)
    try:
        yield getter
    finally:
        setter(before)
