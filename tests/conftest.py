import pytest

from twosample import statistic
from twosample._blas import _openblas_threads


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread (setter, getter); the count is restored after the test."""
    calls = _openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
    setter, getter = calls
    before = getter()
    try:
        yield setter, getter
    finally:
        setter(before)


@pytest.fixture
def blas_at_two_threads(blas_threads):
    """The OpenBLAS thread getter, with the count set to 2 for the test."""
    setter, getter = blas_threads
    setter(2)
    return getter


@pytest.fixture
def pair_passes(monkeypatch):
    """The argument tuples of every pair pass made during the test."""
    calls = []
    original = statistic.pair_aggregates

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(statistic, "pair_aggregates", counting)
    return calls
