import numpy as np
import pytest

from twosample import datagen, statistic
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
def cholesky_calls(monkeypatch):
    """The shapes np.linalg.cholesky is called on, from an empty factor cache."""
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    datagen._factor.cache_clear()
    yield calls
    datagen._factor.cache_clear()


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
