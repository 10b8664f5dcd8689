import numpy as np
import pytest

from twosample import datagen, experiments


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
