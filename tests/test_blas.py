import types

from twosample import _blas


def _find_with(monkeypatch, cdll):
    """`_openblas_threads`' lookup, uncached, with ctypes.CDLL replaced by cdll."""
    monkeypatch.setattr(_blas.ctypes, "CDLL", cdll)
    return _blas._openblas_threads.__wrapped__()


def test_a_library_that_cannot_be_loaded_gives_none(monkeypatch):
    def cdll(path):
        raise OSError(f"{path}: cannot open shared object file")

    assert _find_with(monkeypatch, cdll) is None


def test_a_library_without_the_calls_gives_none(monkeypatch):
    # numpy built on another BLAS: neither name pair resolves
    assert _find_with(monkeypatch, lambda path: types.SimpleNamespace()) is None


def test_the_plain_openblas_calls_are_found(monkeypatch):
    # stand-ins for ctypes functions, which take argtypes and restype
    setter, getter = types.SimpleNamespace(), types.SimpleNamespace()
    lib = types.SimpleNamespace(openblas_set_num_threads=setter, openblas_get_num_threads=getter)
    calls = _find_with(monkeypatch, lambda path: lib)
    assert calls[0] is setter and calls[1] is getter
    assert setter.restype is None and getter.argtypes == []

