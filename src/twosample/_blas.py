"""The thread count of the OpenBLAS that numpy calls, through ctypes."""

import contextlib
import ctypes
import functools

import numpy as np

_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_threads():
    """(setter, getter) of the thread count of the OpenBLAS numpy loaded, or None.

    dlsym on numpy's linalg extension also searches the libraries it links,
    so this finds the BLAS numpy actually calls, bundled or system-wide.
    The library is looked up once per process.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for set_name, get_name in _OPENBLAS_THREAD_CALLS:
        try:
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
        except AttributeError:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return setter, getter
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS at one thread and restore its count after.

    At some sizes OpenBLAS's last bits depend on the thread count, so each
    public call whose matrix products or decompositions could split over
    threads runs them in it, and its result does not depend on the
    caller's count. Nested in another, or at one thread already, or
    without a setter, it sets nothing: a set in a forked worker restarts
    OpenBLAS's pool, whose idle threads spin.
    """
    calls = _openblas_threads()
    before = None if calls is None else calls[1]()
    if before in (None, 1):
        yield
        return
    setter = calls[0]
    setter(1)
    try:
        yield
    finally:
        setter(before)
