"""The test environment: numpy's BLAS runs the thread count conftest sets."""

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads")


def _openblas_threads() -> int | None:
    """The thread count of the OpenBLAS bundled with numpy, if there is one."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in _GETTERS:
            if hasattr(handle, name):
                getter = getattr(handle, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def test_blas_threads_follow_the_environment():
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against a bundled OpenBLAS")
    assert threads == int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))
