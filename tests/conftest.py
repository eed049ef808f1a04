"""The BLAS that a test run computes with, and the golden values recorded for it.

The bitwise golden tables (trajectories, final states, theory output, b and
bundle files) hold only for the BLAS kernels they were recorded under, since
a kernel sums a product in an order of its own.  So each table is keyed by
(numpy version, scipy-openblas version, OpenBLAS core), the key that
pytest's header prints, and `pinned` skips the asserts of a key that has no
recorded set, naming the key in the reason that -rsx shows.
"""

import ctypes
import glob
import os

import numpy
import pytest

# The keys the golden sets were recorded under.  OPENBLAS_CORETYPE=Haswell
# (or Zen) picks the Haswell kernels on an AVX-512 host.
SKYLAKEX_KEY = ("2.4.6", "0.3.31.188.0", "SkylakeX")
HASWELL_KEY = ("2.4.6", "0.3.31.188.0", "Haswell")


def openblas_libraries():
    """The OpenBLAS libraries bundled with numpy's wheel."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    return sorted(glob.glob(os.path.join(libs, "*openblas*")))


def openblas_core(libraries=None):
    """The name of the core whose kernels OpenBLAS picked, or "unknown" without the symbol."""
    name = "unknown"
    for path in openblas_libraries() if libraries is None else libraries:
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            name = corename().decode()
    return name


def blas_key():
    """(numpy version, scipy-openblas version, OpenBLAS core) of this process."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = {}
    version = blas.get("version", "unknown") if blas.get("name") == "scipy-openblas" else "unknown"
    return numpy.__version__, version, openblas_core()


BLAS_KEY = blas_key()


def pinned(tables):
    """tables[BLAS_KEY]: the golden set of this BLAS; without one, skip the test and name the key."""
    if BLAS_KEY not in tables:
        pytest.skip(f"no golden values recorded for (numpy, scipy-openblas, core) = {BLAS_KEY}")
    return tables[BLAS_KEY]


def pytest_report_header():
    numpy_version, openblas_version, core = BLAS_KEY
    return f"numpy {numpy_version}, scipy-openblas {openblas_version}, OpenBLAS core {core}"
