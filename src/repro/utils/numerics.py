"""The numerics key: what decides a run's floats besides the source.

Bit-for-bit equality between two runs holds only under one numpy
version, one set of CPU features numpy dispatches its loops to, and one
BLAS build and kernel core.  :func:`numerics_key` reads all three with
the standard library (``ctypes`` on numpy's bundled OpenBLAS); a value
it cannot read is ``unknown``, never guessed.  Print it with::

    python -m repro.utils.numerics
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

UNKNOWN = "unknown"


def _cpu_features() -> str:
    """The dispatch targets numpy enabled on this CPU, after any
    ``NPY_DISABLE_CPU_FEATURES``."""
    try:
        from numpy._core import _multiarray_umath as umath
        enabled = umath.__cpu_features__
        return ",".join(f for f in umath.__cpu_dispatch__ if enabled.get(f)) or "baseline"
    except (ImportError, AttributeError):
        return UNKNOWN


def _blas() -> tuple:
    """``(name and version, runtime core)`` of numpy's bundled OpenBLAS."""
    package = os.path.dirname(np.__file__)
    for path in sorted(
        glob.glob(os.path.join(package + ".libs", "*openblas*"))
        + glob.glob(os.path.join(package, ".dylibs", "*openblas*"))
    ):
        try:
            lib = ctypes.CDLL(path)
            config = lib.scipy_openblas_get_config64_
            core = lib.scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        config.argtypes = core.argtypes = []
        config.restype = core.restype = ctypes.c_char_p
        return " ".join(config().decode().split()[:2]), core().decode()
    return UNKNOWN, UNKNOWN


def numerics_key() -> str:
    """``numpy V; cpu FEATURES; blas NAME VERSION; core CORE``."""
    blas, core = _blas()
    return f"numpy {np.__version__}; cpu {_cpu_features()}; blas {blas}; core {core}"


if __name__ == "__main__":
    print(numerics_key())
