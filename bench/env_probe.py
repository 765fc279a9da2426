"""Print, as one JSON object, the environment that makes two result sets comparable.

Usage: python3 bench/env_probe.py   (with the package's src/ on PYTHONPATH)

Records the Python, numpy and OpenBLAS versions, the BLAS thread count as
OpenBLAS reports it, the CPUs this process may run on, and the file the
``monotest`` package was imported from.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys

import numpy as np

import monotest

_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, or None if none is found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in _THREAD_SYMBOLS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main() -> int:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "monotest_file": monotest.__file__,
    }
    sys.stdout.write(json.dumps(env) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
