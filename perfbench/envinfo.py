"""The environment a result was measured in, so only like is compared with like."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

# Symbol names under which OpenBLAS builds export their thread count.
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")
_BLAS_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "openblas_get_config64_",
                        "openblas_get_config")


def _blas_lib():
    """The loaded OpenBLAS shared library, found through this process's mappings."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def blas_threads() -> int | None:
    """Threads OpenBLAS uses in this process, as the library itself reports."""
    return _call(_blas_lib(), _BLAS_THREAD_SYMBOLS, ctypes.c_int)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _l3_size() -> str | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(f"{base}/{entry}/level") as fh:
                if fh.read().strip() != "3":
                    continue
            with open(f"{base}/{entry}/size") as fh:
                return fh.read().strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    build = getattr(np, "__config__", None)
    blas = getattr(build, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    config = _call(_blas_lib(), _BLAS_CONFIG_SYMBOLS, ctypes.c_char_p)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config.decode() if config else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3": _l3_size(),
    }
