"""Locating the ``qpd`` sources of the checkout, pinning BLAS threads, and the
environment record attached to every result.

Two results are comparable only when their environment fingerprints match:
same Python, numpy, BLAS library, BLAS thread count, visible CPUs and CPU
model.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread on every commit: never above nproc, and the same on the
# parent and the change.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(Exception):
    """The checkout has no ``src/qpd`` package to benchmark."""


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def import_qpd():
    """Import ``qpd.cli`` from this checkout's ``src``, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "qpd", "cli.py")):
        raise MissingProgram(f"no qpd sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qpd.cli  # noqa: F401

    origin = os.path.dirname(os.path.abspath(sys.modules["qpd"].__file__))
    if origin != os.path.join(SRC, "qpd"):
        raise MissingProgram(f"qpd imported from {origin}, not from {SRC}")
    return qpd.cli


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record() -> dict:
    """The environment of the current process (call after numpy is imported
    under ``child_env``)."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_lib = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "blas": blas_lib,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def fingerprint(env: dict) -> str:
    return hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:16]


def incomparable(a: dict, b: dict) -> list[str]:
    """Environment fields on which two results differ; empty when the two
    may be compared."""
    return [key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]
