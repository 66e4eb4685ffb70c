"""Machine fingerprint stamped into every result and trace.

Numbers from different machines must never be compared silently, so each
result carries the core count, cache sizes, library and BLAS versions, the
BLAS pool size the run used, the Python version and the program's git SHA.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


#: The numpy/BLAS pool size.  One thread, not one per core: on the 2-vCPU
#: machine the benchmark was built on, a second BLAS thread did not speed
#: up an 8-qubit density-matrix energy (0.20-0.30 s against 0.18-0.22 s
#: with one) while doubling its CPU time.
BLAS_THREADS = 1


def pin_runtime() -> dict:
    """Cap the BLAS pool; run before numpy is imported.

    Returns the settings for the fingerprint.
    """
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    return {"blas_threads": BLAS_THREADS}


def cache_bytes() -> dict[int, int]:
    """Unified/data cache size per level of cpu0, from sysfs (may be empty)."""
    sizes: dict[int, int] = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        sizes[level] = int(text.rstrip("KMG")) * scale
    return sizes


def git_sha() -> str:
    """SHA of the checkout, or ``"unknown"`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def fingerprint(runtime: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = cache_bytes()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "l2_bytes": caches.get(2),
        "l3_bytes": caches.get(3),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **runtime,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }
