"""Host record written with every run."""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np
import scipy


def _cache_sizes():
    """L2/L3 sizes in bytes as ``getconf`` reports them (None where unknown)."""
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
            sizes[f"L{parts[0][5]}"] = int(parts[1]) if parts[1].isdigit() else parts[1]
    return sizes


def _blas_info():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}


def record(workload, seed, threads):
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "caches": _cache_sizes(),
        "DCKERNEL_THREADS": threads,
    }
