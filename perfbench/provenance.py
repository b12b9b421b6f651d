"""Provenance stamp carried by every benchmark result.

Each result names the source it measured (git SHA when the tree is a
git checkout), when it ran, and the hardware and library fingerprint,
so a number can never be re-stamped onto a commit it was not measured
at.
"""

from __future__ import annotations

import ctypes
import dataclasses
import datetime
import os
import platform
from typing import Optional


def git_sha(root: str) -> Optional[str]:
    """HEAD of a git checkout at ``root``, read without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    """BLAS library name and its effective thread count in this process.

    The count is read from the loaded OpenBLAS itself; ``None`` when the
    library exposes no known query symbol.
    """
    import numpy as np

    name = None
    try:
        config = np.show_config(mode="dicts")
        name = config["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError, AttributeError):
        pass
    threads = None
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle
                    if "blas" in line.lower() and line.split()[-1].startswith("/")}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads = int(function())
                break
        if threads is not None:
            break
    env = {key: os.environ[key] for key in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if key in os.environ}
    return {"library": name, "threads": threads, "env": env}


def cpu_times() -> list:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (empty if absent)."""
    try:
        with open("/proc/stat") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_fraction(before: list, after: list) -> "float | None":
    """Share of CPU time the hypervisor gave to other guests in between:
    a run measured under heavy steal is suspect."""
    if len(before) < 8 or len(after) < 8:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    return deltas[7] / sum(deltas) if sum(deltas) else 0.0


def stamp(root: str, serve_config) -> dict:
    """The full provenance record of one result."""
    import numpy as np
    import scipy

    return {
        "git_sha": git_sha(root),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "fingerprint": {
            "cpu_model": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas": blas_info(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "serve_config": dataclasses.asdict(serve_config),
        "repro_env": {key: value for key, value in sorted(os.environ.items())
                      if key.startswith("REPRO_")},
    }
