"""CPU accounting that respects cgroup and affinity limits.

``os.cpu_count()`` reports the *machine's* logical CPUs, which
over-subscribes worker pools inside containers and batch schedulers
that pin the process to a subset (cgroup cpusets, ``taskset``,
Kubernetes CPU limits expressed as affinity).  Everything in this
repository that sizes a thread pool or decides whether a benchmark is
CPU-starved goes through
:func:`available_cpus` instead, so the policy lives in exactly one
place.
"""

from __future__ import annotations

import os

__all__ = ["available_cpus"]


def available_cpus() -> int:
    """Number of CPUs this process may actually run on (always >= 1).

    Prefers the scheduling affinity mask (``os.sched_getaffinity``,
    available on Linux) over the raw logical-CPU count; falls back to
    ``os.cpu_count()`` on platforms without affinity support.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = getaffinity(0)
        except OSError:  # pragma: no cover - exotic kernels only
            affinity = None
        if affinity:
            return len(affinity)
    return os.cpu_count() or 1
