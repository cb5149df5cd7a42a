"""Ordered map over work items.

Modules receive a parallelism budget from the CLI, but the work is pure
Python, so threads only contend for the interpreter lock: a thread pool
measured slower than one thread.  The map is therefore serial, and the
budget is accepted and ignored; output never depends on it.
"""

from __future__ import annotations


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map fn over items, in order; threads is accepted and ignored."""
    return [fn(x) for x in items]
