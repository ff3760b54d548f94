"""Worker-process hygiene for parallel experiment execution.

A forked (or spawned) pool worker inherits the parent's process-global
telemetry collectors.  Simulators register metric groups at construction
time, so a worker that built simulators against inherited state would
double-count into registries it does not own.
:func:`init_worker` is the :class:`concurrent.futures.ProcessPoolExecutor`
initializer that resets them; :func:`stable_seed` derives the
deterministic per-experiment seed the run archive records (identical
regardless of worker count or dispatch order).
"""

from __future__ import annotations

import hashlib


def stable_seed(*parts: str) -> int:
    """A 64-bit seed derived only from *parts* (not process state)."""
    digest = hashlib.sha256("\0".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def init_worker() -> None:
    """Pool initializer: fresh, disabled telemetry collectors, so
    ``telemetry.scoped`` blocks opened afterwards behave exactly as in a
    pristine interpreter.  The serial path does not call it."""
    from repro import telemetry

    telemetry.reset()
