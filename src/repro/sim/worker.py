"""Worker-process hygiene for parallel experiment execution.

A forked (or spawned) pool worker inherits the parent's process-global
telemetry collectors and RNG state.  Engines register metric groups at
construction time, so a worker that built simulators against inherited
state would double-count into registries it does not own.
:func:`init_worker` is the :class:`concurrent.futures.ProcessPoolExecutor`
initializer that resets all of it; :func:`stable_seed` derives the
deterministic per-experiment seed (identical regardless of worker count
or dispatch order, which is what makes ``--jobs N`` bit-identical to
``--jobs 1``).
"""

from __future__ import annotations

import hashlib
import random


def stable_seed(*parts: str) -> int:
    """A 64-bit seed derived only from *parts* (not process state)."""
    digest = hashlib.sha256("\0".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def seed_rngs(seed: int) -> None:
    """Seed the global RNG.

    Simulations draw from their own seeded ``random.Random`` instances;
    this only pins module-level :mod:`random` for any code that reads it.
    """
    random.seed(seed)


def init_worker(seed: int = 0) -> None:
    """Pool initializer: fresh, disabled telemetry collectors and
    deterministic RNGs, so ``telemetry.scoped`` blocks opened afterwards
    behave exactly as in a pristine interpreter.

    The serial path does not call it; it seeds with :func:`seed_rngs`
    only.
    """
    from repro import telemetry

    telemetry.reset()
    seed_rngs(seed)
