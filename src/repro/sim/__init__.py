"""The per-layer fast path and the pool-worker hygiene of parallel runs."""

from repro.sim import fastpath
from repro.sim.worker import init_worker, stable_seed

__all__ = [
    "fastpath",
    "init_worker",
    "stable_seed",
]
