"""Deterministic simulation kernel: event queue, clock, shared resources."""

from repro.sim import fastpath
from repro.sim.clock import Clock
from repro.sim.engine import SimEngine, Event
from repro.sim.resources import BandwidthResource
from repro.sim.worker import init_worker, seed_rngs, stable_seed

__all__ = [
    "Clock",
    "SimEngine",
    "Event",
    "BandwidthResource",
    "fastpath",
    "init_worker",
    "seed_rngs",
    "stable_seed",
]
