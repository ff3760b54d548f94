"""Analytic shared-resource models of the simulation kernel."""

from __future__ import annotations

from repro.errors import ConfigError, SimulationError


class BandwidthResource:
    """A serially shared bandwidth resource (e.g., the DRAM channel).

    Requests are serviced in arrival order.  ``acquire`` returns the finish
    time of a transfer that *arrives* at ``start`` and moves ``nbytes``
    at ``bytes_per_cycle`` (optionally derated by a sharing factor, used to
    model two concurrently active tasks splitting the channel).
    """

    def __init__(self, bytes_per_cycle: float):
        if bytes_per_cycle <= 0:
            raise ConfigError(f"bandwidth must be positive, got {bytes_per_cycle}")
        self.bytes_per_cycle = float(bytes_per_cycle)
        self._free_at = 0.0
        self.busy_cycles = 0.0
        self.bytes_moved = 0.0

    def cycles_for(self, nbytes: float, share: float = 1.0) -> float:
        """Pure transfer time for *nbytes* at a *share* of the bandwidth."""
        if share <= 0 or share > 1:
            raise ConfigError(f"bandwidth share must be in (0, 1], got {share}")
        return nbytes / (self.bytes_per_cycle * share)

    def acquire(self, start: float, nbytes: float, share: float = 1.0) -> float:
        """Serve a transfer arriving at *start*; return its finish time."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        begin = max(start, self._free_at)
        duration = self.cycles_for(nbytes, share)
        self._free_at = begin + duration
        self.busy_cycles += duration
        self.bytes_moved += nbytes
        return self._free_at

    def reset(self) -> None:
        self._free_at = 0.0
        self.busy_cycles = 0.0
        self.bytes_moved = 0.0
