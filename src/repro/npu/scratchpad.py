"""Scratchpad with per-line ID state — the Isolator's scratchpad half (§IV-B, §V).

The scratchpad is explicitly managed, index-addressed SRAM with *no*
association to system memory.  sNPU attaches a one-bit ID state to every
wordline and enforces:

* **local (exclusive) scratchpad** — reads require the line's ID to match
  the accessing core's ID; writes are always allowed and overwrite the
  line's ID with the core's.
* **global (shared) scratchpad** — non-secure cores may neither read nor
  write secure lines; any access by a secure core forcibly sets the line's
  ID to secure.
* a dedicated **secure instruction** resets lines from secure to
  non-secure (scrubbing their contents, so the downgrade cannot leak).

The payload and ID arrays are allocated on first access, so a timing-only
run, which never moves a byte, never loads numpy.  Until then every line
is zero and non-secure, which is what scrubs and flushes would leave.

The same class also implements the two strawman mechanisms the paper
compares against: static **partition** (a boundary register splits the
line space between worlds) and **no protection** (the LeftoverLocals
baseline - stale data is readable by anyone).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro import telemetry
from repro.common.types import World
from repro.errors import (
    ConfigError,
    PartitionViolation,
    PrivilegeError,
    ScratchpadIsolationError,
)

if TYPE_CHECKING:
    import numpy as np


def _zeros(*shape: int) -> np.ndarray:
    import numpy as np

    return np.zeros(shape, dtype=np.uint8)


class SpadIsolationMode(enum.Enum):
    """Which protection mechanism guards the scratchpad."""

    NONE = "none"
    ID_BASED = "id"
    PARTITION = "partition"


class Scratchpad:
    """Banked, line-addressed SRAM with optional per-line ID state.

    Parameters
    ----------
    lines, line_bytes:
        Geometry (Table II: 256 KiB of 16-byte lines per tile; the
        accumulator uses 64-byte lines).
    mode:
        Protection mechanism.
    shared:
        True for the global scratchpad (stricter access rules).
    """

    def __init__(
        self,
        lines: int,
        line_bytes: int,
        mode: SpadIsolationMode = SpadIsolationMode.NONE,
        shared: bool = False,
    ):
        if lines < 1 or line_bytes < 1:
            raise ConfigError(f"bad scratchpad geometry {lines}x{line_bytes}")
        self.lines = lines
        self.line_bytes = line_bytes
        self.mode = mode
        self.shared = shared
        self._data: Optional[np.ndarray] = None
        self._id_state: Optional[np.ndarray] = None
        #: Partition boundary: secure lines are [0, boundary), normal the rest.
        self.partition_boundary = 0
        self.reads = 0
        self.writes = 0
        self.violations = 0
        scope = "global" if shared else "local"
        tel = telemetry.metrics.group(f"npu.scratchpad.{scope}")
        tel.bind("reads", self, "reads")
        tel.bind("writes", self, "writes")
        tel.bind("violations", self, "violations")
        tel.bind("secure_lines", self, "secure_lines")

    @property
    def data(self) -> np.ndarray:
        """Line payloads, (lines, line_bytes) uint8."""
        if self._data is None:
            self._data = _zeros(self.lines, self.line_bytes)
        return self._data

    @property
    def id_state(self) -> np.ndarray:
        """Per-line ID bit: 1 = secure."""
        if self._id_state is None:
            self._id_state = _zeros(self.lines)
        return self._id_state

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_partition(self, boundary: int, issuer: World) -> None:
        """Program the static partition boundary (privileged)."""
        if issuer is not World.SECURE:
            raise PrivilegeError("partition boundary is set by the secure world")
        if not 0 <= boundary <= self.lines:
            raise ConfigError(f"partition boundary {boundary} out of range")
        self.partition_boundary = boundary

    # ------------------------------------------------------------------
    # Access rules
    # ------------------------------------------------------------------
    def _check_range(self, line: int, nlines: int) -> None:
        if nlines < 1 or line < 0 or line + nlines > self.lines:
            raise ConfigError(
                f"scratchpad access [{line}, {line + nlines}) outside "
                f"0..{self.lines}"
            )

    def _audit_deny(
        self, reason: str, line: int, nlines: int, world: World
    ) -> None:
        audit = telemetry.audit
        if audit.enabled:
            audit.record(
                "spad.deny", "deny", world=world.name,
                reason=reason, line=line, nlines=nlines,
                scope="global" if self.shared else "local",
            )

    def _check_partition(self, line: int, nlines: int, world: World) -> None:
        if world is World.SECURE:
            ok = line + nlines <= self.partition_boundary
        else:
            ok = line >= self.partition_boundary
        if not ok:
            self.violations += 1
            self._audit_deny("partition", line, nlines, world)
            raise PartitionViolation(
                f"{world.name} access to lines [{line}, {line + nlines}) "
                f"crosses partition boundary {self.partition_boundary}"
            )

    def read(self, line: int, nlines: int, world: World) -> np.ndarray:
        """Read *nlines* lines as seen by a core in *world*."""
        self._check_range(line, nlines)
        self.reads += nlines
        if self.mode is SpadIsolationMode.PARTITION:
            self._check_partition(line, nlines, world)
        elif self.mode is SpadIsolationMode.ID_BASED:
            ids = self.id_state[line : line + nlines]
            if self.shared:
                # Global scratchpad: non-secure cores cannot touch secure
                # lines; secure reads promote lines to secure.
                if world is not World.SECURE and ids.any():
                    self.violations += 1
                    self._audit_deny("id_read", line, nlines, world)
                    raise ScratchpadIsolationError(
                        f"non-secure read of secure global scratchpad lines "
                        f"[{line}, {line + nlines})"
                    )
                if world is World.SECURE:
                    self.id_state[line : line + nlines] = 1
            else:
                # Local scratchpad: read requires ID match.
                if not (ids == int(world)).all():
                    self.violations += 1
                    self._audit_deny("id_mismatch", line, nlines, world)
                    raise ScratchpadIsolationError(
                        f"{world.name} read of lines [{line}, {line + nlines}) "
                        f"with mismatched ID state"
                    )
        return self.data[line : line + nlines].copy()

    def write(self, line: int, payload: np.ndarray, world: World) -> None:
        """Write whole lines; *payload* is (nlines, line_bytes) uint8."""
        import numpy as np

        payload = np.ascontiguousarray(payload, dtype=np.uint8)
        if payload.ndim == 1:
            if payload.size % self.line_bytes:
                raise ConfigError(
                    f"payload of {payload.size} bytes is not whole lines"
                )
            payload = payload.reshape(-1, self.line_bytes)
        nlines = payload.shape[0]
        self._check_range(line, nlines)
        self.writes += nlines
        if self.mode is SpadIsolationMode.PARTITION:
            self._check_partition(line, nlines, world)
        elif self.mode is SpadIsolationMode.ID_BASED:
            if self.shared:
                ids = self.id_state[line : line + nlines]
                if world is not World.SECURE and ids.any():
                    self.violations += 1
                    self._audit_deny("id_write", line, nlines, world)
                    raise ScratchpadIsolationError(
                        f"non-secure write to secure global scratchpad lines "
                        f"[{line}, {line + nlines})"
                    )
            # Writes are unrestricted on the local scratchpad and overwrite
            # the ID state with the writer's.
            self.id_state[line : line + nlines] = int(world)
        self.data[line : line + nlines] = payload

    # ------------------------------------------------------------------
    # Secure management instructions
    # ------------------------------------------------------------------
    def reset_secure(self, line: int, nlines: int, issuer: World) -> None:
        """Secure instruction: downgrade lines from secure to non-secure.

        The downgrade scrubs line contents; otherwise the non-secure world
        would read the secure task's leftovers right after the reset.
        """
        if issuer is not World.SECURE:
            raise PrivilegeError(
                "reset_secure is a secure instruction (issued via the Monitor)"
            )
        self._check_range(line, nlines)
        if self._data is not None:
            self._data[line : line + nlines] = 0
        if self._id_state is not None:
            self._id_state[line : line + nlines] = 0

    def flush_all(self) -> int:
        """Zero the whole scratchpad (flush baseline); returns lines scrubbed."""
        if self._data is not None:
            self._data[:] = 0
        if self._id_state is not None:
            self._id_state[:] = 0
        return self.lines

    # ------------------------------------------------------------------
    @property
    def secure_lines(self) -> int:
        if self._id_state is None:
            return 0
        return int(self._id_state.sum())

    def raw_peek(self, line: int, nlines: int) -> np.ndarray:
        """Bypass all checks — physical attack / test oracle only."""
        self._check_range(line, nlines)
        return self.data[line : line + nlines].copy()
