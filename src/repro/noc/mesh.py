"""2-D mesh topology with dimension-ordered (X-Y) routing."""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigError


class Mesh:
    """A ``rows x cols`` mesh of NPU cores, ids assigned row-major."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ConfigError(f"degenerate mesh {rows}x{cols}")
        self.rows = rows
        self.cols = cols

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def coords(self, core_id: int) -> Tuple[int, int]:
        if not 0 <= core_id < self.size:
            raise ConfigError(f"core id {core_id} outside mesh of {self.size}")
        return divmod(core_id, self.cols)

    def core_id(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigError(f"coords ({row}, {col}) outside {self.rows}x{self.cols}")
        return row * self.cols + col

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance under X-Y routing."""
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    def path(self, src: int, dst: int) -> List[int]:
        """Core ids traversed under X-Y routing, inclusive of endpoints."""
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        cells = [(r1, c1)]
        c = c1
        while c != c2:
            c += 1 if c2 > c else -1
            cells.append((r1, c))
        r = r1
        while r != r2:
            r += 1 if r2 > r else -1
            cells.append((r, c2))
        return [self.core_id(r, c) for r, c in cells]

    def is_rectangle(self, core_ids: List[int], rows: int, cols: int) -> bool:
        """True when *core_ids* form a contiguous ``rows x cols`` rectangle.

        The secure loader's route-integrity check: a task that requested a
        2x2 sub-mesh must not be scheduled onto an arbitrary (e.g. 1x4)
        set of cores (§IV-B "Route integrity").
        """
        if len(core_ids) != rows * cols or len(set(core_ids)) != len(core_ids):
            return False
        coords = sorted(self.coords(c) for c in core_ids)
        r0, c0 = coords[0]
        expected = sorted(
            (r0 + dr, c0 + dc) for dr in range(rows) for dc in range(cols)
        )
        return coords == expected
