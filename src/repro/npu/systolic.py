"""Systolic-array timing and functional model (weight-stationary GEMM).

Timing follows Gemmini's weight-stationary dataflow: processing one
``Mb x Kb x Nb`` block steps through ``ceil(Kb/d) * ceil(Nb/d)`` weight
tiles; each tile costs a preload (``weight_preload_cycles``) plus ``Mb``
cycles of row streaming, and the final results drain through the array in
``d`` cycles.  The true (unpadded) MAC count divided by peak throughput
gives the ideal time; the difference is the array-underutilization the
FLOPS-utilization figure (Fig. 1) measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.npu.config import NPUConfig

if TYPE_CHECKING:
    import numpy as np


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class SystolicArray:
    """Timing + functional model of one ``d x d`` PE array."""

    def __init__(self, config: NPUConfig):
        self.config = config
        self.d = config.array_dim
        self.busy_cycles = 0.0
        self.macs_done = 0

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def gemm_block_cycles(self, mb: int, kb: int, nb: int) -> float:
        """Cycles to compute one Mb x Kb x Nb block on the array."""
        if min(mb, kb, nb) < 1:
            raise ConfigError(f"degenerate GEMM block {mb}x{kb}x{nb}")
        weight_tiles = _ceil_div(kb, self.d) * _ceil_div(nb, self.d)
        stream = max(mb, 1)
        cycles = weight_tiles * (self.config.weight_preload_cycles + stream)
        cycles += self.d  # final drain
        return float(cycles)

    def gemm_block_macs(self, mb: int, kb: int, nb: int) -> int:
        """True MACs performed for the block (no padding counted)."""
        return mb * kb * nb

    def vector_cycles(self, elements: int) -> float:
        """Element-wise / pooling op time: d lanes, one element per lane."""
        return float(_ceil_div(max(elements, 0), self.d))

    def record(self, cycles: float, macs: int) -> None:
        self.busy_cycles += cycles
        self.macs_done += macs

    # ------------------------------------------------------------------
    # Functional execution (int8 x int8 -> int32), used by security tests
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Compute ``a @ b`` with int32 accumulation like the hardware."""
        import numpy as np

        a32 = a.astype(np.int32)
        b32 = b.astype(np.int32)
        if a32.shape[1] != b32.shape[0]:
            raise ConfigError(
                f"GEMM shape mismatch: {a32.shape} x {b32.shape}"
            )
        return a32 @ b32
