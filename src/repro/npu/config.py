"""NPU / SoC configuration — Table II of the paper.

| Parameter                           | Value  |
|-------------------------------------|--------|
| Systolic array dimension (per tile) | 16     |
| Scratchpad size (per tile)          | 256KB  |
| # of accelerator tiles              | 10     |
| Shared L2 size                      | 2MB    |
| Shared L2 banks                     | 8      |
| DRAM bandwidth                      | 16GB/s |
| Frequency                           | 1GHz   |

The scratchpad line is 128 bits and the accumulator line 512 bits (§V:
"each wordline contains a large data block (128 bits for input/output
scratchpad and 512 bits for accumulation scratchpad)").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


@dataclass(frozen=True)
class NPUConfig:
    """Microarchitectural parameters of one NPU tile and its SoC context."""

    #: Systolic array dimension (array is ``array_dim x array_dim`` PEs).
    array_dim: int = 16
    #: Input/output scratchpad capacity per tile, bytes.
    spad_bytes: int = 256 * 1024
    #: Scratchpad wordline width, bytes (128 bits).
    spad_line_bytes: int = 16
    #: Accumulator scratchpad capacity per tile, bytes.
    acc_bytes_total: int = 64 * 1024
    #: Accumulator wordline width, bytes (512 bits).
    acc_line_bytes: int = 64
    #: Number of accelerator tiles (NPU cores) in the complex.
    num_cores: int = 10
    #: Shared L2 size, bytes.
    l2_bytes: int = 2 * 1024 * 1024
    #: Shared L2 banks.
    l2_banks: int = 8
    #: DRAM bandwidth in bytes per cycle (16 GB/s at 1 GHz).
    dram_bytes_per_cycle: float = 16.0
    #: SoC clock, GHz.
    freq_ghz: float = 1.0
    #: Element width of inputs/weights, bytes (fp32, Gemmini's default
    #: datapath, which the sNPU prototype extends).
    input_bytes: int = 4
    #: Element width of accumulator entries, bytes (fp32).
    acc_elem_bytes: int = 4
    #: Element width of written-back outputs, bytes (fp32).
    output_bytes: int = 4
    #: Cycles to preload one weight tile into the PE array.
    weight_preload_cycles: int = 16
    #: Scratchpad lines scrubbed per cycle during a flush.
    scrub_lines_per_cycle: int = 16
    #: Fixed driver/control cycles per context switch (flush baseline):
    #: NPU interrupt, driver scheduling decision, context save/restore of
    #: the control state, and re-submission - sub-microsecond at 1 GHz.
    context_switch_cycles: int = 500
    #: Per-hop NoC latency in cycles.
    noc_hop_cycles: int = 2
    #: NoC link width, bytes per flit per cycle.
    noc_flit_bytes: int = 16

    def __post_init__(self) -> None:
        if self.array_dim < 1:
            raise ConfigError(f"array_dim must be >= 1, got {self.array_dim}")
        if self.spad_bytes % self.spad_line_bytes:
            raise ConfigError("spad_bytes must be a multiple of spad_line_bytes")
        if self.acc_bytes_total % self.acc_line_bytes:
            raise ConfigError("acc_bytes_total must be a multiple of acc_line_bytes")
        if self.dram_bytes_per_cycle <= 0:
            raise ConfigError("dram_bytes_per_cycle must be positive")

    # ------------------------------------------------------------------
    @classmethod
    def paper_default(cls) -> "NPUConfig":
        """The exact configuration of Table II."""
        return cls()

    def with_(self, **kwargs) -> "NPUConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    @property
    def spad_lines(self) -> int:
        return self.spad_bytes // self.spad_line_bytes

    @property
    def acc_lines(self) -> int:
        return self.acc_bytes_total // self.acc_line_bytes

    @property
    def peak_macs_per_cycle(self) -> int:
        return self.array_dim * self.array_dim

    @property
    def peak_gops(self) -> float:
        """Peak MAC throughput in GMAC/s."""
        return self.peak_macs_per_cycle * self.freq_ghz

    @property
    def dram_gbps(self) -> float:
        return self.dram_bytes_per_cycle * self.freq_ghz

    def scrub_cycles(self, lines: int) -> float:
        """Cycles to zero *lines* scratchpad lines during a flush."""
        return lines / self.scrub_lines_per_cycle

    @property
    def flush_cycles(self) -> float:
        """Cycles of one whole-scratchpad flush at a protection-domain
        switch: scrub every line, then pay the context switch."""
        return self.scrub_cycles(self.spad_lines) + self.context_switch_cycles
