"""Op-schedule IR: what the tiling compiler emits and the NPU core executes.

A compiled task (:class:`NPUProgram`) is a list of :class:`LayerSchedule`
objects.  Each layer carries

* an **analytic summary** (iteration counts, per-iteration stage times,
  total traffic) that the fast timing path folds through the pipeline
  model, and
* an optional **iteration factory** producing concrete
  :class:`TileIteration` objects with real :class:`~repro.common.types.
  DmaRequest` descriptors — the detailed path used for IOTLB simulation
  (Fig. 13) and for functional execution in the security tests.

Both paths describe the same schedule; a consistency test asserts they
agree under the Guarder (where no stalls perturb the analytic math).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.common.types import AddressRange, DmaRequest, World
from repro.errors import ConfigError


@dataclass
class SpadTransfer:
    """One DMA transfer paired with its scratchpad destination/source."""

    request: DmaRequest
    spad_line: int = 0
    lines: int = 0
    to_accumulator: bool = False

    @property
    def bytes(self) -> int:
        return self.request.size


@dataclass
class TileIteration:
    """One step of the core's execute loop (one blocked GEMM k-step).

    ``end_of_block`` marks the completion of an output block's accumulation
    — the natural preemption point where the flush baseline may context
    switch with minimal live state.
    """

    loads: List[SpadTransfer] = field(default_factory=list)
    stores: List[SpadTransfer] = field(default_factory=list)
    compute_cycles: float = 0.0
    macs: int = 0
    end_of_block: bool = False
    layer_index: int = 0
    #: GEMM coordinates (g0, gp, m0, bm, k0, bk, n0, bn) of this step -
    #: lets the functional executor reproduce the exact computation.
    gemm_coords: Optional[tuple] = None

    @property
    def load_bytes(self) -> int:
        return sum(t.bytes for t in self.loads)

    @property
    def store_bytes(self) -> int:
        return sum(t.bytes for t in self.stores)


@dataclass
class LayerSchedule:
    """One compiled layer: analytic summary + optional detailed iterations."""

    name: str
    index: int
    kind: str  # "gemm" | "vector"
    #: Total tile iterations in this layer.
    n_iterations: int
    #: Output-block boundaries (flush preemption points) in this layer.
    n_blocks: int
    #: Total bytes DMA-ed in (inputs + weights + bias).
    load_bytes: float
    #: Total bytes DMA-ed out (outputs).
    store_bytes: float
    #: Total systolic/vector busy cycles.
    compute_cycles: float
    #: True multiply-accumulate count (unpadded).
    macs: int
    #: Scratchpad lines the layer's working set occupies (for scrub cost).
    spad_lines_used: int
    #: Bytes of weights resident in the scratchpad that a mid-layer flush
    #: forces the schedule to re-fetch once per preemption boundary.
    resident_bytes: float = 0.0
    #: Total number of load / store DMA requests (for issue-overhead math).
    n_load_requests: int = 0
    n_store_requests: int = 0
    #: Iteration factory for the detailed/functional path.
    iteration_factory: Optional[Callable[[], Iterator[TileIteration]]] = None
    #: GEMM lowering metadata (dims, blocking, buffer bases) for the
    #: functional executor; None for vector layers.
    gemm_meta: Optional[Dict[str, int]] = None

    def __post_init__(self) -> None:
        if self.n_iterations < 1:
            raise ConfigError(f"layer {self.name!r} has no iterations")
        if self.n_blocks < 1:
            raise ConfigError(f"layer {self.name!r} has no blocks")

    # Per-iteration averages used by the analytic timing path.
    @property
    def load_bytes_per_iter(self) -> float:
        return self.load_bytes / self.n_iterations

    @property
    def compute_cycles_per_iter(self) -> float:
        return self.compute_cycles / self.n_iterations

    def iterations(self) -> Iterator[TileIteration]:
        if self.iteration_factory is None:
            raise ConfigError(
                f"layer {self.name!r} was compiled without detailed iterations"
            )
        return self.iteration_factory()


@dataclass
class NPUProgram:
    """A fully compiled task ready to be offloaded to the NPU.

    ``chunks`` maps logical buffer names ("input", "weights", "output",
    "scratch") to *virtual* address ranges; the driver (or the Monitor's
    trusted allocator, for secure tasks) binds them to physical chunks.
    """

    task_name: str
    layers: List[LayerSchedule]
    world: World = World.NORMAL
    chunks: Dict[str, AddressRange] = field(default_factory=dict)
    #: Requested NoC topology as (rows, cols); None for single-core tasks.
    topology: Optional[tuple] = None
    #: Compiler metadata (model name, budget, profile) for reports.
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_load_bytes(self) -> float:
        return sum(layer.load_bytes for layer in self.layers)

    @property
    def total_iterations(self) -> int:
        return sum(layer.n_iterations for layer in self.layers)

    def code_blob(self) -> bytes:
        """Deterministic serialization of the schedule — the task "code".

        The NPU Monitor's code verifier measures this blob; tampering with
        any layer parameter changes the measurement.
        """
        doc = {
            "task": self.task_name,
            "world": int(self.world),
            "topology": list(self.topology) if self.topology else None,
            "layers": [
                {
                    "name": l.name,
                    "kind": l.kind,
                    "iters": l.n_iterations,
                    "blocks": l.n_blocks,
                    "load": l.load_bytes,
                    "store": l.store_bytes,
                    "compute": l.compute_cycles,
                    "macs": l.macs,
                }
                for l in self.layers
            ],
        }
        return json.dumps(doc, sort_keys=True).encode()

    def measurement(self) -> bytes:
        """SHA-256 digest of the code blob."""
        return hashlib.sha256(self.code_blob()).digest()
