"""Hierarchical cycle-attribution profiler.

Classifies **every simulated cycle** of an NPU run into an exact,
non-overlapping category tree — which cycles went to PE compute, which to
exposed DMA streaming, which to IOTLB page walks, flush windows, Guarder
checks, NoC hops, scheduler quanta or monitor calls — with the invariant

    sum(attributed cycles) == total simulated cycles

enforced *by construction*:

* Attribution happens at **layer granularity**.  The instrumented
  component (``npu/core.py``) hands the profiler the layer's total cycle
  count plus an ordered list of ``(category, cycles)`` parts; the
  profiler clamps every part against the cycles still unaccounted for
  and assigns the remainder to a designated residual category.  The
  parts therefore always partition the total — nothing is double-counted
  and nothing is lost.
* All attributed quantities are stored as exact rationals
  (:class:`fractions.Fraction` of the IEEE-754 cycle values), so sums
  are associative: per-layer attributions convert back to the *bit-exact*
  layer cycle count, and cross-process snapshot merges are independent of
  merge order (``--jobs 1`` and ``--jobs 4`` produce identical ledgers).

Category tree (leaves are what gets cycles; roots are report roll-ups)::

    pe.compute                 systolic-array busy cycles
    dma.transfer               exposed DMA streaming (not hidden by compute)
    dma.issue                  exposed DMA descriptor issue overhead
    dma.stall.iotlb            exposed IOMMU page-walk stalls
    dma.stall.crypto           exposed memory-encryption-engine stalls
    guarder.check              Guarder register check latency (0 by design)
    flush.scrub                scratchpad scrub at a flush boundary
    flush.context_switch       fixed driver/control cost of a flush
    flush.refetch              re-fetch of flushed scratchpad residents
    flush.world_switch         TrustZone whole-NPU world-switch windows
    noc.hop                    NoC head-flit route traversal
    noc.serialization          NoC body-flit drain behind the head
    scheduler.quantum          time-shared scheduler quanta
    scheduler.switch           scheduler context-switch windows
    scheduler.wait             preemption wait (SLA) windows
    monitor.call               NPU Monitor invocation windows
    idle                       cycles no mechanism claims

The per-run ledger (:class:`RunProfile`) covers the NPU timing paths and
obeys the invariant; fabric-level categories (``noc.*``, ``scheduler.*``,
``monitor.*``) run on their own timelines and are accumulated in the
profiler-wide ledger only.

Like the other telemetry collectors the profiler is **disabled by
default** and every recording method bails on one attribute check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Root -> leaf-suffixes of the attribution category tree.  ``idle`` has
#: no leaves: it is itself a leaf.
CATEGORY_TREE: Dict[str, Tuple[str, ...]] = {
    "pe": ("compute",),
    "dma": ("transfer", "issue", "stall.iotlb", "stall.crypto"),
    "guarder": ("check",),
    "flush": ("scrub", "context_switch", "refetch", "world_switch"),
    "noc": ("hop", "serialization"),
    "scheduler": ("quantum", "switch", "wait"),
    "monitor": ("call",),
    "idle": (),
}

#: Every valid leaf category, in tree order.
CATEGORIES: Tuple[str, ...] = tuple(
    f"{root}.{leaf}" if leaf else root
    for root, leaves in CATEGORY_TREE.items()
    for leaf in (leaves or ("",))
)

_ZERO = Fraction(0)


def category_root(category: str) -> str:
    """The tree root of a leaf category (``"dma.stall.iotlb"`` -> ``"dma"``)."""
    return category.split(".", 1)[0]


def _exact(cycles: Any) -> Fraction:
    """Exact rational value of a float/int cycle count."""
    if isinstance(cycles, Fraction):
        return cycles
    return Fraction(float(cycles))


def split_exact(
    total: Any,
    parts: Sequence[Tuple[str, Any]],
    residual: str,
) -> Dict[str, Fraction]:
    """Partition *total* cycles over *parts*, exactly.

    Walks *parts* in order, clamping each claim to the cycles still
    unaccounted for (a mechanism can never be exposed for longer than the
    enclosing interval); whatever remains lands on the *residual*
    category.  The returned values are exact rationals summing precisely
    to ``Fraction(total)``.
    """
    remaining = _exact(total)
    out: Dict[str, Fraction] = {}
    for category, cycles in parts:
        claim = _exact(cycles)
        if claim <= _ZERO:
            continue
        if claim > remaining:
            claim = remaining
        if claim > _ZERO:
            out[category] = out.get(category, _ZERO) + claim
            remaining -= claim
    if remaining > _ZERO:
        out[residual] = out.get(residual, _ZERO) + remaining
    return out


@dataclass
class LayerAttribution:
    """One layer's exact cycle partition plus free-form side stats."""

    name: str
    index: int
    total: Fraction
    parts: Dict[str, Fraction]
    #: Non-attributed observations (DMA busy cycles, page walks, MACs...)
    #: used by reports for overlap/bound analysis; not part of the sum.
    stats: Dict[str, float] = field(default_factory=dict)

    def part(self, category: str) -> Fraction:
        return self.parts.get(category, _ZERO)


@dataclass
class RunProfile:
    """The attribution ledger of one core run (one ``run_*`` call)."""

    task: str
    mode: str  # "analytic" | "detailed"
    layers: List[LayerAttribution] = field(default_factory=list)
    #: Run-level attribution outside any layer (e.g. TrustZone whole-NPU
    #: world-switch scrub windows charged by the SoC).
    extras: Dict[str, Fraction] = field(default_factory=dict)

    def total(self) -> Fraction:
        """Exact total of every attributed cycle in this run."""
        acc = sum((layer.total for layer in self.layers), _ZERO)
        return acc + sum(self.extras.values(), _ZERO)

    def by_category(self) -> Dict[str, Fraction]:
        """Exact ``category -> cycles`` over layers and extras."""
        out: Dict[str, Fraction] = {}
        for layer in self.layers:
            for category, cycles in layer.parts.items():
                out[category] = out.get(category, _ZERO) + cycles
        for category, cycles in self.extras.items():
            out[category] = out.get(category, _ZERO) + cycles
        return out


class CycleProfiler:
    """Cycle-attribution ledger (disabled by default)."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        #: Exact profiler-wide ledger: every attribution from every run
        #: plus the fabric-level categories.
        self.categories: Dict[str, Fraction] = {}
        #: Event counts reported by instrumentation hooks (IOTLB walks,
        #: Guarder checks, NoC packets, monitor calls, ...).
        self.counts: Dict[str, int] = {}
        #: Completed run ledgers, in completion order.
        self.runs: List[RunProfile] = []
        self._current: Optional[RunProfile] = None

    # ------------------------------------------------------------------
    # Run-scoped attribution (the NPU timing paths)
    # ------------------------------------------------------------------
    def begin_run(self, task: str, mode: str) -> Optional[RunProfile]:
        """Open a run ledger and make it the current one.

        Returns the run's handle, which :meth:`layer` and :meth:`end_run`
        take so that interleaved runs (a sweep of cores advancing layer
        by layer) each keep their own ledger; None while disabled.
        """
        if not self.enabled:
            return None
        run = RunProfile(task=task, mode=mode)
        self._current = run
        return run

    def end_run(self, run: Optional[RunProfile] = None) -> Optional[RunProfile]:
        """Archive *run* (default: the current run).

        Runs are archived in the order they end.  Ending a run other than
        the current one leaves the current run open and current.
        """
        if not self.enabled:
            return None
        if run is None:
            run = self._current
        if run is not None:
            self.runs.append(run)
            if run is self._current:
                self._current = None
        return run

    def layer(
        self,
        name: str,
        index: int,
        total: float,
        parts: Sequence[Tuple[str, float]],
        residual: str = "dma.transfer",
        stats: Optional[Dict[str, float]] = None,
        run: Optional[RunProfile] = None,
    ) -> None:
        """Attribute one finished layer to *run* (default: the current
        run; see :func:`split_exact`)."""
        if not self.enabled:
            return
        exact_parts = split_exact(total, parts, residual)
        attribution = LayerAttribution(
            name=name,
            index=index,
            total=_exact(total),
            parts=exact_parts,
            stats=dict(stats or {}),
        )
        if run is None:
            run = self._current
        if run is None:
            # A layer outside begin_run/end_run still lands in a ledger.
            run = RunProfile(task="<adhoc>", mode="adhoc")
            self.runs.append(run)
            self._current = run
        run.layers.append(attribution)
        for category, cycles in exact_parts.items():
            self.categories[category] = (
                self.categories.get(category, _ZERO) + cycles
            )

    def run_extra(
        self,
        total: float,
        parts: Sequence[Tuple[str, float]],
        residual: str = "flush.world_switch",
    ) -> None:
        """Attribute run-level cycles charged outside the layer loop.

        Targets the most recently completed (or current) run so callers
        like ``SoC.run`` — which learns the world-switch cost after the
        core's run method returned — still land in the right ledger.
        """
        if not self.enabled:
            return
        exact_parts = split_exact(total, parts, residual)
        run = self._current
        if run is None and self.runs:
            run = self.runs[-1]
        if run is None:
            run = RunProfile(task="<adhoc>", mode="adhoc")
            self.runs.append(run)
        for category, cycles in exact_parts.items():
            run.extras[category] = run.extras.get(category, _ZERO) + cycles
            self.categories[category] = (
                self.categories.get(category, _ZERO) + cycles
            )

    # ------------------------------------------------------------------
    # Fabric-level attribution and event counting
    # ------------------------------------------------------------------
    def attribute(self, category: str, cycles: float) -> None:
        """Accumulate cycles on a category outside any run ledger
        (NoC fabric, scheduler timelines, monitor windows)."""
        if not self.enabled:
            return
        claim = _exact(cycles)
        if claim <= _ZERO:
            return
        self.categories[category] = self.categories.get(category, _ZERO) + claim

    def count(self, name: str, n: int = 1) -> None:
        """Bump an instrumentation event counter."""
        if not self.enabled:
            return
        self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def total_attributed(self) -> Fraction:
        """Exact sum of every attributed cycle across all categories."""
        return sum(self.categories.values(), _ZERO)

    def by_root(self) -> Dict[str, Fraction]:
        """Category-tree roll-up: ``root -> cycles``."""
        out: Dict[str, Fraction] = {}
        for category, cycles in self.categories.items():
            root = category_root(category)
            out[root] = out.get(root, _ZERO) + cycles
        return out

    # ------------------------------------------------------------------
    # Cross-process snapshots (exact, order-independent merges)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-portable view: exact categories + counts.

        Fractions serialize as ``"numerator/denominator"`` strings so the
        merge on the other side stays exact.
        """
        return {
            "categories": {
                name: f"{value.numerator}/{value.denominator}"
                for name, value in sorted(self.categories.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }

    def ingest_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a foreign snapshot into this ledger (rational addition is
        associative and commutative, so ingest order cannot matter)."""
        for name, encoded in (snapshot.get("categories") or {}).items():
            self.categories[name] = (
                self.categories.get(name, _ZERO) + parse_fraction(encoded)
            )
        for name, value in (snapshot.get("counts") or {}).items():
            self.counts[name] = self.counts.get(name, 0) + int(value)


def parse_fraction(encoded: Any) -> Fraction:
    """Inverse of the snapshot encoding (accepts numbers too)."""
    if isinstance(encoded, Fraction):
        return encoded
    if isinstance(encoded, str):
        return Fraction(encoded)
    return Fraction(float(encoded))


def merge_profile_snapshots(
    snapshots: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Merge profiler snapshots into one (exact; order-independent)."""
    merged = CycleProfiler(enabled=True)
    for snap in snapshots:
        if snap:
            merged.ingest_snapshot(snap)
    return merged.snapshot()
