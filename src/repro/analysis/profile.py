"""Cycle-attribution reports: per-layer bound analysis, flamegraph
export and host-side profiling.

Built on :mod:`repro.telemetry.profiler`: one :func:`profile_model` call
runs a workload inside a fresh telemetry scope and folds the profiler's
exact per-layer ledger into a :class:`ModelProfile` — the report object
behind ``repro profile``.

* **Attribution exactness** — every report keeps the profiler's rational
  cycle values; ``sum(categories) == total`` holds bit-for-bit, so
  :func:`repro.analysis.diagnose.diagnose_profiles` can split the
  end-to-end overhead between two protection modes into per-mechanism
  deltas that sum *exactly* to it (the decomposition corroborating
  Fig. 13/14/16; ``repro diagnose MODEL --a BASE --b PROT``).
* **Bound analysis** — a layer is compute-bound when PE cycles dominate
  its exposed DMA time; the double-buffer overlap efficiency is the
  fraction of DMA busy time hidden under compute.
* **Flamegraph export** — :meth:`ModelProfile.to_folded` emits folded
  stacks (``task;root;leaf <cycles>``) consumable by ``flamegraph.pl`` or
  https://www.speedscope.app.
* **Host profiling** — :func:`profile_host` cProfiles the simulator
  itself and reports the Python hot loops (``repro profile --host``).
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro.soc import SoC, SoCConfig
from repro import telemetry
from repro.telemetry.profiler import (
    CATEGORIES,
    RunProfile,
    category_root,
    parse_fraction,
)
from repro.workloads.model import ModelGraph

_ZERO = Fraction(0)

#: Category-tree roots counted as exposed memory time in bound analysis.
_MEMORY_ROOTS = ("dma",)


def _encode(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


@dataclass
class LayerReport:
    """One layer's attribution plus derived overlap/bound analysis."""

    name: str
    index: int
    cycles: Fraction
    parts: Dict[str, Fraction]
    #: "compute" | "memory" | "flush"
    bound: str
    #: Fraction of DMA busy time hidden under compute (0..1; 1 = perfect
    #: double buffering).  None when the layer moved no data.
    overlap_efficiency: Optional[float]
    dma_busy: float = 0.0
    compute_busy: float = 0.0
    macs: float = 0.0


@dataclass
class ModelProfile:
    """The full cycle-attribution report of one workload run."""

    task: str
    protection: str
    mode: str  # "analytic" | "detailed"
    secure: bool
    total: Fraction
    categories: Dict[str, Fraction]
    counts: Dict[str, int]
    layers: List[LayerReport]
    #: RunResult.cycles as the simulator reported it (float path).
    run_cycles: float = 0.0
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def by_root(self) -> Dict[str, Fraction]:
        out: Dict[str, Fraction] = {}
        for category, cycles in self.categories.items():
            root = category_root(category)
            out[root] = out.get(root, _ZERO) + cycles
        return out

    def share(self, category: str) -> float:
        if self.total == 0:
            return 0.0
        return float(self.categories.get(category, _ZERO) / self.total)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-portable view; exact rationals ride along as "num/den"."""
        return {
            "task": self.task,
            "protection": self.protection,
            "mode": self.mode,
            "secure": self.secure,
            "total_cycles": float(self.total),
            "total_cycles_exact": _encode(self.total),
            "run_cycles": self.run_cycles,
            "categories": {
                name: float(value)
                for name, value in sorted(self.categories.items())
            },
            "categories_exact": {
                name: _encode(value)
                for name, value in sorted(self.categories.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "layers": [
                {
                    "name": layer.name,
                    "index": layer.index,
                    "cycles": float(layer.cycles),
                    "bound": layer.bound,
                    "overlap_efficiency": layer.overlap_efficiency,
                    "dma_busy": layer.dma_busy,
                    "compute_busy": layer.compute_busy,
                    "parts": {
                        k: float(v) for k, v in sorted(layer.parts.items())
                    },
                }
                for layer in self.layers
            ],
            "notes": list(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_folded(self) -> str:
        """Folded stacks for flamegraph.pl / speedscope.

        One line per leaf category: ``task;root;leaf cycles`` (integer-
        rounded, as flamegraph collectors expect sample counts).
        """
        lines = []
        for category in CATEGORIES:
            cycles = self.categories.get(category)
            if not cycles:
                continue
            stack = category.replace(".", ";", 1)
            lines.append(f"{self.task};{stack} {round(float(cycles))}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_markdown(self, top_layers: int = 8) -> str:
        """Human-facing report: decomposition table + hottest layers."""
        title = (
            f"## Cycle attribution: {self.task} on {self.protection} "
            f"({self.mode}{', secure' if self.secure else ''})"
        )
        lines = [
            title,
            "",
            f"Total: **{float(self.total):,.0f} cycles**",
            "",
            "| category | cycles | share |",
            "|---|---:|---:|",
        ]
        for category in CATEGORIES:
            cycles = self.categories.get(category, _ZERO)
            if cycles == 0:
                continue
            lines.append(
                f"| {category} | {float(cycles):,.0f} "
                f"| {self.share(category):.2%} |"
            )
        lines.append(
            f"| **total** | **{float(self.total):,.0f}** | 100.00% |"
        )
        if self.layers:
            hottest = sorted(
                self.layers, key=lambda l: l.cycles, reverse=True
            )[:top_layers]
            lines += [
                "",
                f"Hottest layers (of {len(self.layers)}):",
                "",
                "| layer | cycles | bound | overlap |",
                "|---|---:|---|---:|",
            ]
            for layer in hottest:
                overlap = (
                    f"{layer.overlap_efficiency:.1%}"
                    if layer.overlap_efficiency is not None
                    else "-"
                )
                lines.append(
                    f"| {layer.name} | {float(layer.cycles):,.0f} "
                    f"| {layer.bound} | {overlap} |"
                )
        if self.counts:
            shown = ", ".join(
                f"{k}={v:,}" for k, v in sorted(self.counts.items())
            )
            lines += ["", f"Events: {shown}"]
        for note in self.notes:
            lines += ["", f"> {note}"]
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        """Plain-terminal rendering of the decomposition."""
        lines = [
            f"{self.task} on {self.protection} ({self.mode}"
            f"{', secure' if self.secure else ''}): "
            f"{float(self.total):,.0f} cycles",
            "",
        ]
        width = max(
            (len(c) for c in self.categories if self.categories[c] != 0),
            default=8,
        )
        for category in CATEGORIES:
            cycles = self.categories.get(category, _ZERO)
            if cycles == 0:
                continue
            lines.append(
                f"  {category.ljust(width)}  {float(cycles):>16,.0f}  "
                f"{self.share(category):>7.2%}"
            )
        lines.append(
            f"  {'total'.ljust(width)}  {float(self.total):>16,.0f}  100.00%"
        )
        return "\n".join(lines) + "\n"


def from_dict(payload: Dict[str, Any]) -> ModelProfile:
    """Rebuild a :class:`ModelProfile` from :meth:`ModelProfile.to_dict`.

    Exact rationals are restored from the ``*_exact`` companions, so a
    profile survives a JSON round trip with its invariants intact.
    """
    exact = payload.get("categories_exact") or payload.get("categories") or {}
    categories = {k: parse_fraction(v) for k, v in exact.items()}
    total = parse_fraction(
        payload.get("total_cycles_exact", payload.get("total_cycles", 0))
    )
    layers = [
        LayerReport(
            name=row["name"],
            index=row["index"],
            cycles=parse_fraction(row["cycles"]),
            parts={k: parse_fraction(v) for k, v in row["parts"].items()},
            bound=row["bound"],
            overlap_efficiency=row.get("overlap_efficiency"),
            dma_busy=row.get("dma_busy", 0.0),
            compute_busy=row.get("compute_busy", 0.0),
        )
        for row in payload.get("layers", [])
    ]
    return ModelProfile(
        task=payload["task"],
        protection=payload["protection"],
        mode=payload["mode"],
        secure=bool(payload.get("secure")),
        total=total,
        categories=categories,
        counts=dict(payload.get("counts", {})),
        layers=layers,
        run_cycles=payload.get("run_cycles", 0.0),
        notes=list(payload.get("notes", ())),
    )


# ----------------------------------------------------------------------
# Building a profile
# ----------------------------------------------------------------------
def _layer_report(attribution) -> LayerReport:
    exposed_dma = sum(
        (
            v
            for k, v in attribution.parts.items()
            if category_root(k) in _MEMORY_ROOTS
        ),
        _ZERO,
    )
    flush = sum(
        (
            v
            for k, v in attribution.parts.items()
            if category_root(k) == "flush"
        ),
        _ZERO,
    )
    compute = attribution.parts.get("pe.compute", _ZERO)
    if flush > compute and flush > exposed_dma:
        bound = "flush"
    elif compute >= exposed_dma:
        bound = "compute"
    else:
        bound = "memory"
    dma_busy = float(attribution.stats.get("dma_busy", 0.0))
    overlap: Optional[float] = None
    if dma_busy > 0:
        hidden = dma_busy - float(exposed_dma)
        overlap = min(max(hidden / dma_busy, 0.0), 1.0)
    return LayerReport(
        name=attribution.name,
        index=attribution.index,
        cycles=attribution.total,
        parts=dict(attribution.parts),
        bound=bound,
        overlap_efficiency=overlap,
        dma_busy=dma_busy,
        compute_busy=float(attribution.stats.get("compute_busy", 0.0)),
        macs=float(attribution.stats.get("macs", 0.0)),
    )


def build_profile(
    run: RunProfile,
    protection: str,
    secure: bool = False,
    counts: Optional[Dict[str, int]] = None,
    run_cycles: float = 0.0,
) -> ModelProfile:
    """Fold one profiler run ledger into a report object."""
    return ModelProfile(
        task=run.task,
        protection=protection,
        mode=run.mode,
        secure=secure,
        total=run.total(),
        categories=run.by_category(),
        counts=dict(counts or {}),
        layers=[_layer_report(a) for a in run.layers],
        run_cycles=run_cycles,
    )


def profile_model(
    model: ModelGraph,
    protection: str = "snpu",
    detailed: bool = True,
    secure: bool = False,
    flush: Optional[str] = None,
) -> ModelProfile:
    """Run *model* under *protection* and return its attribution report.

    Runs inside a fresh ``telemetry.scoped`` block, so ambient telemetry
    state is untouched.
    """
    with telemetry.scoped(trace=False) as tel:
        soc = SoC(SoCConfig(protection=protection))
        handle = soc.submit(model, secure=secure)
        try:
            result = soc.run(handle, detailed=detailed, flush=flush)
        finally:
            soc.release(handle)
        runs = tel.profiler.runs
        if not runs:  # pragma: no cover - profiler always enabled in scope
            raise RuntimeError("profiler recorded no runs")
        run = runs[-1]
        counts = dict(tel.profiler.counts)
    return build_profile(
        run,
        protection=protection,
        secure=secure,
        counts=counts,
        run_cycles=result.cycles,
    )


# ----------------------------------------------------------------------
# Host-side (wall-clock) profiling of the simulator itself
# ----------------------------------------------------------------------
def profile_host(
    model: ModelGraph,
    protection: str = "snpu",
    detailed: bool = True,
    secure: bool = False,
    top: int = 15,
) -> str:
    """cProfile one simulated run; returns the hot-function report.

    This profiles the *simulator* (Python wall-clock), not the simulated
    hardware — the tool for finding host hot loops before optimizing.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        soc = SoC(SoCConfig(protection=protection))
        soc.run_model(model, secure=secure, detailed=detailed)
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    return buffer.getvalue()
