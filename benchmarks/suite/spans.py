"""Host-time spans for the benchmark's traced round.

A leg process wraps the callables listed in ``leg.py``; each call
records one span (callable name, start, end, enclosing span) in flat
integer arrays, so the ~200k IOMMU/Guarder calls of a traced ``fig13``
leg cost a few MB.  Times are integer nanoseconds, which keeps the
self-time bookkeeping exact: a span's self time is its duration minus
the durations of the spans it directly encloses, and a leg's self times
sum to its root span bit for bit.

The parent process (``run.py``) checks every leg's spans, folds them
into per-layer totals and streams them into one Chrome trace-event file.
"""

from __future__ import annotations

import array
import functools
import json
import time
from typing import Callable, Dict, List


class HarnessError(Exception):
    """The measurement itself is broken (exit 2), as opposed to a failed leg."""


class Recorder:
    """In-memory span log of one leg process."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self.name = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* recording one span named *name* per call."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(-1)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def to_json(self) -> Dict[str, list]:
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }


def self_times(spans: Dict[str, list]) -> List[int]:
    """Per-span self time: duration minus the directly enclosed spans."""
    own = [e - s for s, e in zip(spans["start"], spans["end"])]
    for index, parent in enumerate(spans["parent"]):
        if parent >= 0:
            own[parent] -= spans["end"][index] - spans["start"][index]
    return own


def check(spans: Dict[str, list], leg: str) -> List[int]:
    """Validate one leg's spans and return their self times.

    Raises :class:`HarnessError` unless span 0 is the only root, every
    span closed after it opened inside an earlier span, no self time is
    negative and the self times sum exactly to the root's duration.
    """
    starts, ends, parents = spans["start"], spans["end"], spans["parent"]
    if not starts or parents[0] != -1:
        raise HarnessError(f"{leg}: no root span")
    for index in range(len(starts)):
        if ends[index] < starts[index]:
            raise HarnessError(f"{leg}: span {index} never closed")
        if index and not 0 <= parents[index] < index:
            raise HarnessError(f"{leg}: span {index} outside the root span")
    own = self_times(spans)
    if min(own) < 0:
        index = own.index(min(own))
        raise HarnessError(
            f"{leg}: span {index} ({spans['names'][spans['name'][index]]}) "
            f"has negative self time {own[index]} ns"
        )
    if sum(own) != ends[0] - starts[0]:
        raise HarnessError(f"{leg}: self times do not sum to the root span")
    return own


def layer_totals(
    spans: Dict[str, list], own: List[int], layer_of: Dict[str, str]
) -> Dict[str, Dict[str, int]]:
    """``{layer: {"calls", "leaves", "self_ns"}}`` of one leg.

    A call is a span whose parent belongs to another layer, so
    ``TrustZoneSMMU.handle`` -> ``IOMMU.handle`` is one ``mmu.iommu``
    call; a leaf is a call that encloses no other span (a cache hit for
    the scheduler and the rate oracle).
    """
    layers = [layer_of[name] for name in spans["names"]]
    span_layer = [layers[n] for n in spans["name"]]
    has_child = [False] * len(own)
    for parent in spans["parent"]:
        if parent >= 0:
            has_child[parent] = True
    totals: Dict[str, Dict[str, int]] = {}
    for index, layer in enumerate(span_layer):
        entry = totals.setdefault(
            layer, {"calls": 0, "leaves": 0, "self_ns": 0}
        )
        entry["self_ns"] += own[index]
        parent = spans["parent"][index]
        if parent < 0 or span_layer[parent] != layer:
            entry["calls"] += 1
            entry["leaves"] += not has_child[index]
    return totals


class ChromeTrace:
    """Streams spans as Chrome trace-event ``X`` events (Perfetto opens it)."""

    def __init__(self, path: str, t0_ns: int):
        self.t0_ns = t0_ns
        self._fh = open(path, "w")
        self._fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
        self._first = True

    def _write(self, event: dict) -> None:
        if not self._first:
            self._fh.write(",\n")
        self._first = False
        self._fh.write(json.dumps(event, separators=(",", ":")))

    def name_process(self, pid: int, name: str) -> None:
        self._write({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                     "args": {"name": name}})

    def add_leg(
        self, spans: Dict[str, list], layer_of: Dict[str, str],
        pid: int, tid: int, leg: str,
    ) -> None:
        self._write({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                     "args": {"name": leg}})
        names = spans["names"]
        for index, (name, start, end, parent) in enumerate(zip(
            spans["name"], spans["start"], spans["end"], spans["parent"]
        )):
            self._write({
                "name": names[name], "cat": layer_of[names[name]], "ph": "X",
                "ts": (start - self.t0_ns) / 1000, "dur": (end - start) / 1000,
                "pid": pid, "tid": tid,
                "args": {"request": leg, "span": index, "parent": parent},
            })

    def close(self) -> None:
        self._fh.write("\n]}\n")
        self._fh.close()
