"""Append-only security audit ledger.

TEE deployments need more than counters: they need a **replayable record
of every access-control decision** — which Guarder register denied which
request, when the device switched worlds, which router channel was
granted to whom.  The :class:`AuditLedger` collects those decisions as
append-only records stamped with the simulated cycle, the requesting
world and the flow ID of the request being judged (when one exists), and
serialises them to deterministic JSONL.

Record kinds emitted by the instrumented components::

    guarder.deny        Guarder translation/checking denial (reason in detail)
    guarder.program     checking/translation register programmed
    iommu.deny          IOMMU translation fault or permission/world violation
    smmu.world_switch   TrustZone device NS-bit flip (+ IOTLB shootdown)
    noc.grant           peephole authentication locked a receive channel
    noc.release         a receive channel was released
    noc.deny            peephole rejected a packet (NoCAuthError)
    spad.deny           scratchpad isolation / partition violation
    monitor.submit      secure-task verification verdict (allow/deny)
    monitor.schedule    secure-task scheduling verdict (allow/deny)
    monitor.complete    secure-task teardown
    privilege.deny      a normal-world agent attempted a secure instruction

Determinism: :meth:`to_jsonl` sorts records by ``(origin, seq)`` and
dumps them with sorted keys and compact separators, so a ledger merged
from per-task sub-ledgers (each ingested under a stable *origin* such as
the attack name) renders to an **identical byte sequence regardless of
how many worker processes produced it** — the property ``repro audit
--jobs 1`` vs ``--jobs 4`` is tested on.

The ledger is disabled by default; ``telemetry.scoped()`` builds an
enabled one (records are cheap: only decisions are recorded, never
per-packet traffic).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional


class AuditLedger:
    """Append-only, deterministic record of access-control decisions."""

    def __init__(self, enabled: bool = False, max_records: int = 500_000):
        self.enabled = enabled
        #: Hard cap; records beyond it are counted in ``dropped``.
        self.max_records = max_records
        self.dropped = 0
        #: Timebase hint: issuing engines set this to their cycle cursor
        #: before driving downstream components, so a denial raised deep
        #: in an access controller is stamped with the request's time.
        self.clock = 0.0
        self._records: List[Dict[str, Any]] = []
        self._next_seq = 0
        self._origin = ""
        #: Streaming observers (e.g. the security sentinel) notified on
        #: every *appended* record — never on ingest (those records were
        #: already observed live in the worker that produced them) and
        #: never when the ledger is disabled or dropping.
        self._subscribers: List[Callable[[Dict[str, Any]], None]] = []

    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[Dict[str, Any]], None]) -> None:
        """Register a streaming observer called with each appended record.

        Callbacks run synchronously inside :meth:`record`, in
        subscription order, and must not append to the ledger themselves
        (a detector reacting to a decision is an *observer*, not a new
        decision source)."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Dict[str, Any]], None]) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def __len__(self) -> int:
        return len(self._records)

    def set_origin(self, origin: str) -> None:
        """Stable partition key for records appended from now on (used by
        parallel runners to keep the merged ledger order-independent)."""
        self._origin = origin

    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        decision: str,
        cycle: Optional[float] = None,
        world: str = "",
        flow: Optional[int] = None,
        **detail: Any,
    ) -> None:
        """Append one decision record.

        *decision* is ``"allow"``, ``"deny"`` or ``"event"`` (state
        changes like world switches that are neither).  *cycle* defaults
        to the ledger's :attr:`clock`.  *flow* is the flow ID of the
        request being judged, or None when the decision is not tied to a
        request (register programming, scratchpad port accesses).
        """
        if not self.enabled:
            return
        if len(self._records) >= self.max_records:
            self.dropped += 1
            return
        entry = {
            "seq": self._next_seq,
            "origin": self._origin,
            "cycle": float(self.clock if cycle is None else cycle),
            "kind": kind,
            "decision": decision,
            "world": world,
            "flow": flow,
            "detail": {k: _jsonable(v) for k, v in sorted(detail.items())},
        }
        self._records.append(entry)
        self._next_seq += 1
        for callback in self._subscribers:
            callback(entry)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[Dict[str, Any]]:
        return [dict(r) for r in self._records]

    def find(
        self,
        kind: Optional[str] = None,
        decision: Optional[str] = None,
        world: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Records matching every given criterion (None = wildcard)."""
        out = []
        for record in self._records:
            if kind is not None and record["kind"] != kind:
                continue
            if decision is not None and record["decision"] != decision:
                continue
            if world is not None and record["world"] != world:
                continue
            out.append(dict(record))
        return out

    def kinds(self) -> Dict[str, int]:
        """``kind -> record count`` over the ledger."""
        out: Dict[str, int] = {}
        for record in self._records:
            out[record["kind"]] = out.get(record["kind"], 0) + 1
        return dict(sorted(out.items()))

    def ingest(
        self, records: Iterable[Dict[str, Any]], origin: Optional[str] = None
    ) -> None:
        """Fold a foreign sub-ledger (e.g. from a worker process) in.

        When *origin* is given it overrides each record's origin, giving
        the sub-ledger a stable identity independent of which worker ran
        it; the per-record ``seq`` is preserved so ordering *within* one
        origin survives the merge.
        """
        if not self.enabled:
            return
        for record in records:
            record = dict(record)
            if origin is not None:
                record["origin"] = origin
            if len(self._records) >= self.max_records:
                self.dropped += 1
                continue
            self._records.append(record)

    def sorted_records(self) -> List[Dict[str, Any]]:
        """Records in the deterministic replay order ``(origin, seq)``."""
        return sorted(self._records, key=lambda r: (r["origin"], r["seq"]))

    def to_jsonl(self) -> str:
        """Deterministic JSONL rendering (one record per line).

        Identical input records produce identical bytes regardless of
        append/ingest order — the replay-determinism contract.
        """
        lines = [
            json.dumps(r, sort_keys=True, separators=(",", ":"), default=str)
            for r in self.sorted_records()
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _jsonable(value: Any) -> Any:
    """Coerce a detail value to a JSON-stable primitive."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
