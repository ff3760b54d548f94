"""Event tracing with Chrome-trace (Perfetto) and plain-text export.

The :class:`TraceRecorder` collects **spans** (named intervals with a
duration — a DMA burst, an IOTLB walk, a scheduler quantum), **instants**
(point events — a Guarder denial, a world switch) and **flow events**
(arrows linking one request's spans) on named *tracks*.  Tracks map to
Chrome-trace threads, so a trace opened in ``chrome://tracing`` or
https://ui.perfetto.dev shows one swim-lane per hardware unit.

Timebases: components with a real simulation clock (the NoC fabric) pass
``engine.now``; analytic components keep a private cycle cursor.  Tracks
are independent lanes, so mixed timebases stay readable, and the exporter
sorts all events by ``ts`` which keeps the JSON globally monotonic.

The recorder is disabled by default; every recording method bails on one
attribute check, and hot callers additionally guard with
``if tracer.enabled`` so argument marshalling is never paid either.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional


class TraceRecorder:
    """In-memory trace buffer with Chrome-trace JSON export."""

    def __init__(self, enabled: bool = False, max_events: int = 500_000):
        self.enabled = enabled
        #: Hard cap on buffered events; recording silently stops beyond it
        #: (``dropped`` counts the overflow) so a runaway trace cannot
        #: exhaust memory.
        self.max_events = max_events
        self.dropped = 0
        self._events: List[Dict[str, Any]] = []
        self._tracks: Dict[str, int] = {}
        #: Fallback timebase for components without a clock: a monotonic
        #: sequence number bumped once per auto-stamped event.
        self._auto_ts = 0.0

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    def _tid(self, track: str) -> int:
        tid = self._tracks.get(track)
        if tid is None:
            tid = len(self._tracks)
            self._tracks[track] = tid
        return tid

    def _stamp(self, ts: Optional[float]) -> float:
        if ts is None:
            self._auto_ts += 1.0
            return self._auto_ts
        return float(ts)

    def _push(self, event: Dict[str, Any]) -> None:
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(event)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        cat: str,
        ts: Optional[float] = None,
        dur: float = 0.0,
        track: str = "sim",
        **args: Any,
    ) -> None:
        """Record one complete interval (Chrome-trace phase ``X``)."""
        if not self.enabled:
            return
        self._push(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": self._stamp(ts),
                "dur": float(dur),
                "pid": 0,
                "tid": self._tid(track),
                "args": args,
            }
        )

    def instant(
        self,
        name: str,
        cat: str,
        ts: Optional[float] = None,
        track: str = "sim",
        **args: Any,
    ) -> None:
        """Record a point event (Chrome-trace phase ``i``)."""
        if not self.enabled:
            return
        self._push(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": self._stamp(ts),
                "s": "t",
                "pid": 0,
                "tid": self._tid(track),
                "args": args,
            }
        )

    def flow_point(
        self,
        name: str,
        cat: str,
        ph: str,
        flow_id: int,
        ts: Optional[float] = None,
        track: str = "sim",
        **args: Any,
    ) -> None:
        """Record one Chrome-trace *flow event* (phase ``s``/``t``/``f``).

        Flow events with the same ``id`` draw an arrow chain between the
        slices enclosing them, across tracks — Perfetto renders the
        causal path of one request.  The terminating ``f`` event binds to
        the enclosing slice (``bp: "e"``) per the trace-event spec.
        """
        if not self.enabled:
            return
        if ph not in ("s", "t", "f"):
            raise ValueError(f"flow phase must be s/t/f, got {ph!r}")
        event: Dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": ph,
            "id": int(flow_id),
            "ts": self._stamp(ts),
            "pid": 0,
            "tid": self._tid(track),
            "args": args,
        }
        if ph == "f":
            event["bp"] = "e"
        self._push(event)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)

    def categories(self) -> Dict[str, int]:
        """``category -> event count`` over the buffered trace."""
        out: Dict[str, int] = {}
        for event in self._events:
            out[event["cat"]] = out.get(event["cat"], 0) + 1
        return dict(sorted(out.items()))

    def filter(
        self,
        cat: Optional[str] = None,
        name: Optional[str] = None,
        track: Optional[str] = None,
        ph: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Events matching every given criterion (None = wildcard)."""
        tid = self._tracks.get(track) if track is not None else None
        out = []
        for event in self._events:
            if cat is not None and event["cat"] != cat:
                continue
            if name is not None and event["name"] != name:
                continue
            if ph is not None and event["ph"] != ph:
                continue
            if track is not None and event["tid"] != tid:
                continue
            out.append(event)
        return out

    def _sorted_events(self) -> List[Dict[str, Any]]:
        return sorted(self._events, key=lambda e: (e["ts"], e["tid"]))

    def to_chrome_trace(self, indent: Optional[int] = None) -> str:
        """Chrome-trace JSON (load in chrome://tracing or Perfetto).

        Emits ``thread_name`` metadata so each track shows up as a named
        lane, then every buffered event sorted by timestamp.
        """
        events: List[Dict[str, Any]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
            for track, tid in sorted(self._tracks.items(), key=lambda kv: kv[1])
        ]
        events.extend(self._sorted_events())
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {
                "timebase": "NPU cycles (per-track)",
                # Surfaced so a truncated trace is never mistaken for a
                # complete one (the CLI also warns on stderr).
                "dropped_events": self.dropped,
            },
        }
        return json.dumps(payload, indent=indent, default=str)

    def to_timeline(self, limit: Optional[int] = None) -> str:
        """Human-readable timeline: one line per event, time-sorted."""
        tid_to_track = {tid: track for track, tid in self._tracks.items()}
        lines = []
        events = self._sorted_events()
        if limit is not None:
            events = events[:limit]
        for event in events:
            track = tid_to_track.get(event["tid"], "?")
            if event["ph"] == "X":
                what = f"[{event['ts']:>12.1f} +{event['dur']:>10.1f}]"
            else:
                what = f"[{event['ts']:>12.1f}            ]"
            args = event.get("args") or {}
            arg_text = " ".join(f"{k}={v}" for k, v in args.items())
            lines.append(
                f"{what} {track:<12} {event['cat']:<10} {event['name']}"
                + (f"  {arg_text}" if arg_text else "")
            )
        if limit is not None and len(self._events) > limit:
            lines.append(f"... ({len(self._events) - limit} more events)")
        return "\n".join(lines)
