"""Dispatch policies: which queued request gets the NPU next.

The simulator keeps one FIFO queue per tenant and asks the policy to
pick among the queue *heads* — so ordering within a tenant is always
FIFO (natural batching: consecutive same-tenant requests never pay a
protection-domain flush) and the policy decides only the inter-tenant
schedule:

``fifo``
    Global arrival order.  Under temporal sharing a request runs to
    completion before the next starts (fewest flushes, worst
    responsiveness).
``rr`` (default)
    Round-robin over tenants at every scheduling boundary — the flush
    baseline of §IV-B: fair, but fine granularities pay a scrub +
    context switch on almost every quantum.  While the queue heads stay
    the same the rotation is periodic; :meth:`Policy.rotation` hands it
    over whole so the temporal simulator can replay it.
``priority``
    Lowest ``TenantSpec.priority`` first, preemptively *at quantum
    boundaries*: an urgent arrival waits out at most the quantum in
    flight, exactly the ``preemptive_corun`` wait model — the SLA
    dilemma knob.
``spatial``
    Pairing-aware admission for the spatial mechanisms: when one slot is
    busy, admit the queued head whose co-run with the running model has
    the best total normalized rate (the ``spatial_pair`` total-best
    criterion applied online).  Falls back to ``fifo`` order when no
    partner is running (or under temporal mechanisms).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.serving.workload import Request

POLICIES = ("fifo", "rr", "priority", "spatial")


class Policy:
    """Deterministic head-of-queue selector (ties broken by arrival, rid)."""

    def __init__(
        self,
        name: str,
        tenant_order: Sequence[str],
        pair_norm: Optional[Callable[[str, str], float]] = None,
    ):
        if name not in POLICIES:
            raise ConfigError(
                f"unknown policy {name!r}; choose from {', '.join(POLICIES)}"
            )
        self.name = name
        self.tenant_order: Tuple[str, ...] = tuple(tenant_order)
        #: ``pair_norm(running_model, candidate_model)`` — total normalized
        #: co-run time of the pairing (lower = better); wired up by the
        #: spatial simulator, None under temporal mechanisms.
        self.pair_norm = pair_norm
        self._index = {t: i for i, t in enumerate(self.tenant_order)}
        self._rr_last = -1

    def rotation(self, candidates: Sequence[Request]) -> List[Request]:
        """The cyclic order in which *candidates* take quanta for as long
        as they stay the queue heads (temporal sharing, no partner).

        ``rr`` visits the candidates' tenants in declared order, starting
        after the tenant served last; every other policy hands every
        quantum to its one :meth:`pick`.  A caller that serves along the
        order reports the request it served last through :meth:`served`.
        """
        if self.name != "rr":
            return [self.pick(candidates)]
        n = len(self.tenant_order)
        start = self._rr_last + 1
        return sorted(
            candidates, key=lambda r: (self._index[r.tenant] - start) % n
        )

    def served(self, req: Request) -> None:
        """Note that *req*'s tenant was served last (moves the rr pointer)."""
        self._rr_last = self._index[req.tenant]

    def pick(
        self,
        candidates: Sequence[Request],
        partner_model: Optional[str] = None,
    ) -> Request:
        """Choose among *candidates* (the non-empty tenant queue heads)."""
        if not candidates:
            raise ConfigError("no candidates to dispatch")
        if self.name == "fifo":
            return min(candidates, key=lambda r: (r.arrival, r.rid))
        if self.name == "priority":
            return min(candidates, key=lambda r: (r.priority, r.arrival, r.rid))
        if self.name == "rr":
            req = self.rotation(candidates)[0]
            self.served(req)
            return req
        # spatial
        if partner_model is not None and self.pair_norm is not None:
            return min(
                candidates,
                key=lambda r: (
                    self.pair_norm(partner_model, r.model), r.arrival, r.rid
                ),
            )
        return min(candidates, key=lambda r: (r.arrival, r.rid))
