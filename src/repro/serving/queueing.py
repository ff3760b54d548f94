"""Admission, dispatch and service under each isolation mechanism.

Two service models, mirroring the paper's sharing axes:

**Temporal (``flush-tile`` / ``flush-layer`` / ``flush-layer5``)** — one
NPU time-shared at the chosen flush granularity.  Requests advance one
scheduling quantum (:meth:`MultiTaskScheduler.quanta`) at a time; when
the NPU changes protection domain (tenant) it pays the scrub +
context-switch cost, plus an extra context switch when the *world*
changes too.  Admission happens only at quantum boundaries — the
granularity-vs-SLA dilemma of §IV-B, now visible as tail latency.
Between two events (an arrival falling due, a completion) the queue
heads are fixed, so the policy hands over its dispatch order once
(:meth:`Policy.rotation`) and the simulator replays quanta along it,
adding the same floats in the same order a per-quantum pick would.

**Spatial (``partition`` / ``snpu``)** — two co-resident slots sharing
the scratchpad and DRAM channel, served with the analytic co-run rates
of :meth:`MultiTaskScheduler.run`.  ``partition`` statically halves the
scratchpad (a request runs at half-scratchpad rates even when alone);
``snpu`` models ID-based isolation: the driver picks the best
Pareto-dominant split per pairing (total-best among the splits that make
neither task slower than the static halves — 0.5 is always a candidate,
so sNPU is never worse than the partition by construction) and a
survivor expands to the best single-task allocation.  Crossing worlds
on a slot costs one context switch; no flush is ever paid.

Only what a reader consumes is recorded.  Every secure-world admission
is ledgered in the audit log (``serve.admit``); world switches are
counted (:attr:`ServeOutcome.world_switches`, the
``serving.world_switches`` counter and :class:`ServeWindows`), not
ledgered.  When the flow tracker is live (``repro serve --trace``, its
one reader) every admitted request gets a flow ID whose completion
record decomposes latency into service / security (flush + world
switch) / queueing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro import telemetry
from repro.driver.scheduler import MultiTaskScheduler
from repro.errors import ConfigError, ReconciliationError
from repro.npu.config import NPUConfig
from repro.serving.live import ServeWindows
from repro.serving.policies import Policy
from repro.serving.workload import (
    Request,
    Scenario,
    build_model,
    generate,
)
from repro.workloads.model import ModelGraph

MECHANISMS = ("snpu", "partition", "flush-tile", "flush-layer", "flush-layer5")

#: Scratchpad splits the snpu serving path searches per pairing.  A
#: restriction of the scheduler's DYNAMIC_SPLITS that keeps the analytic
#: run cache small; 0.5 is included so snpu dominates the static
#: partition pointwise.
SERVE_SPLITS = (0.25, 0.375, 0.5, 0.625, 0.75)

_EPS = 1e-9
_NEVER = float("inf")


def residual_violation_eps(latency: float) -> float:
    """Largest negative wait residual attributable to float noise.

    Latency, service and the security costs are each sums of many
    float quanta, so reassociation error scales with the magnitudes
    involved; anything below this is a *real* over-accounting bug."""
    return 1e-6 + 1e-9 * abs(latency)


class RateOracle:
    """Cached per-model / per-pair service times for a spatial mechanism."""

    def __init__(
        self,
        scheduler: MultiTaskScheduler,
        models: Dict[str, ModelGraph],
        mechanism: str,
    ):
        if mechanism not in ("snpu", "partition"):
            raise ConfigError(f"no spatial rates for mechanism {mechanism!r}")
        self.scheduler = scheduler
        self.models = models
        self.mechanism = mechanism
        self._solo: Dict[str, float] = {}
        self._alone: Dict[str, float] = {}
        self._pair: Dict[Tuple[str, str], Tuple[float, float]] = {}

    def solo(self, key: str) -> float:
        """Full-scratchpad, full-bandwidth cycles (the ideal)."""
        if key not in self._solo:
            self._solo[key] = self.scheduler.run(self.models[key]).cycles
        return self._solo[key]

    def alone(self, key: str) -> float:
        """Service cycles when the model holds the NPU by itself.

        ``partition`` stays on its static half-scratchpad allocation;
        ``snpu`` picks the better of the full and half allocations (the
        ID bits place no constraint, so the driver chooses freely —
        survivor expansion is this rate kicking in when a partner ends).
        """
        if key not in self._alone:
            half = self.scheduler.run(
                self.models[key], budget=self.scheduler.config.spad_bytes // 2
            ).cycles
            if self.mechanism == "partition":
                self._alone[key] = half
            else:
                self._alone[key] = min(self.solo(key), half)
        return self._alone[key]

    def pair(self, key_a: str, key_b: str) -> Tuple[float, float]:
        """Co-run service cycles ``(t_a, t_b)`` for the live pairing."""
        cached = self._pair.get((key_a, key_b))
        if cached is not None:
            return cached
        spad = self.scheduler.config.spad_bytes
        if self.mechanism == "partition":
            # The static split is partner-independent: half the
            # scratchpad, half the bandwidth.
            t_a = self.scheduler.run(
                self.models[key_a], budget=spad // 2, share=0.5
            ).cycles
            t_b = self.scheduler.run(
                self.models[key_b], budget=spad // 2, share=0.5
            ).cycles
        else:
            # Pareto-constrained split search: among the candidate
            # splits, keep only those where NEITHER task is slower than
            # under the static halves (a serving driver must not let one
            # tenant's allocation blow another's SLA), then minimize the
            # total normalized time.  0.5 is always a candidate, so snpu
            # dominates the partition baseline pointwise.
            # Both baselines use the SAME static-half budget the
            # partition mechanism actually pays (``spad // 2``).  Using
            # ``spad - spad // 2`` for one side hands the baseline an
            # extra byte whenever ``spad_bytes`` is odd, and a tiling
            # boundary can make that byte *slower* — the dominance
            # filter would then compare candidates against a baseline
            # partition never pays, breaking "snpu never worse than
            # partition" by construction.
            ta_half = self.scheduler.run(
                self.models[key_a], budget=spad // 2, share=0.5
            ).cycles
            tb_half = self.scheduler.run(
                self.models[key_b], budget=spad // 2, share=0.5
            ).cycles
            best = (
                ta_half / self.solo(key_a) + tb_half / self.solo(key_b),
                ta_half, tb_half,
            )
            for split in SERVE_SPLITS:
                budget_a = int(spad * split)
                ta = self.scheduler.run(
                    self.models[key_a], budget=budget_a, share=0.5
                ).cycles
                tb = self.scheduler.run(
                    self.models[key_b], budget=spad - budget_a, share=0.5
                ).cycles
                if ta > ta_half or tb > tb_half:
                    continue
                score = ta / self.solo(key_a) + tb / self.solo(key_b)
                if score < best[0]:
                    best = (score, ta, tb)
            t_a, t_b = best[1], best[2]
        self._pair[(key_a, key_b)] = (t_a, t_b)
        self._pair[(key_b, key_a)] = (t_b, t_a)
        return t_a, t_b

    def pair_norm(self, key_a: str, key_b: str) -> float:
        """Total normalized co-run time (the spatial policy's criterion)."""
        t_a, t_b = self.pair(key_a, key_b)
        return t_a / self.solo(key_a) + t_b / self.solo(key_b)


@dataclass
class CompletedRequest:
    """One served request with its latency decomposition (cycles)."""

    request: Request
    flow: Optional[int]
    completion: float
    latency: float
    service: float
    flush: float = 0.0
    world: float = 0.0

    @property
    def residual(self) -> float:
        """Signed latency remainder after the owned components.

        Negative values mean the decomposition over-accounts; the
        simulator counts small ones (float noise) and raises on large
        ones rather than letting :attr:`wait` mask them.
        """
        return self.latency - self.service - self.flush - self.world

    @property
    def wait(self) -> float:
        """Queueing + contention cycles (latency minus everything owned)."""
        return max(0.0, self.residual)

    @property
    def sla_ok(self) -> bool:
        return self.latency <= self.request.sla_cycles


@dataclass
class ServeOutcome:
    """The raw result of serving one scenario under one mechanism."""

    scenario: str
    mechanism: str
    policy: str
    rps: float
    duration_ms: float
    seed: int
    freq_ghz: float
    completed: List[CompletedRequest] = field(default_factory=list)
    makespan: float = 0.0
    flushes: int = 0
    flush_cycles: float = 0.0
    world_switches: int = 0
    world_cycles: float = 0.0
    #: Completions whose wait residual was negative float noise and got
    #: clamped to zero, and the total cycles clamped away.  Anything
    #: beyond noise raises :class:`ReconciliationError` instead.
    wait_clamps: int = 0
    clamped_cycles: float = 0.0
    #: Live per-window timeline (populated when the simulator was built
    #: with ``window_ms``; reconciled against the totals above at close).
    windows: Optional[ServeWindows] = None

    @property
    def service_cycles(self) -> float:
        return sum(c.service for c in self.completed)

    @property
    def busy_cycles(self) -> float:
        return self.service_cycles + self.flush_cycles + self.world_cycles


class _TemporalState:
    """Mutable per-request progress under a temporal mechanism."""

    __slots__ = ("quanta", "qi", "service", "flush", "world", "flow")

    def __init__(self, quanta: List[float], flow: Optional[int]):
        self.quanta = quanta
        self.qi = 0
        self.service = 0.0
        self.flush = 0.0
        self.world = 0.0
        self.flow = flow


class _Slot:
    """One spatial co-residence slot: remaining work + pending setup."""

    __slots__ = ("req", "work", "setup", "world_paid", "flow")

    def __init__(self, req: Request, setup: float, flow: Optional[int]):
        self.req = req
        self.work = 1.0  # fraction of the request still to serve
        self.setup = setup  # world-switch cycles still to burn
        self.world_paid = setup
        self.flow = flow


class ServeSimulator:
    """Serve one scenario's request stream under one mechanism."""

    def __init__(
        self,
        scenario: Scenario,
        mechanism: str = "snpu",
        policy: str = "rr",
        rps: Optional[float] = None,
        duration_ms: Optional[float] = None,
        seed: int = 0,
        config: Optional[NPUConfig] = None,
        scheduler: Optional[MultiTaskScheduler] = None,
        window_ms: Optional[float] = None,
    ):
        if mechanism not in MECHANISMS:
            raise ConfigError(
                f"unknown mechanism {mechanism!r}; choose from "
                f"{', '.join(MECHANISMS)}"
            )
        self.scenario = scenario
        self.mechanism = mechanism
        self.policy_name = policy
        self.config = config or NPUConfig.paper_default()
        #: Passing a shared scheduler across mechanisms reuses its
        #: analytic run cache (the sweep experiment does this).
        self.scheduler = scheduler or MultiTaskScheduler(self.config)
        # ``rps=0`` is a legitimate request ("serve nothing, render an
        # empty report") — only ``None`` means "use the scenario
        # default".  A falsy check here would silently fall back to the
        # scenario rate and report a run the user never asked for.
        self.rps = scenario.rps if rps is None else float(rps)
        if self.rps < 0:
            raise ConfigError(f"rps must be non-negative, got {self.rps}")
        self.duration_ms = (
            scenario.duration_ms if duration_ms is None else float(duration_ms)
        )
        if self.duration_ms <= 0:
            raise ConfigError(
                f"duration_ms must be positive, got {self.duration_ms}"
            )
        self.seed = int(seed)
        self.models = {key: build_model(key) for key in scenario.model_keys()}
        self._tenant_order = tuple(t.name for t in scenario.tenants)
        self.oracle: Optional[RateOracle] = None
        pair_norm = None
        if mechanism in ("snpu", "partition"):
            self.oracle = RateOracle(self.scheduler, self.models, mechanism)
            pair_norm = self.oracle.pair_norm
        self.policy = Policy(policy, self._tenant_order, pair_norm=pair_norm)
        self._flow_ids: Dict[int, Optional[int]] = {}
        if window_ms is not None and window_ms <= 0:
            raise ConfigError(f"window_ms must be positive, got {window_ms}")
        self.window_ms = float(window_ms) if window_ms else None
        self.windows: Optional[ServeWindows] = None
        tel = telemetry.metrics.group("serving")
        self._m_arrivals = tel.counter("arrivals")
        self._m_completed = tel.counter("completed")
        self._m_flushes = tel.counter("flushes")
        self._m_world = tel.counter("world_switches")
        self._h_latency = tel.histogram("latency_cycles")

    # ------------------------------------------------------------------
    def run(self) -> ServeOutcome:
        requests = generate(
            self.scenario, rps=self.rps, duration_ms=self.duration_ms,
            seed=self.seed, freq_ghz=self.config.freq_ghz,
        )
        outcome = ServeOutcome(
            scenario=self.scenario.name,
            mechanism=self.mechanism,
            policy=self.policy_name,
            rps=self.rps,
            duration_ms=self.duration_ms,
            seed=self.seed,
            freq_ghz=self.config.freq_ghz,
        )
        audit = telemetry.audit
        if self.window_ms is not None:
            self.windows = ServeWindows(
                tenant_names=list(self._tenant_order),
                window_ms=self.window_ms,
                cycles_per_ms=self.config.freq_ghz * 1e6,
                switch_cost=self.config.flush_cycles,
                world_cost=float(self.config.context_switch_cycles),
            )
            if audit.enabled:
                audit.subscribe(self.windows.on_audit)
        try:
            if self.mechanism.startswith("flush-"):
                self._run_temporal(requests, outcome)
            else:
                self._run_spatial(requests, outcome)
        finally:
            if self.windows is not None and audit.enabled:
                audit.unsubscribe(self.windows.on_audit)
        outcome.completed.sort(key=lambda c: c.request.rid)
        if self.windows is not None:
            self.windows.close(outcome.makespan)
            self.windows.reconcile(outcome)
            outcome.windows = self.windows
        return outcome

    # ------------------------------------------------------------------
    def _admit(
        self, req: Request, queues: Dict[str, Deque[Request]]
    ) -> Optional[int]:
        """Enqueue an arrival: flow allocation + secure-admission ledger."""
        queues[req.tenant].append(req)
        self._m_arrivals.inc()
        if self.windows is not None:
            self.windows.on_arrival(req.arrival, req.tenant)
        flow = telemetry.flows.allocate()
        self._flow_ids[req.rid] = flow
        if req.world == "secure":
            telemetry.audit.record(
                "serve.admit", "allow", cycle=req.arrival, world=req.world,
                flow=flow, tenant=req.tenant, model=req.model, rid=req.rid,
            )
        return flow

    def _record_completion(
        self,
        req: Request,
        flow: Optional[int],
        completion: float,
        service: float,
        flush: float,
        world: float,
        outcome: ServeOutcome,
    ) -> None:
        latency = completion - req.arrival
        self._m_completed.inc()
        self._h_latency.observe(latency)
        if self.windows is not None:
            self.windows.on_completion(
                completion, req.tenant, latency,
                latency <= req.sla_cycles,
            )
        telemetry.flows.complete(
            flow,
            kind="serve",
            issue_ts=req.arrival,
            total=latency,
            parts=[
                ("npu", "service", service),
                ("npu", "security", flush + world),
            ],
            residual=("queue", "queueing"),
            world=req.world,
            stream=req.tenant,
            context=req.model,
        )
        done = CompletedRequest(
            request=req, flow=flow, completion=completion,
            latency=latency, service=service, flush=flush, world=world,
        )
        if done.residual < 0.0:
            if done.residual < -residual_violation_eps(latency):
                raise ReconciliationError(
                    f"over-accounted completion rid={req.rid} "
                    f"tenant={req.tenant!r}: service+flush+world exceeds "
                    f"latency by {-done.residual:.6g} cycles "
                    f"(latency={latency:.6g})"
                )
            outcome.wait_clamps += 1
            outcome.clamped_cycles += -done.residual
        outcome.completed.append(done)

    # ------------------------------------------------------------------
    # Temporal sharing: one NPU, quantum round-robin with flushes
    # ------------------------------------------------------------------
    def _run_temporal(
        self, requests: List[Request], outcome: ServeOutcome
    ) -> None:
        granularity = self.mechanism.split("-", 1)[1]
        # Flushed quanta: the flush baseline cannot keep scratchpad state
        # resident across a boundary it might be preempted at, so every
        # request carries the Fig. 14 write-back inflation.
        quanta_cache: Dict[str, List[float]] = {
            key: self.scheduler.quanta(model, granularity, flushed=True)
            for key, model in self.models.items()
        }
        switch_cost = self.config.flush_cycles
        world_cost = float(self.config.context_switch_cycles)
        windows = self.windows
        arrivals: Deque[Request] = deque(requests)
        queues: Dict[str, Deque[Request]] = {
            name: deque() for name in self._tenant_order
        }
        states: Dict[int, _TemporalState] = {}
        t = 0.0
        prev_tenant: Optional[str] = None
        prev_world: Optional[str] = None
        flushes = world_switches = 0
        flush_cycles = world_cycles = 0.0
        while arrivals or any(queues.values()):
            while arrivals and arrivals[0].arrival <= t + _EPS:
                req = arrivals.popleft()
                flow = self._admit(req, queues)
                states[req.rid] = _TemporalState(quanta_cache[req.model], flow)
            heads = [
                queues[name][0] for name in self._tenant_order if queues[name]
            ]
            if not heads:
                t = max(t, arrivals[0].arrival)
                continue
            # Until the next event (an arrival falls due or a request
            # completes) the heads stay fixed, and so does the policy's
            # dispatch order: replay quanta along it, one at a time.
            next_arrival = arrivals[0].arrival if arrivals else _NEVER
            order = [(r, states[r.rid]) for r in self.policy.rotation(heads)]
            n = len(order)
            i = 0
            while True:
                req, state = order[i]
                if prev_tenant is not None and req.tenant != prev_tenant:
                    # Protection-domain change: scrub + context switch,
                    # plus an extra context switch when the world flips.
                    if windows is not None:
                        windows.on_flush(t)
                    t += switch_cost
                    state.flush += switch_cost
                    flushes += 1
                    flush_cycles += switch_cost
                    if req.world != prev_world:
                        if windows is not None:
                            windows.on_world_switch(t)
                        t += world_cost
                        state.world += world_cost
                        world_switches += 1
                        world_cycles += world_cost
                prev_tenant, prev_world = req.tenant, req.world
                quantum = state.quanta[state.qi]
                state.qi += 1
                state.service += quantum
                t += quantum
                if state.qi == len(state.quanta):
                    queues[req.tenant].popleft()
                    self._record_completion(
                        req, state.flow, t, state.service, state.flush,
                        state.world, outcome,
                    )
                    del states[req.rid]
                    break
                if next_arrival <= t + _EPS:
                    break
                i = (i + 1) % n
            self.policy.served(req)
        outcome.makespan = t
        outcome.flushes = flushes
        outcome.flush_cycles = flush_cycles
        outcome.world_switches = world_switches
        outcome.world_cycles = world_cycles
        self._m_flushes.inc(flushes)
        self._m_world.inc(world_switches)

    # ------------------------------------------------------------------
    # Spatial sharing: two slots at analytic co-run rates
    # ------------------------------------------------------------------
    def _run_spatial(
        self, requests: List[Request], outcome: ServeOutcome
    ) -> None:
        assert self.oracle is not None
        oracle = self.oracle
        world_cost = float(self.config.context_switch_cycles)
        arrivals: Deque[Request] = deque(requests)
        queues: Dict[str, Deque[Request]] = {
            name: deque() for name in self._tenant_order
        }
        slots: List[Optional[_Slot]] = [None, None]
        slot_world: List[Optional[str]] = [None, None]
        t = 0.0
        while arrivals or any(queues.values()) or any(
            s is not None for s in slots
        ):
            while arrivals and arrivals[0].arrival <= t + _EPS:
                self._admit(arrivals.popleft(), queues)
            # Fill free slots (slot 0 first: fixed order keeps the
            # simulation deterministic).
            for i in (0, 1):
                if slots[i] is not None:
                    continue
                heads = [
                    queues[name][0]
                    for name in self._tenant_order
                    if queues[name]
                ]
                if not heads:
                    break
                partner = slots[1 - i]
                req = self.policy.pick(
                    heads,
                    partner_model=partner.req.model if partner else None,
                )
                queues[req.tenant].popleft()
                setup = 0.0
                if slot_world[i] is not None and slot_world[i] != req.world:
                    setup = world_cost
                    if self.windows is not None:
                        self.windows.on_world_switch(t)
                    outcome.world_switches += 1
                    outcome.world_cycles += world_cost
                    self._m_world.inc()
                slot_world[i] = req.world
                slots[i] = _Slot(req, setup, self._flow_ids.get(req.rid))
            occupants = [i for i in (0, 1) if slots[i] is not None]
            if not occupants:
                if not arrivals:
                    break
                t = max(t, arrivals[0].arrival)
                continue
            # Current service times: co-run rates when both slots are
            # busy, the mechanism's alone rate otherwise (snpu's alone
            # rate IS survivor expansion).
            times: Dict[int, float] = {}
            if len(occupants) == 2:
                sa = slots[occupants[0]]
                sb = slots[occupants[1]]
                assert sa is not None and sb is not None
                t_a, t_b = oracle.pair(sa.req.model, sb.req.model)
                times = {occupants[0]: t_a, occupants[1]: t_b}
            else:
                only = slots[occupants[0]]
                assert only is not None
                times = {occupants[0]: oracle.alone(only.req.model)}
            # Next event: a completion or the next arrival.
            dt = None
            for i in occupants:
                slot = slots[i]
                assert slot is not None
                remaining = slot.setup + slot.work * times[i]
                dt = remaining if dt is None else min(dt, remaining)
            if arrivals:
                dt = min(dt, max(0.0, arrivals[0].arrival - t))
            assert dt is not None
            # Advance: setup burns in real time, then work at the rate.
            for i in occupants:
                slot = slots[i]
                assert slot is not None
                step = dt
                if slot.setup > 0.0:
                    burned = min(step, slot.setup)
                    slot.setup -= burned
                    step -= burned
                if step > 0.0:
                    slot.work -= step / times[i]
            t += dt
            for i in occupants:
                slot = slots[i]
                assert slot is not None
                if slot.setup <= _EPS and slot.work <= 1e-7:
                    self._record_completion(
                        slot.req, slot.flow, t,
                        oracle.alone(slot.req.model), 0.0, slot.world_paid,
                        outcome,
                    )
                    slots[i] = None
        outcome.makespan = t
