"""Multi-task scheduling policies over the NPU (Figs. 14 & 15).

Two sharing axes from the paper:

* **temporal sharing** — the flush baseline: the NPU context-switches
  between tasks at a chosen granularity (tile / layer / five layers) and
  must scrub + save/restore scratchpad context at every boundary
  (Fig. 14).
* **spatial sharing** — two tasks run concurrently on their own cores but
  share the scratchpad capacity and the DRAM channel.  The static
  partition baseline fixes the capacity split for the whole run; sNPU's
  ID-based isolation lets the driver pick *any* split (the "total-best"
  strategy) and lets the survivor expand to the full scratchpad once its
  partner finishes (Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.errors import ConfigError
from repro.memory.dram import DRAMModel
from repro.mmu.base import NoProtection
from repro.npu.config import NPUConfig
from repro.npu.core import NPUCore, RunResult
from repro.driver.compiler import TilingCompiler
from repro.workloads.model import ModelGraph


@dataclass
class TimelineEvent:
    """One scheduling event in a co-run timeline."""

    time: float
    task: str
    what: str


@dataclass
class PreemptionStats:
    """SLA view of one mechanism: how long a just-arrived high-priority
    task waits before it can start (Table I's SLA column).

    Temporal-sharing mechanisms admit only at scheduling boundaries, so
    the wait is the remaining quantum; spatial mechanisms (partition,
    sNPU's ID-based sharing) admit immediately.
    """

    mechanism: str
    worst_wait_cycles: float
    mean_wait_cycles: float
    n_boundaries: int

    def meets_sla(self, budget_cycles: float) -> bool:
        return self.worst_wait_cycles <= budget_cycles


@dataclass
class TemporalShareResult:
    """Outcome of round-robin time-sharing two tasks (flush baseline)."""

    granularity: str
    task_a: str
    task_b: str
    t_a: float
    t_b: float
    t_a_solo: float
    t_b_solo: float
    switches: int

    @property
    def norm_a(self) -> float:
        return self.t_a / self.t_a_solo

    @property
    def norm_b(self) -> float:
        return self.t_b / self.t_b_solo

    @property
    def makespan(self) -> float:
        return max(self.t_a, self.t_b)


@dataclass
class PreemptiveResult:
    """A high-priority arrival preempting a running low-priority task."""

    granularity: str
    wait_cycles: float
    high_latency: float
    low_completion: float
    low_solo: float

    @property
    def low_slowdown(self) -> float:
        return self.low_completion / self.low_solo


@dataclass
class SpatialShareResult:
    """Outcome of one two-task spatial-sharing run."""

    policy: str
    split: float  # scratchpad fraction given to task A
    task_a: str
    task_b: str
    t_a: float
    t_b: float
    t_a_solo: float
    t_b_solo: float
    events: List[TimelineEvent] = field(default_factory=list)

    @property
    def norm_a(self) -> float:
        """Normalized execution time of A (>= 1.0; 1.0 = as fast as solo)."""
        return self.t_a / self.t_a_solo

    @property
    def norm_b(self) -> float:
        return self.t_b / self.t_b_solo

    @property
    def total_norm(self) -> float:
        return self.norm_a + self.norm_b


class MultiTaskScheduler:
    """Analytic scheduler over one or two NPU tasks."""

    #: Candidate scratchpad splits explored by the dynamic total-best policy.
    DYNAMIC_SPLITS = tuple(i / 16 for i in range(2, 15))

    def __init__(self, config: NPUConfig, dram: Optional[DRAMModel] = None):
        self.config = config
        self.dram = dram or DRAMModel(config.dram_bytes_per_cycle)
        self.compiler = TilingCompiler(config)
        self._core = NPUCore(config, NoProtection(), self.dram)
        self._compile_cache: Dict[Tuple[str, int], object] = {}
        self._time_cache: Dict[Tuple[str, int, float, Optional[str]], RunResult] = {}
        tel = telemetry.metrics.group("driver.scheduler")
        self._m_runs = tel.counter("runs")
        self._m_switches = tel.counter("context_switches")
        self._m_preemptions = tel.counter("preemptions")
        self._m_coruns = tel.counter("coruns")
        self._h_quantum = tel.histogram("quantum_cycles")

    # ------------------------------------------------------------------
    def compile_cached(self, model: ModelGraph, budget: int):
        key = (model.cache_key, budget)
        if key not in self._compile_cache:
            self._compile_cache[key] = self.compiler.compile(
                model, spad_budget_bytes=budget
            )
        return self._compile_cache[key]

    def run(
        self,
        model: ModelGraph,
        budget: Optional[int] = None,
        share: float = 1.0,
        flush: Optional[str] = None,
    ) -> RunResult:
        budget = budget or self.config.spad_bytes
        key = (model.cache_key, budget, share, flush)
        if key not in self._time_cache:
            program = self.compile_cached(model, budget)
            self._time_cache[key] = self._core.run_analytic(
                program, share=share, flush=flush
            )
        self._m_runs.inc()
        return self._time_cache[key]

    # ------------------------------------------------------------------
    # Temporal sharing: the flush baseline (Fig. 14)
    # ------------------------------------------------------------------
    def flush_slowdown(self, model: ModelGraph, granularity: str) -> float:
        """Normalized performance under flushing (1.0 = no overhead)."""
        base = self.run(model)
        flushed = self.run(model, flush=granularity)
        return base.cycles / flushed.cycles

    def preemption_stats(
        self, model: ModelGraph, mechanism: str
    ) -> PreemptionStats:
        """Worst/mean wait of a high-priority arrival under *mechanism*.

        ``mechanism`` ∈ {"tile", "layer", "layer5"} (temporal quanta) or
        {"partition", "snpu"} (spatial: zero wait).  For temporal sharing,
        an arrival lands uniformly inside some quantum; with quantum
        lengths q_i the mean wait is sum(q_i^2) / (2 * sum(q_i)) and the
        worst wait is max(q_i).
        """
        if mechanism in ("partition", "snpu"):
            return PreemptionStats(mechanism, 0.0, 0.0, 0)
        quanta = self._quanta(model, mechanism)
        total = sum(quanta)
        mean_wait = sum(q * q for q in quanta) / (2.0 * total) if total else 0.0
        return PreemptionStats(
            mechanism=mechanism,
            worst_wait_cycles=max(quanta),
            mean_wait_cycles=mean_wait,
            n_boundaries=len(quanta),
        )

    # ------------------------------------------------------------------
    # Temporal sharing: two tasks round-robin with flushes at quanta
    # ------------------------------------------------------------------
    def temporal_corun(
        self, model_a: ModelGraph, model_b: ModelGraph, granularity: str
    ) -> "TemporalShareResult":
        """Time-share the NPU between two tasks under the flush baseline.

        The scheduler alternates quanta of the chosen *granularity*; every
        switch scrubs the scratchpad and pays the context-switch cost
        (§IV-B's strawman).  Returns both completion times plus the solo
        baselines, so the result exposes the full fairness/overhead
        picture that motivates spatial sharing.
        """
        quanta_a = self._quanta(model_a, granularity)
        quanta_b = self._quanta(model_b, granularity)
        switch_cost = (
            self.config.scrub_cycles(self.config.spad_lines)
            + self.config.context_switch_cycles
        )
        t = 0.0
        t_a = t_b = 0.0
        ia = ib = 0
        turn = "a"  # whose quantum the round-robin would grant next
        prev: Optional[str] = None  # task that actually ran last
        switches = 0
        self._m_coruns.inc()
        tracer = telemetry.tracer
        while ia < len(quanta_a) or ib < len(quanta_b):
            a_pending = ia < len(quanta_a)
            b_pending = ib < len(quanta_b)
            # Grant the turn-holder its quantum; once one task has drained
            # its quanta the survivor keeps the NPU (no alternation left).
            if turn == "a":
                ran = "a" if a_pending else "b"
            else:
                ran = "b" if b_pending else "a"
            # A scrub + context switch is paid only when the NPU actually
            # changes hands — never for a survivor running back-to-back
            # quanta during the drain phase.
            if prev is not None and ran != prev:
                if tracer.enabled:
                    tracer.span(
                        "flush switch", "flush", ts=t, dur=switch_cost,
                        track="scheduler",
                    )
                t += switch_cost
                switches += 1
                self._m_switches.inc()
                telemetry.profiler.attribute("scheduler.switch", switch_cost)
                telemetry.profiler.count("scheduler.switches")
            q_start = t
            if ran == "a":
                t += quanta_a[ia]
                ia += 1
                t_a = t
                q_task = model_a.name
            else:
                t += quanta_b[ib]
                ib += 1
                t_b = t
                q_task = model_b.name
            self._h_quantum.observe(t - q_start, cycle=q_start)
            telemetry.profiler.attribute("scheduler.quantum", t - q_start)
            telemetry.profiler.count("scheduler.quanta")
            if tracer.enabled:
                tracer.span(
                    f"quantum {q_task}", "scheduler", ts=q_start,
                    dur=t - q_start, track="scheduler",
                    granularity=granularity,
                )
            prev = ran
            turn = "b" if ran == "a" else "a"
        return TemporalShareResult(
            granularity=granularity,
            task_a=model_a.name,
            task_b=model_b.name,
            t_a=t_a,
            t_b=t_b,
            t_a_solo=self.run(model_a).cycles,
            t_b_solo=self.run(model_b).cycles,
            switches=switches,
        )

    def quanta(
        self, model: ModelGraph, granularity: str, flushed: bool = False
    ) -> List[float]:
        """Scheduling quanta (cycles) of *model* at a flush granularity.

        Public accessor used by the serving simulator's N-way round-robin
        (the two-task :meth:`temporal_corun` is the special case N=2).
        With ``flushed=True`` the quanta come from the flush-baseline run
        (``flush=granularity``): a server that may be preempted at any
        boundary cannot keep scratchpad state resident across one, so its
        service time carries the Fig. 14 write-back inflation.
        """
        return list(self._quanta(model, granularity, flushed=flushed))

    def _quanta(
        self, model: ModelGraph, granularity: str, flushed: bool = False
    ) -> List[float]:
        """Scheduling quanta (cycles) of one task at a flush granularity."""
        result = self.run(model, flush=granularity if flushed else None)
        program = self.compile_cached(model, self.config.spad_bytes)
        per_layer = [lr.cycles for lr in result.layers]
        if granularity == "tile":
            out: List[float] = []
            for lr, ls in zip(result.layers, program.layers):
                blocks = max(1, ls.n_blocks)
                out.extend([lr.cycles / blocks] * blocks)
            return out
        if granularity == "layer":
            return per_layer
        if granularity == "layer5":
            return [
                sum(per_layer[i : i + 5]) for i in range(0, len(per_layer), 5)
            ]
        raise ConfigError(f"unknown granularity {granularity!r}")

    def preemptive_corun(
        self,
        high: ModelGraph,
        low: ModelGraph,
        granularity: str,
        arrival_fraction: float = 0.5,
    ) -> "PreemptiveResult":
        """A high-priority task arrives while a low-priority one runs.

        Under temporal sharing the arrival waits for the current quantum
        to finish, pays one flush, runs to completion, and the low task
        resumes (another flush).  The wait-vs-overhead trade-off across
        granularities is the SLA dilemma of §IV-B ("the granularity of
        flushing becomes a trade-off between performance and compliance
        with the SLA").
        """
        if not 0.0 <= arrival_fraction < 1.0:
            raise ConfigError(
                f"arrival_fraction must be in [0, 1), got {arrival_fraction}"
            )
        quanta_low = self._quanta(low, granularity)
        switch_cost = (
            self.config.scrub_cycles(self.config.spad_lines)
            + self.config.context_switch_cycles
        )
        t_arrive = arrival_fraction * sum(quanta_low)
        # Find the quantum in flight at the arrival.
        elapsed = 0.0
        wait = 0.0
        resume_index = len(quanta_low)
        for i, quantum in enumerate(quanta_low):
            if elapsed + quantum > t_arrive:
                wait = elapsed + quantum - t_arrive
                resume_index = i + 1
                break
            elapsed += quantum
        wait += switch_cost
        self._m_preemptions.inc()
        telemetry.profiler.attribute("scheduler.wait", wait)
        telemetry.profiler.count("scheduler.preemptions")
        tracer = telemetry.tracer
        if tracer.enabled:
            tracer.instant(
                "preempt.arrival", "scheduler", ts=t_arrive, track="scheduler",
                high=high.name, granularity=granularity,
            )
            tracer.span(
                "preempt.wait", "scheduler", ts=t_arrive, dur=wait,
                track="scheduler", high=high.name,
            )
        t_high_done = t_arrive + wait + self.run(high).cycles
        remaining_low = sum(quanta_low[resume_index:])
        t_low_done = t_high_done + switch_cost + remaining_low
        return PreemptiveResult(
            granularity=granularity,
            wait_cycles=wait,
            high_latency=t_high_done - t_arrive,
            low_completion=t_low_done,
            low_solo=self.run(low).cycles,
        )

    # ------------------------------------------------------------------
    # Spatial sharing: partition vs ID-based dynamic (Fig. 15)
    # ------------------------------------------------------------------
    def _layer_cycles(
        self, model: ModelGraph, budget: int, share: float
    ) -> List[float]:
        result = self.run(model, budget=budget, share=share)
        return [layer.cycles for layer in result.layers]

    @staticmethod
    def _finish_with_switch(
        co: List[float], post: List[float], switch_time: float
    ) -> float:
        """Completion time of a task that runs *co* rates until
        *switch_time*, then continues at *post* rates."""
        elapsed = 0.0
        for i, t_co in enumerate(co):
            if elapsed + t_co <= switch_time:
                elapsed += t_co
                continue
            # Partially through layer i at the switch.
            frac_done = (switch_time - elapsed) / t_co if t_co else 1.0
            remaining = (1.0 - frac_done) * post[i] + sum(post[i + 1 :])
            return switch_time + remaining
        return elapsed  # finished before the switch

    def spatial_pair(
        self,
        model_a: ModelGraph,
        model_b: ModelGraph,
        policy: str,
        split: Optional[float] = None,
    ) -> SpatialShareResult:
        """Co-run A (secure) and B (non-secure) on separate cores sharing
        the scratchpad capacity and the DRAM channel.

        ``policy`` is ``"partition"`` (requires *split*: A's fraction) or
        ``"dynamic"`` (total-best search + survivor expansion).
        """
        if policy == "partition":
            if split is None:
                raise ConfigError("partition policy requires an explicit split")
            return self._corun(model_a, model_b, split, expand_survivor=False,
                                policy=f"partition-{split:g}")
        if policy == "dynamic":
            best: Optional[SpatialShareResult] = None
            for cand in self.DYNAMIC_SPLITS:
                try:
                    result = self._corun(
                        model_a, model_b, cand, expand_survivor=True,
                        policy="dynamic",
                    )
                except ConfigError:
                    continue
                if best is None or result.total_norm < best.total_norm:
                    best = result
            if best is None:
                raise ConfigError("no feasible split for the dynamic policy")
            return best
        raise ConfigError(f"unknown spatial policy {policy!r}")

    def _corun(
        self,
        model_a: ModelGraph,
        model_b: ModelGraph,
        split: float,
        expand_survivor: bool,
        policy: str,
    ) -> SpatialShareResult:
        if not 0.0 < split < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {split}")
        spad = self.config.spad_bytes
        budget_a = int(spad * split)
        budget_b = spad - budget_a

        solo_a = self.run(model_a).cycles
        solo_b = self.run(model_b).cycles
        co_a = self._layer_cycles(model_a, budget_a, share=0.5)
        co_b = self._layer_cycles(model_b, budget_b, share=0.5)
        # After the partner finishes: full bandwidth; under the dynamic
        # (ID-based) policy the survivor may also expand to the full
        # scratchpad — and keeps whichever schedule is better, since the
        # ID bits place no constraint on the allocation.
        post_a = self._layer_cycles(model_a, budget_a, share=1.0)
        post_b = self._layer_cycles(model_b, budget_b, share=1.0)
        if expand_survivor:
            full_a = self._layer_cycles(model_a, spad, share=1.0)
            full_b = self._layer_cycles(model_b, spad, share=1.0)
            post_a = [min(x, y) for x, y in zip(post_a, full_a)]
            post_b = [min(x, y) for x, y in zip(post_b, full_b)]

        t_a_co, t_b_co = sum(co_a), sum(co_b)
        events = [TimelineEvent(0.0, "both", "co-run starts")]
        if t_a_co <= t_b_co:
            t_a = t_a_co
            t_b = self._finish_with_switch(co_b, post_b, t_a)
            events.append(TimelineEvent(t_a, model_a.name, "finishes; B expands"))
        else:
            t_b = t_b_co
            t_a = self._finish_with_switch(co_a, post_a, t_b)
            events.append(TimelineEvent(t_b, model_b.name, "finishes; A expands"))
        events.append(TimelineEvent(max(t_a, t_b), "both", "done"))
        self._m_coruns.inc()
        tracer = telemetry.tracer
        if tracer.enabled:
            for ev in events:
                tracer.instant(
                    ev.what, "scheduler", ts=ev.time, track="scheduler",
                    task=ev.task, policy=policy,
                )
        return SpatialShareResult(
            policy=policy,
            split=split,
            task_a=model_a.name,
            task_b=model_b.name,
            t_a=t_a,
            t_b=t_b,
            t_a_solo=solo_a,
            t_b_solo=solo_b,
            events=events,
        )
