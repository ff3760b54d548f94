"""Unit tests for the multi-tenant serving simulator (:mod:`repro.serving`)."""

import json

import pytest

from repro.driver.scheduler import MultiTaskScheduler
from repro.errors import ConfigError
from repro.npu.config import NPUConfig
from repro.serving import (
    MECHANISMS,
    POLICIES,
    SCENARIOS,
    Policy,
    RateOracle,
    Request,
    Scenario,
    ServeReport,
    ServeSimulator,
    TenantSpec,
    build_model,
    generate,
    nearest_rank,
)

#: Short admission window so unit-level simulations stay fast; the full
#: scenario defaults are exercised by the integration suite.
SHORT_MS = 150.0


@pytest.fixture(scope="module")
def shared_scheduler():
    """One scheduler for the whole module: reuses the analytic run cache."""
    return MultiTaskScheduler(NPUConfig.paper_default())


def _req(rid, tenant="t", model="yololite", world="normal", arrival=0.0,
         priority=0, sla=1e9):
    return Request(rid=rid, tenant=tenant, model=model, world=world,
                   arrival=arrival, priority=priority, sla_cycles=sla)


class TestWorkload:
    def test_generate_is_deterministic(self):
        a = generate(SCENARIOS["default"], seed=7)
        b = generate(SCENARIOS["default"], seed=7)
        assert a == b

    def test_seed_changes_the_stream(self):
        a = generate(SCENARIOS["default"], seed=0)
        b = generate(SCENARIOS["default"], seed=1)
        assert a != b

    def test_requests_sorted_and_rids_sequential(self):
        reqs = generate(SCENARIOS["default"], seed=3)
        assert [r.rid for r in reqs] == list(range(len(reqs)))
        arrivals = [r.arrival for r in reqs]
        assert arrivals == sorted(arrivals)

    def test_tenant_attributes_propagate(self):
        reqs = generate(SCENARIOS["default"], seed=0)
        spec = SCENARIOS["default"].tenant("cam")
        cam = [r for r in reqs if r.tenant == "cam"]
        assert cam, "cam generated no requests"
        mix = {key for key, _ in spec.models}
        for r in cam:
            assert r.world == "secure"
            assert r.model in mix
            assert r.sla_cycles == spec.sla_ms * 1e6

    def test_adding_a_tenant_preserves_other_streams(self):
        base = SCENARIOS["burst"]
        extended = Scenario(
            name=base.name, description=base.description,
            tenants=base.tenants[:1] + (
                TenantSpec(name="extra", world="normal",
                           models=(("mobilenet", 1.0),),
                           share=base.tenants[1].share, sla_ms=10.0),
            ),
            rps=base.rps, duration_ms=base.duration_ms,
        )
        cam_base = [(r.arrival, r.model) for r in generate(base, seed=5)
                    if r.tenant == "cam"]
        cam_ext = [(r.arrival, r.model) for r in generate(extended, seed=5)
                   if r.tenant == "cam"]
        assert cam_base == cam_ext

    def test_share_sum_validated(self):
        with pytest.raises(ConfigError, match="shares sum"):
            Scenario(
                name="bad", description="x",
                tenants=(
                    TenantSpec(name="a", world="normal",
                               models=(("yololite", 1.0),),
                               share=0.6, sla_ms=1.0),
                ),
                rps=10.0, duration_ms=10.0,
            )

    def test_burst_duty_validated(self):
        with pytest.raises(ConfigError, match="burst_factor"):
            TenantSpec(name="a", world="normal",
                       models=(("yololite", 1.0),), share=1.0, sla_ms=1.0,
                       arrival="bursty", burst_factor=5.0, duty=0.25)

    @pytest.mark.xfail(strict=True, reason=(
        "_tenant_arrivals draws each gap at the rate of the phase the "
        "previous arrival fell in, so low-phase gaps (mean 23 ms) jump "
        "whole 6.25 ms high phases: cam gets about half its rate"))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bursty_tenant_arrives_at_its_share_of_the_rate(self, seed):
        """Over 20 s the bursty cam tenant's arrival count lies within
        5 sigma (Poisson) of ``rps x share x T``."""
        scenario = SCENARIOS["burst"]
        spec = scenario.tenant("cam")
        seconds = 20.0
        reqs = generate(scenario, duration_ms=seconds * 1e3, seed=seed)
        count = sum(1 for r in reqs if r.tenant == "cam")
        expected = scenario.rps * spec.share * seconds
        assert abs(count - expected) <= 5 * expected ** 0.5

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            build_model("transfomer")


class TestPolicy:
    def test_fifo_picks_earliest_arrival(self):
        policy = Policy("fifo", ("a", "b"))
        first = _req(1, tenant="b", arrival=5.0)
        assert policy.pick([_req(0, tenant="a", arrival=9.0), first]) is first

    def test_priority_beats_arrival(self):
        policy = Policy("priority", ("a", "b"))
        urgent = _req(1, tenant="b", arrival=9.0, priority=0)
        late = _req(0, tenant="a", arrival=1.0, priority=2)
        assert policy.pick([late, urgent]) is urgent

    def test_rr_rotates_over_tenants(self):
        policy = Policy("rr", ("a", "b", "c"))
        heads = [_req(0, tenant="a"), _req(1, tenant="b"), _req(2, tenant="c")]
        picked = [policy.pick(heads).tenant for _ in range(4)]
        assert picked == ["a", "b", "c", "a"]

    def test_rr_skips_empty_tenants(self):
        policy = Policy("rr", ("a", "b", "c"))
        heads = [_req(0, tenant="c")]
        assert policy.pick(heads).tenant == "c"

    def test_rotation_is_the_pick_sequence(self):
        heads = [_req(0, tenant="a"), _req(1, tenant="b"), _req(2, tenant="c")]
        policy = Policy("rr", ("a", "b", "c"))
        policy.served(heads[1])
        assert [r.tenant for r in policy.rotation(heads)] == ["c", "a", "b"]
        picker = Policy("rr", ("a", "b", "c"))
        picker.pick(heads[1:2])
        assert [picker.pick(heads).tenant for _ in range(3)] == ["c", "a", "b"]
        fifo = Policy("fifo", ("a", "b", "c"))
        assert fifo.rotation(heads) == [fifo.pick(heads)]

    def test_spatial_prefers_best_pairing(self):
        norms = {("m", "x"): 3.0, ("m", "y"): 2.0}
        policy = Policy("spatial", ("a", "b"),
                        pair_norm=lambda run, cand: norms[(run, cand)])
        x = _req(0, tenant="a", model="x", arrival=0.0)
        y = _req(1, tenant="b", model="y", arrival=9.0)
        assert policy.pick([x, y], partner_model="m") is y
        # Without a running partner it degrades to fifo order.
        assert policy.pick([x, y], partner_model=None) is x

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            Policy("lifo", ("a",))


class TestRateOracle:
    @pytest.fixture(scope="class")
    def oracles(self, shared_scheduler):
        keys = SCENARIOS["default"].model_keys()
        models = {key: build_model(key) for key in keys}
        return (
            RateOracle(shared_scheduler, models, "snpu"),
            RateOracle(shared_scheduler, models, "partition"),
            keys,
        )

    def test_snpu_alone_never_slower_than_partition(self, oracles):
        snpu, partition, keys = oracles
        for key in keys:
            assert snpu.alone(key) <= partition.alone(key)
            assert snpu.alone(key) <= snpu.solo(key)

    def test_snpu_pair_pareto_dominates_partition(self, oracles):
        snpu, partition, keys = oracles
        for a in keys:
            for b in keys:
                sa, sb = snpu.pair(a, b)
                pa, pb = partition.pair(a, b)
                assert sa <= pa and sb <= pb

    def test_pair_is_orientation_consistent(self, oracles):
        snpu, _, _ = oracles
        t_a, t_b = snpu.pair("yololite", "bert")
        assert snpu.pair("bert", "yololite") == (t_b, t_a)

    def test_temporal_mechanism_has_no_oracle(self, shared_scheduler):
        with pytest.raises(ConfigError, match="no spatial rates"):
            RateOracle(shared_scheduler, {}, "flush-tile")


class TestTemporalAccounting:
    @pytest.fixture(scope="class")
    def outcome(self, shared_scheduler):
        sim = ServeSimulator(
            SCENARIOS["default"], mechanism="flush-tile", seed=0,
            duration_ms=SHORT_MS, scheduler=shared_scheduler,
        )
        return sim, sim.run()

    def test_every_arrival_completes(self, outcome):
        sim, out = outcome
        expected = generate(sim.scenario, rps=sim.rps,
                            duration_ms=SHORT_MS, seed=0)
        assert len(out.completed) == len(expected)

    def test_flush_cycles_are_flushes_times_switch_cost(self, outcome):
        sim, out = outcome
        assert out.flushes > 0
        assert out.flush_cycles == pytest.approx(out.flushes * sim.switch_cost)

    def test_world_cycles_are_switches_times_context_cost(self, outcome):
        sim, out = outcome
        assert out.world_switches > 0
        assert out.world_cycles == pytest.approx(
            out.world_switches * sim.config.context_switch_cycles
        )

    def test_latency_decomposition_is_consistent(self, outcome):
        _, out = outcome
        for c in out.completed:
            assert c.latency > 0
            assert c.latency + 1e-6 >= c.service + c.flush + c.world
            assert c.wait >= 0.0

    def test_makespan_covers_all_completions(self, outcome):
        _, out = outcome
        assert out.makespan >= max(c.completion for c in out.completed)


class TestSpatialInvariants:
    def test_spatial_pays_no_flushes(self, shared_scheduler):
        for mechanism in ("snpu", "partition"):
            out = ServeSimulator(
                SCENARIOS["default"], mechanism=mechanism, seed=0,
                duration_ms=SHORT_MS, scheduler=shared_scheduler,
            ).run()
            assert out.flushes == 0 and out.flush_cycles == 0.0
            assert len(out.completed) > 0

    def test_unknown_mechanism_rejected(self, shared_scheduler):
        with pytest.raises(ConfigError, match="unknown mechanism"):
            ServeSimulator(SCENARIOS["default"], mechanism="magic",
                           scheduler=shared_scheduler)


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, shared_scheduler):
        renders = []
        for _ in range(2):
            sim = ServeSimulator(
                SCENARIOS["default"], mechanism="snpu", seed=11,
                duration_ms=SHORT_MS, scheduler=shared_scheduler,
            )
            renders.append(ServeReport.build(sim.run()).render("json"))
        assert renders[0] == renders[1]

    def test_different_seeds_differ(self, shared_scheduler):
        outs = [
            ServeSimulator(
                SCENARIOS["default"], mechanism="snpu", seed=seed,
                duration_ms=SHORT_MS, scheduler=shared_scheduler,
            ).run()
            for seed in (0, 1)
        ]
        assert [c.request.arrival for c in outs[0].completed] != [
            c.request.arrival for c in outs[1].completed
        ]


class TestReport:
    def test_nearest_rank_percentiles(self):
        values = [float(v) for v in range(1, 101)]
        assert nearest_rank(values, 50.0) == 50.0
        assert nearest_rank(values, 99.0) == 99.0
        assert nearest_rank(values, 100.0) == 100.0
        assert nearest_rank([42.0], 99.0) == 42.0

    def test_report_structure(self, shared_scheduler):
        sim = ServeSimulator(
            SCENARIOS["default"], mechanism="flush-layer", seed=0,
            duration_ms=SHORT_MS, scheduler=shared_scheduler,
        )
        report = ServeReport.build(sim.run())
        payload = json.loads(report.render("json"))
        assert payload["mechanism"] == "flush-layer"
        assert set(payload["tenants"]) == {"cam", "nlp", "batch"}
        overheads = payload["overheads"]
        assert 0.0 <= overheads["flush_share"] <= 1.0
        for tenant in payload["tenants"].values():
            assert tenant["p50_ms"] <= tenant["p95_ms"] <= tenant["p99_ms"]
            assert 0.0 <= tenant["sla_attainment"] <= 1.0

    def test_table_render_mentions_every_tenant(self, shared_scheduler):
        sim = ServeSimulator(
            SCENARIOS["default"], mechanism="partition", seed=0,
            duration_ms=SHORT_MS, scheduler=shared_scheduler,
        )
        table = ServeReport.build(sim.run()).render("table")
        for name in ("cam", "nlp", "batch"):
            assert name in table


class TestZeroCompletionTenants:
    """A tenant that completed nothing must surface explicitly (n=0,
    null percentiles, undefined SLA) — not vanish or claim 100%."""

    def test_nearest_rank_empty_is_none(self):
        assert nearest_rank([], 99.0) is None

    def test_zero_completion_tenant_reports_all_none(self, shared_scheduler):
        scenario = SCENARIOS["default"]
        sim = ServeSimulator(
            scenario, mechanism="snpu", seed=0,
            duration_ms=SHORT_MS, scheduler=shared_scheduler,
        )
        outcome = sim.run()
        # Simulate one tenant completing nothing in the observed run.
        outcome.completed = [
            c for c in outcome.completed if c.request.tenant != "batch"
        ]
        report = ServeReport.build(outcome, scenario=scenario)
        batch = next(t for t in report.tenants if t.tenant == "batch")
        assert batch.n == 0
        assert batch.p50_ms is None and batch.p99_ms is None
        assert batch.mean_ms is None and batch.max_ms is None
        assert batch.sla_attainment is None  # 0/0, not 1.0
        assert batch.mean_wait_ms is None
        # Scenario metadata still propagates.
        assert batch.world == "normal" or batch.world == "secure"
        assert batch.sla_ms is not None

    def test_zero_completion_tenant_renders_dashes(self, shared_scheduler):
        scenario = SCENARIOS["default"]
        sim = ServeSimulator(
            scenario, mechanism="snpu", seed=0,
            duration_ms=SHORT_MS, scheduler=shared_scheduler,
        )
        outcome = sim.run()
        outcome.completed = [
            c for c in outcome.completed if c.request.tenant != "batch"
        ]
        report = ServeReport.build(outcome, scenario=scenario)
        table = report.render("table")
        batch_row = next(
            line for line in table.splitlines()
            if line.strip().startswith("batch")
        )
        assert "-" in batch_row
        payload = json.loads(report.render("json"))
        assert payload["tenants"]["batch"]["p99_ms"] is None
        assert payload["tenants"]["batch"]["sla_attainment"] is None

    def test_build_without_scenario_keeps_legacy_shape(self, shared_scheduler):
        sim = ServeSimulator(
            SCENARIOS["default"], mechanism="snpu", seed=0,
            duration_ms=SHORT_MS, scheduler=shared_scheduler,
        )
        report = ServeReport.build(sim.run())
        # Only tenants that actually completed appear without a scenario.
        assert all(t.n > 0 for t in report.tenants)


class _FakeRunResult:
    def __init__(self, cycles):
        self.cycles = cycles


class _FakeConfig:
    """Odd scratchpad: spad // 2 == 50 but spad - spad // 2 == 51."""

    spad_bytes = 101


class _FakeScheduler:
    """Analytic-run stub with a crafted non-monotone cycles table.

    Model "b" is *slower* with 51 bytes than with 50 (a tiling boundary
    — more budget is not always faster), which is exactly the shape that
    made the old ``spad - spad // 2`` baseline in ``RateOracle.pair``
    diverge from the ``spad // 2`` budget the partition actually pays.
    """

    config = _FakeConfig()

    _TABLE = {
        ("a", 101): 100.0, ("a", 50): 200.0, ("a", 51): 200.0,
        ("b", 101): 100.0, ("b", 50): 200.0, ("b", 51): 260.0,
    }

    def run(self, model, budget=None, share=1.0, flush=None):
        budget = self.config.spad_bytes if budget is None else budget
        return _FakeRunResult(self._TABLE.get((model, budget), 1000.0))


class TestOddSpadRegression:
    """`snpu never worse than partition` must hold for odd spad_bytes."""

    @pytest.fixture()
    def oracles(self):
        models = {"a": "a", "b": "b"}
        scheduler = _FakeScheduler()
        return (
            RateOracle(scheduler, models, "snpu"),
            RateOracle(scheduler, models, "partition"),
        )

    def test_snpu_pair_pointwise_dominates_partition_odd_spad(self, oracles):
        snpu, partition = oracles
        sa, sb = snpu.pair("a", "b")
        pa, pb = partition.pair("a", "b")
        assert sa <= pa
        assert sb <= pb

    def test_snpu_pair_norm_bounded_by_partition_odd_spad(self, oracles):
        snpu, partition = oracles
        assert (
            snpu.pair_norm("a", "b") <= partition.pair_norm("a", "b") + 1e-12
        )


class TestWaitResidualAccounting:
    """Negative wait residuals are counted (noise) or raised (bugs)."""

    @pytest.fixture()
    def sim(self, shared_scheduler):
        return ServeSimulator(
            SCENARIOS["default"], mechanism="snpu", seed=0,
            duration_ms=SHORT_MS, scheduler=shared_scheduler,
        )

    def test_float_noise_clamp_is_counted(self, sim):
        from repro.serving.queueing import ServeOutcome

        outcome = ServeOutcome(
            scenario="default", mechanism="snpu", policy="rr",
            rps=300.0, duration_ms=SHORT_MS, seed=0, freq_ghz=1.0,
        )
        req = _req(0, tenant="cam", arrival=0.0)
        # latency = 100.0, owned = 100.0 + 1e-8: residual is -1e-8,
        # within float noise -> clamped and counted, never raised.
        sim._record_completion(
            req, None, 100.0, 100.0 + 1e-8, 0.0, 0.0, outcome,
        )
        assert outcome.wait_clamps == 1
        assert outcome.clamped_cycles == pytest.approx(1e-8)
        assert outcome.completed[0].wait == 0.0
        assert outcome.completed[0].residual == pytest.approx(-1e-8)

    def test_over_accounted_completion_raises(self, sim):
        from repro.errors import ReconciliationError
        from repro.serving.queueing import ServeOutcome

        outcome = ServeOutcome(
            scenario="default", mechanism="snpu", policy="rr",
            rps=300.0, duration_ms=SHORT_MS, seed=0, freq_ghz=1.0,
        )
        req = _req(1, tenant="cam", arrival=0.0)
        # service exceeds latency by a full cycle: a real accounting
        # violation, far beyond reassociation noise.
        with pytest.raises(ReconciliationError, match="over-accounted"):
            sim._record_completion(
                req, None, 100.0, 101.0, 0.0, 0.0, outcome,
            )
        assert outcome.wait_clamps == 0
        assert not outcome.completed

    def test_clean_run_reports_clamps_in_json(self, sim):
        report = ServeReport.build(sim.run(), scenario=SCENARIOS["default"])
        payload = json.loads(report.render("json"))
        acct = payload["accounting"]
        assert acct["wait_clamps"] >= 0
        assert acct["clamped_cycles"] >= 0.0
        # Whatever was clamped is float noise, not real cycles.
        assert acct["clamped_cycles"] < 1e-3


class TestRpsSemantics:
    """rps=None means the scenario default; rps=0 means an empty stream."""

    def test_generate_zero_rps_is_empty(self):
        assert generate(SCENARIOS["default"], rps=0.0) == []

    def test_generate_none_uses_scenario_default(self):
        assert generate(SCENARIOS["default"], rps=None, seed=2) == generate(
            SCENARIOS["default"], seed=2
        )

    def test_generate_negative_rps_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            generate(SCENARIOS["default"], rps=-1.0)

    def test_generate_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            generate(SCENARIOS["default"], duration_ms=0.0)

    def test_simulator_zero_rps_serves_nothing(self, shared_scheduler):
        sim = ServeSimulator(
            SCENARIOS["default"], mechanism="snpu", rps=0.0,
            duration_ms=SHORT_MS, scheduler=shared_scheduler,
        )
        assert sim.rps == 0.0  # not silently the scenario's 300
        out = sim.run()
        assert out.completed == []
        assert out.makespan == 0.0

    def test_simulator_negative_rps_rejected(self, shared_scheduler):
        with pytest.raises(ConfigError, match="non-negative"):
            ServeSimulator(
                SCENARIOS["default"], rps=-5.0, scheduler=shared_scheduler,
            )

    def test_simulator_nonpositive_duration_rejected(self, shared_scheduler):
        with pytest.raises(ConfigError, match="positive"):
            ServeSimulator(
                SCENARIOS["default"], duration_ms=0.0,
                scheduler=shared_scheduler,
            )
