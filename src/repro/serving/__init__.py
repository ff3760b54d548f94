"""Multi-tenant traffic serving over the analytic NPU models.

The two-task figures (14/15) answer "how do two co-resident tasks
interfere?"; this package answers the production question behind
§IV-B's SLA dilemma: given a *stream* of requests from secure- and
normal-world tenants, what latency distribution does each isolation
mechanism deliver?  A seeded workload generator produces deterministic
arrival streams (:mod:`repro.serving.workload`), pluggable dispatch
policies pick what runs next (:mod:`repro.serving.policies`), the
simulator serves the stream under a chosen mechanism
(:mod:`repro.serving.queueing`) and the report renders per-tenant
p50/p95/p99 + SLA attainment (:mod:`repro.serving.report`).  A sharded
multi-NPU cluster layer (:mod:`repro.serving.cluster`) scales the same
machinery to millions of requests: fluid totals, a seed-stable detailed
sample per worker, reconciliation between the two, and autoscaling.

CLI: ``repro serve <scenario> --mechanism snpu --rps 240 --duration 400``
or ``repro serve <scenario> --workers 8 --requests 1e6``.
"""

from repro.serving.cluster import (
    CLUSTER_POLICIES,
    AutoscaleStep,
    ClusterReport,
    ClusterSimulator,
    Stream,
    WorkerFluid,
    assign_streams,
    autoscale,
    build_streams,
    worker_scenario,
)
from repro.serving.live import ServeWindows
from repro.serving.policies import POLICIES, Policy
from repro.serving.queueing import (
    MECHANISMS,
    CompletedRequest,
    RateOracle,
    ServeOutcome,
    ServeSimulator,
)
from repro.serving.report import ServeReport, TenantReport
from repro.serving.workload import (
    SCENARIOS,
    Request,
    Scenario,
    TenantSpec,
    build_model,
    generate,
)

__all__ = [
    "CLUSTER_POLICIES",
    "AutoscaleStep",
    "ClusterReport",
    "ClusterSimulator",
    "Stream",
    "WorkerFluid",
    "assign_streams",
    "autoscale",
    "build_streams",
    "worker_scenario",
    "POLICIES",
    "Policy",
    "MECHANISMS",
    "CompletedRequest",
    "RateOracle",
    "ServeOutcome",
    "ServeSimulator",
    "ServeWindows",
    "ServeReport",
    "TenantReport",
    "SCENARIOS",
    "Request",
    "Scenario",
    "TenantSpec",
    "build_model",
    "generate",
]
