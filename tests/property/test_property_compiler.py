"""Property-based tests on the tiling compiler's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.driver.compiler import TilingCompiler
from repro.npu.config import NPUConfig
from repro.workloads.model import GemmSpec
from tests.unit.test_isa_compiler import aggregate_gemm_lists

CFG = NPUConfig.paper_default()
COMPILER = TilingCompiler(CFG)


@st.composite
def gemm_specs(draw):
    return GemmSpec(
        name="g",
        m=draw(st.integers(1, 2048)),
        k=draw(st.integers(1, 4096)),
        n=draw(st.integers(1, 2048)),
        repeat=draw(st.sampled_from([1, 1, 1, 4, 16])),
    )


@given(gemm_specs(), st.sampled_from([32, 64, 128, 256]))
@settings(max_examples=100, deadline=None)
def test_blocking_respects_budgets(spec, budget_kb):
    budget = budget_kb * 1024
    acc = max(
        4 * CFG.array_dim * CFG.acc_elem_bytes,
        CFG.acc_bytes_total * budget // CFG.spad_bytes,
    )
    b = COMPILER._choose_blocking(spec, budget, acc)
    # Double-buffered blocks fit the scratchpad budget (unless the spec is
    # so small a single minimal tile is forced).
    footprint = 2 * CFG.input_bytes * (b.mb * b.kb + b.kb * b.nb)
    min_tile = 2 * CFG.input_bytes * (
        min(spec.m, CFG.array_dim) * min(spec.k, CFG.array_dim) * 2
    )
    assert footprint <= max(budget, min_tile)
    assert 1 <= b.mb and 1 <= b.kb and 1 <= b.nb
    # Blocks may pad up to the array dimension but never beyond it.
    assert b.mb <= spec.m + CFG.array_dim - 1
    assert b.nb <= spec.n + CFG.array_dim - 1
    assert 1 <= b.pack <= spec.repeat


@given(gemm_specs())
@settings(max_examples=60, deadline=None)
def test_aggregates_are_consistent(spec):
    b = COMPILER._choose_blocking(spec, CFG.spad_bytes, CFG.acc_bytes_total)
    agg = COMPILER._aggregate_gemm(spec, b)
    # The O(1) closed form equals the per-block list oracle bit for bit.
    oracle = aggregate_gemm_lists(CFG, spec, b)
    assert agg.keys() == oracle.keys()
    for key, expected in oracle.items():
        assert agg[key] == expected and type(agg[key]) is type(expected), key
    # MACs are exact regardless of blocking.
    assert agg["macs"] == spec.m * spec.k * spec.n * spec.repeat
    # Output is written exactly once.
    assert agg["store_bytes"] == spec.m * spec.n * CFG.output_bytes * spec.repeat
    # Traffic is at least the compulsory minimum (weights once + output).
    compulsory = (
        spec.weight_bytes * CFG.input_bytes * spec.repeat
    )
    assert agg["load_bytes"] >= compulsory - 1e-6
    assert agg["iters"] >= agg["blocks"] >= 1
    # Compute covers the ideal MAC time (array never exceeds peak).
    assert agg["compute"] >= agg["macs"] / CFG.peak_macs_per_cycle - 1e-6


@given(gemm_specs())
@settings(max_examples=40, deadline=None)
def test_estimated_time_monotone_in_budget(spec):
    times = []
    for budget_kb in (32, 64, 128, 256):
        budget = budget_kb * 1024
        acc = max(
            4 * CFG.array_dim * CFG.acc_elem_bytes,
            CFG.acc_bytes_total * budget // CFG.spad_bytes,
        )
        b = COMPILER._choose_blocking(spec, budget, acc)
        times.append(COMPILER._estimate_layer_time(spec, b))
    for small, big in zip(times, times[1:]):
        assert big <= small * 1.001
