"""Property-based tests on the tiling compiler's invariants."""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.driver.compiler import _BLOCKING_MEMO, Blocking, TilingCompiler
from repro.npu.config import NPUConfig
from repro.workloads.model import GemmSpec
from tests.unit.test_isa_compiler import _ceil_div, aggregate_gemm_lists

CFG = NPUConfig.paper_default()
COMPILER = TilingCompiler(CFG)


@st.composite
def gemm_specs(draw):
    m = draw(st.integers(1, 2048))
    k = draw(st.integers(1, 4096))
    n = draw(st.integers(1, 2048))
    # 0 keeps GemmSpec's dense default (m*k, k*n); an im2col convolution
    # streams less raw input than M*K.
    return GemmSpec(
        name="g",
        m=m,
        k=k,
        n=n,
        repeat=draw(st.sampled_from([1, 1, 1, 4, 16])),
        input_bytes_per_pass=draw(st.just(0) | st.integers(1, m * k)),
        weight_bytes=draw(st.just(0) | st.integers(1, k * n)),
        input_halo_bytes=draw(st.just(0) | st.integers(1, 1 << 16)),
        b_is_activation=draw(st.booleans()),
    )


def brute_force_blocking(spec: GemmSpec, budget: int, acc_budget: int) -> Blocking:
    """Oracle for ``TilingCompiler._choose_blocking``: every candidate
    triple, priced from the per-block list aggregates, first strict
    minimum of ``(pipeline time, traffic)``; the smallest legal tile if
    none fits."""
    d, ib = CFG.array_dim, CFG.input_bytes
    caps = [_ceil_div(x, d) * d if x >= d else x for x in (spec.m, spec.k, spec.n)]
    m_cap, k_cap, n_cap = caps
    sizes = TilingCompiler._CANDIDATES

    def pack(mb: int, kb: int) -> int:
        if spec.repeat == 1:
            return 1
        per_group = TilingCompiler._PACK_TARGET_BYTES // (mb * kb * ib)
        return min(spec.repeat, max(1, per_group))

    best = None
    for mb, nb, kb in itertools.product(
        [c for c in sizes if c <= m_cap] or [m_cap],
        [c for c in sizes if c <= n_cap] or [n_cap],
        sorted({c for c in sizes if c <= k_cap} | {k_cap}),
    ):
        if mb * nb * CFG.acc_elem_bytes * 2 > acc_budget:
            continue
        if 2 * ib * (mb + nb) * kb > budget:
            continue
        blocking = Blocking(mb, kb, nb, pack(mb, kb))
        agg = aggregate_gemm_lists(CFG, spec, blocking)
        bw = CFG.dram_bytes_per_cycle
        iters, blocks = agg["iters"], agg["blocks"]
        load = (agg["n_load_req"] / iters) * 4.0 + agg["load_bytes"] / iters / bw
        store = (agg["n_store_req"] / blocks) * 4.0 + agg["store_bytes"] / blocks / bw
        compute = agg["compute"] / iters
        time = (
            (iters - blocks) * max(load, compute)
            + blocks * max(load, compute, store)
            + load + store
        )
        traffic = float(spec.repeat * (
            spec.input_bytes_per_pass * ib * _ceil_div(spec.n, nb)
            + spec.weight_bytes * ib * _ceil_div(spec.m, mb)
            + spec.output_bytes * CFG.output_bytes
        ))
        if best is None or (time, traffic) < best[0]:
            best = ((time, traffic), blocking)
    if best is None:
        mb, kb, nb = (min(cap, d) for cap in caps)
        return Blocking(mb, kb, nb, pack(mb, kb))
    return best[1]


#: Below 4 KiB no 16-wide candidate fits; whole KiB budgets land exactly
#: on candidate footprints; the upper ranges pass the full scratchpad
#: (256 KiB) and accumulator (64 KiB).
SPAD_BUDGETS = (
    st.integers(1, 4096)
    | st.sampled_from([32, 64, 128, 256]).map(lambda kib: kib << 10)
    | st.integers(4096, 1 << 19)
)
ACC_BUDGETS = (
    st.integers(1, 2048)
    | st.sampled_from([8, 16, 32, 64]).map(lambda kib: kib << 10)
    | st.integers(2048, 1 << 17)
)


@given(gemm_specs(), SPAD_BUDGETS, ACC_BUDGETS)
# The fallback tile: no kb fits the scratchpad, no (mb, nb) the accumulator.
@example(GemmSpec("g", m=100, k=100, n=100, repeat=4), 1024, 1 << 16)
@example(GemmSpec("g", m=100, k=100, n=100), 1 << 18, 1024)
# kb == kb_max wins (googlenet inc3b_1x1 at a 1/8 split).
@example(GemmSpec("g", m=169, k=256, n=128, input_bytes_per_pass=43264),
         32 << 10, 8 << 10)
# Equal times: traffic decides, then the first of equal keys wins.
@example(GemmSpec("g", m=6, k=2, n=48, repeat=16, input_bytes_per_pass=12,
                  input_halo_bytes=1627), 256 << 10, 64 << 10)
@example(GemmSpec("g", m=62, k=62, n=31, repeat=2, input_bytes_per_pass=3844),
         64 << 10, 16 << 10)
@settings(max_examples=150, deadline=None)
def test_search_equals_brute_force(spec, budget, acc_budget):
    _BLOCKING_MEMO.pop((spec, CFG), None)
    assert COMPILER._choose_blocking(spec, budget, acc_budget) == (
        brute_force_blocking(spec, budget, acc_budget)
    )


@given(gemm_specs(), st.lists(st.tuples(SPAD_BUDGETS, ACC_BUDGETS),
                              min_size=2, max_size=5))
# A scratchpad budget above the full scratchpad after a smaller one
# grows the cover (kb 64 -> 128); resnet's conv1 at eval.
@example(GemmSpec("g", m=784, k=147, n=64, input_bytes_per_pass=9408,
                  weight_bytes=9408, input_halo_bytes=840),
         [(64 << 10, 16 << 10), (512 << 10, 64 << 10)])
# An accumulator budget above the full accumulator; mobilenet's pw2.
@example(GemmSpec("g", m=196, k=64, n=128, input_bytes_per_pass=12544,
                  weight_bytes=8192),
         [(64 << 10, 16 << 10), (256 << 10, 128 << 10)])
# Equal keys: kb 32 (pack 4) and kb 64 (pack 2) tie, and the first in
# enumeration order wins at both budgets that fit both.
@example(GemmSpec("g", m=32, k=127, n=33, repeat=16,
                  input_bytes_per_pass=4064, weight_bytes=964),
         [(64 << 10, 8 << 10), (32 << 10, 8 << 10), (16 << 10, 8 << 10)])
@settings(max_examples=60, deadline=None)
def test_warm_search_equals_brute_force(spec, budgets):
    """Searches of one spec at many budgets, in sequence, share its memo
    entry; each still equals the cold brute force."""
    _BLOCKING_MEMO.pop((spec, CFG), None)
    for budget, acc_budget in budgets:
        assert COMPILER._choose_blocking(spec, budget, acc_budget) == (
            brute_force_blocking(spec, budget, acc_budget)
        ), (budget, acc_budget)


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
