"""Unit tests for the schedule IR and the tiling compiler."""

from typing import List

import pytest

from repro.common.types import World
from repro.driver.compiler import _BLOCKING_MEMO, Blocking, TilingCompiler
from repro.errors import ConfigError
from repro.npu.config import NPUConfig
from repro.npu.isa import LayerSchedule
from repro.workloads.model import GemmSpec
from repro.workloads.synthetic import synthetic_cnn, synthetic_mlp
from repro.workloads import zoo


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def aggregate_gemm_lists(cfg: NPUConfig, spec: GemmSpec, b: Blocking) -> dict:
    """Oracle for ``TilingCompiler._aggregate_gemm``: the same aggregates
    summed over explicit per-dimension block-size lists, O(blocks)."""
    d = cfg.array_dim
    ib, ob = cfg.input_bytes, cfg.output_bytes
    row_eff = max(ib, (spec.input_bytes_per_pass // max(spec.m, 1)) * ib)

    def sizes(total: int, block: int) -> List[int]:
        out = [block] * (total // block)
        if total % block:
            out.append(total % block)
        return out or [total]

    m_sizes = sizes(spec.m, b.mb)
    k_sizes = sizes(spec.k, b.kb)
    n_sizes = sizes(spec.n, b.nb)
    halo_cap = (
        _ceil_div(spec.input_halo_bytes * ib, row_eff)
        if spec.input_halo_bytes
        else 0
    )
    # First m block has no halo (nothing precedes it).
    m_eff = [
        bm + (min(bm // 2, halo_cap) if i > 0 else 0)
        for i, bm in enumerate(m_sizes)
    ]

    nM, nK, nN = len(m_sizes), len(k_sizes), len(n_sizes)
    iters_inner = nM * nK * nN
    gs = _ceil_div(spec.repeat, b.pack)

    sum_me = sum(m_eff)
    sum_m = sum(m_sizes)
    sum_n = sum(n_sizes)
    sum_k = sum(k_sizes)
    sum_rowb = sum(max(ib, row_eff * bk // max(spec.k, 1)) for bk in k_sizes)
    sum_wtk = sum(_ceil_div(bk, d) for bk in k_sizes)
    sum_wtn = sum(_ceil_div(bn, d) for bn in n_sizes)
    sum_sub_m = sum(_ceil_div(me, d) for me in m_eff)
    sum_sub_m_plain = sum(_ceil_div(bm, d) for bm in m_sizes)
    sum_sub_k = sum(_ceil_div(bk, d) for bk in k_sizes)

    rep = spec.repeat
    load_bytes = float(nN * sum_me * sum_rowb * rep + nM * sum_k * sum_n * ib * rep)
    store_bytes = float(sum_m * sum_n * ob * rep)
    compute = float(
        rep
        * (
            sum_wtk * sum_wtn * (nM * cfg.weight_preload_cycles + sum_m)
            + iters_inner * d
        )
    )
    return {
        "iters": iters_inner * gs,
        "blocks": nM * nN * gs,
        "load_bytes": load_bytes,
        "store_bytes": store_bytes,
        "compute": compute,
        "macs": spec.m * spec.k * spec.n * rep,
        "n_load_req": (nN * sum_sub_m * nK + nM * nN * sum_sub_k) * gs,
        "n_store_req": nN * sum_sub_m_plain * gs,
    }


def fold_gemm_summary(layer: LayerSchedule) -> dict:
    """Oracle for a compiled GEMM layer's summary fields: a sequential
    fold over its iteration factory."""
    n_iter = 0
    n_blocks = 0
    load_bytes = 0.0
    store_bytes = 0.0
    compute_cycles = 0.0
    macs = 0
    n_load_req = 0
    n_store_req = 0
    for it in layer.iterations():
        n_iter += 1
        n_blocks += 1 if it.end_of_block else 0
        load_bytes += it.load_bytes
        store_bytes += it.store_bytes
        compute_cycles += it.compute_cycles
        macs += it.macs
        n_load_req += sum(t.request.sub_requests for t in it.loads)
        n_store_req += sum(t.request.sub_requests for t in it.stores)
    return {
        "n_iterations": max(n_iter, 1),
        "n_blocks": max(n_blocks, 1),
        "load_bytes": load_bytes,
        "store_bytes": store_bytes,
        "compute_cycles": compute_cycles,
        "macs": macs,
        "n_load_requests": n_load_req,
        "n_store_requests": n_store_req,
    }


class TestProgramIR:
    def test_measurement_is_stable(self, compiler):
        a = compiler.compile(synthetic_mlp())
        b = compiler.compile(synthetic_mlp())
        assert a.measurement() == b.measurement()

    def test_measurement_detects_tampering(self, compiler):
        a = compiler.compile(synthetic_mlp())
        b = compiler.compile(synthetic_mlp(features=512))
        assert a.measurement() != b.measurement()

    def test_measurement_covers_world(self, compiler):
        a = compiler.compile(synthetic_mlp())
        b = compiler.compile(synthetic_mlp(), world=World.SECURE)
        assert a.measurement() != b.measurement()

    def test_program_totals(self, mlp_program):
        assert mlp_program.total_macs == 3 * 32 * 256 * 256
        assert mlp_program.total_iterations >= 3
        assert mlp_program.total_load_bytes > 0

    def test_layer_validation(self):
        with pytest.raises(ConfigError):
            LayerSchedule(
                name="x", index=0, kind="gemm", n_iterations=0, n_blocks=1,
                load_bytes=0, store_bytes=0, compute_cycles=0, macs=0,
                spad_lines_used=1,
            )

    def test_missing_factory_raises(self):
        layer = LayerSchedule(
            name="x", index=0, kind="gemm", n_iterations=1, n_blocks=1,
            load_bytes=0, store_bytes=0, compute_cycles=0, macs=0,
            spad_lines_used=1,
        )
        with pytest.raises(ConfigError):
            layer.iterations()


class TestBlockingSelection:
    @pytest.fixture
    def cfg(self) -> NPUConfig:
        return NPUConfig.paper_default()

    def test_blocks_fit_budget(self, cfg):
        compiler = TilingCompiler(cfg)
        spec = GemmSpec("g", m=1024, k=1024, n=1024)
        for budget in (64 * 1024, 128 * 1024, 256 * 1024):
            acc = cfg.acc_bytes_total * budget // cfg.spad_bytes
            b = compiler._choose_blocking(spec, budget, acc)
            footprint = 2 * cfg.input_bytes * (b.mb * b.kb + b.kb * b.nb)
            assert footprint <= budget
            assert b.mb * b.nb * cfg.acc_elem_bytes * 2 <= acc

    def test_blockings_priced_once_per_spec(self, cfg, monkeypatch):
        """Searches within the cover (the full scratchpad and accumulator)
        scan the spec's ranking; one above it prices the spec again."""
        compiler = TilingCompiler(cfg)
        spec = GemmSpec("g", m=784, k=1152, n=256)
        _BLOCKING_MEMO.pop((spec, cfg), None)
        priced = []
        real = compiler._gemm_totals
        monkeypatch.setattr(compiler, "_gemm_totals",
                            lambda *a: priced.append(1) or real(*a))
        counts = []
        for budget in (32, 256, 64, 128, 512):
            acc = cfg.acc_bytes_total * budget * 1024 // cfg.spad_bytes
            compiler._choose_blocking(spec, budget * 1024, acc)
            counts.append(len(priced))
        assert 0 < counts[0] == counts[3] < counts[4]

    def test_small_matrix_not_padded_up(self, cfg):
        compiler = TilingCompiler(cfg)
        b = compiler._choose_blocking(
            GemmSpec("g", m=1, k=64, n=64), cfg.spad_bytes, cfg.acc_bytes_total
        )
        assert b.mb == 1

    def test_aggregates_match_factory_fold(self, cfg):
        """The closed-form aggregates must equal iterating the factory."""
        compiler = TilingCompiler(cfg)
        models = [synthetic_mlp(), synthetic_cnn(), zoo.yololite(56)]
        for model in models:
            program = compiler.compile(model)
            for layer in program.layers:
                if layer.kind != "gemm":
                    continue
                folded = fold_gemm_summary(layer)
                assert folded["n_iterations"] == layer.n_iterations
                assert folded["load_bytes"] == pytest.approx(layer.load_bytes)
                assert folded["store_bytes"] == pytest.approx(layer.store_bytes)
                assert folded["compute_cycles"] == pytest.approx(
                    layer.compute_cycles
                )
                assert folded["macs"] == layer.macs

    def test_fastpath_compile_bit_identical(self, cfg):
        """The closed-form summary of every GEMM layer must equal a fold
        over its iterations EXACTLY — same bits, same types.  Every
        aggregate is an integer-valued float below 2**53, so the product
        form and the sequential sum are the same float."""
        models = [synthetic_mlp(), synthetic_cnn(), zoo.yololite(56),
                  zoo.bert(seq_len=64, layers=2)]
        for model in models:
            program = TilingCompiler(cfg).compile(model)
            for layer in program.layers:
                if layer.kind != "gemm":
                    continue
                for field, expected in fold_gemm_summary(layer).items():
                    actual = getattr(layer, field)
                    same_type = type(actual) is type(expected)
                    assert actual == expected and same_type, (
                        f"{model.name}/{layer.name}.{field}: "
                        f"{actual!r} != {expected!r}"
                    )

    def test_macs_are_exact(self, cfg):
        compiler = TilingCompiler(cfg)
        model = synthetic_cnn()
        program = compiler.compile(model)
        assert program.total_macs == model.total_macs

    def test_smaller_budget_never_faster(self, cfg):
        """Estimated layer times are monotone in the scratchpad budget."""
        compiler = TilingCompiler(cfg)
        spec = GemmSpec("g", m=784, k=1152, n=256)
        times = []
        for budget in (32, 64, 128, 256):
            acc = cfg.acc_bytes_total * budget * 1024 // cfg.spad_bytes
            b = compiler._choose_blocking(spec, budget * 1024, acc)
            times.append(compiler._estimate_layer_time(spec, b))
        for small, big in zip(times, times[1:]):
            assert big <= small * 1.001

    def test_traffic_grows_with_smaller_budget(self, cfg):
        compiler = TilingCompiler(cfg)
        spec = GemmSpec("g", m=784, k=1152, n=256)
        traffics = []
        for budget in (32, 256):
            acc = cfg.acc_bytes_total * budget * 1024 // cfg.spad_bytes
            b = compiler._choose_blocking(spec, budget * 1024, acc)
            traffics.append(compiler._traffic(
                spec, _ceil_div(spec.m, b.mb), _ceil_div(spec.n, b.nb)
            ))
        assert traffics[0] > traffics[1]

    def test_tiny_budget_rejected(self, cfg):
        compiler = TilingCompiler(cfg)
        # 0 is a budget too, not a request for the full scratchpad.
        for budget in (128, 0):
            with pytest.raises(ConfigError, match="too small"):
                compiler.compile(synthetic_mlp(), spad_budget_bytes=budget)


class TestChunkLayout:
    def test_chunks_disjoint(self, compiler):
        program = compiler.compile(synthetic_cnn())
        chunks = list(program.chunks.values())
        for i, a in enumerate(chunks):
            for b in chunks[i + 1 :]:
                assert not a.overlaps(b)

    def test_requests_stay_inside_chunks(self, compiler):
        program = compiler.compile(synthetic_cnn())
        chunks = list(program.chunks.values())

        def inside(addr, size):
            return any(c.contains(addr, size) for c in chunks)

        for layer in program.layers:
            for it in layer.iterations():
                for transfer in it.loads + it.stores:
                    for base, size in transfer.request.row_ranges():
                        assert inside(base, size), (
                            f"{layer.name}: [{base:#x}, {base + size:#x}) "
                            f"outside all chunks"
                        )

    def test_packed_groups_reduce_iterations(self, compiler):
        # A grouped conv (depthwise-ish) packs groups per iteration.
        program = compiler.compile(zoo.mobilenet(56))
        dw = next(l for l in program.layers if l.name == "dw3")
        assert dw.n_iterations < 128  # 128 groups would be 128+ otherwise

    def test_world_propagates_to_requests(self, compiler):
        program = compiler.compile(synthetic_mlp(), world=World.SECURE)
        it = next(iter(program.layers[0].iterations()))
        assert all(t.request.world is World.SECURE for t in it.loads)

    def test_end_of_block_marks_k_completion(self, compiler):
        program = compiler.compile(synthetic_mlp())
        for layer in program.layers:
            iters = list(layer.iterations())
            assert sum(1 for it in iters if it.end_of_block) == layer.n_blocks
            assert iters[-1].end_of_block
            # Stores only happen at block completion.
            for it in iters:
                assert bool(it.stores) == it.end_of_block
