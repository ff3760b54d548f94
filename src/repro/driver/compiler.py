"""Tiling compiler: lowers DNN kernels onto blocked NPU op schedules.

For every GEMM kernel the compiler picks a blocking ``(Mb, Kb, Nb)`` under
the scratchpad/accumulator budget (double-buffered), using the classic
loop order ``for n / for m / for k`` with accumulation innermost:

* input block ``(Mb x Kb)`` is re-streamed once per N-block pass,
* weight block ``(Kb x Nb)`` is streamed once per (n, m, k) step,
* the output block ``(Mb x Nb)`` leaves the accumulator after the k-loop.

DRAM traffic therefore scales as
``input_pass * ceil(N/Nb) + weights * ceil(M/Mb) + output`` — shrinking
the scratchpad budget shrinks ``Nb``/``Mb`` and multiplies traffic, which
is exactly the partition sensitivity Fig. 15 measures.

The compiler emits both the analytic layer summary and a detailed
iteration factory producing real :class:`~repro.common.types.DmaRequest`
descriptors whose page-touch patterns drive the IOTLB simulation
(Fig. 13).  DMA descriptors are architecturally issued per ``array_dim``
rows (Gemmini's ``mvin``); uniform descriptors of one block are batched
into a single simulated request carrying ``sub_requests`` for correct
Guarder/IOMMU accounting.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.types import AddressRange, DmaRequest, World
from repro.errors import ConfigError
from repro.npu.config import NPUConfig
from repro.npu.dma import DMAEngine
from repro.npu.isa import LayerSchedule, NPUProgram, SpadTransfer, TileIteration
from repro.npu.systolic import SystolicArray
from repro.workloads.model import GemmSpec, Kernel, ModelGraph, VectorSpec

#: Default virtual base address of a task's address space.
TASK_VA_BASE = 0x1000_0000

#: Blocking memo: ``(spec, config)`` (frozen dataclasses) ->
#: ``(spad_cover, acc_cover, ranked)``, the ``_rank_blockings`` of the
#: spec under the cover budgets.  A candidate's rank never depends on
#: the budgets, which only decide whether it fits, so every search at or
#: below the cover is a scan of ``ranked``: experiments and serving
#: compile the same kernels at dozens of scratchpad budgets.
_BLOCKING_MEMO: Dict[tuple, Tuple[int, int, "array[int]"]] = {}
_BLOCKING_MEMO_MAX = 4096


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _round_up(a: int, b: int) -> int:
    return _ceil_div(a, b) * b


@dataclass(frozen=True)
class Blocking:
    """Chosen block sizes for one GEMM layer (elements, not bytes)."""

    mb: int
    kb: int
    nb: int
    #: Groups of a repeated GEMM packed into one tile iteration.
    pack: int = 1


@dataclass
class _Layout:
    """Virtual-address layout of one compiled task."""

    weights: AddressRange
    act0: AddressRange
    act1: AddressRange

    def act(self, index: int) -> AddressRange:
        return self.act0 if index % 2 == 0 else self.act1


class TilingCompiler:
    """Compiles :class:`~repro.workloads.model.ModelGraph` to NPU programs."""

    #: Candidate M/N block sizes (multiples of the array dimension).
    _CANDIDATES = (16, 32, 64, 128, 256, 512)
    #: Target bytes of packed-group input per iteration for repeated GEMMs.
    _PACK_TARGET_BYTES = 16 * 1024

    def __init__(self, config: NPUConfig):
        self.config = config
        self._systolic = SystolicArray(config)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def compile(
        self,
        model: ModelGraph,
        spad_budget_bytes: Optional[int] = None,
        acc_budget_bytes: Optional[int] = None,
        world: World = World.NORMAL,
        va_base: int = TASK_VA_BASE,
    ) -> NPUProgram:
        """Compile *model* under the given scratchpad budget.

        ``spad_budget_bytes`` defaults to the full per-tile scratchpad; the
        spatial-sharing experiments pass a fraction of it.
        """
        budget = spad_budget_bytes
        if budget is None:
            budget = self.config.spad_bytes
        if acc_budget_bytes is None:
            # The accumulator is carved out of the same scratchpad banks, so
            # a capacity split shrinks it proportionally - this is what
            # makes output-block sizes (and hence re-fetch traffic) depend
            # on the partition fraction (Fig. 15).
            acc_budget_bytes = max(
                4 * self.config.array_dim * self.config.acc_elem_bytes,
                self.config.acc_bytes_total * budget // self.config.spad_bytes,
            )
        acc_budget = acc_budget_bytes
        if budget < 4 * self.config.array_dim * self.config.array_dim:
            raise ConfigError(
                f"scratchpad budget {budget} too small for one {self.config.array_dim}"
                f"-wide tile"
            )

        kernels = model.lower()
        # Pre-pass: choose blockings so the weight chunk can be laid out in
        # blocked (pre-tiled) form — weights are static, so the toolchain
        # stores each (k, n) block contiguously, as Gemmini's does.
        blockings: Dict[int, Blocking] = {}
        padded_weights: Dict[int, int] = {}
        for idx, kernel in enumerate(kernels):
            if isinstance(kernel, GemmSpec):
                blocking = self._choose_blocking(kernel, budget, acc_budget)
                blockings[idx] = blocking
                padded_weights[idx] = (
                    0
                    if kernel.b_is_activation
                    else self._padded_weight_bytes(kernel, blocking)
                )
        layout = self._build_layout(va_base, kernels, padded_weights)
        layers: List[LayerSchedule] = []
        weight_offset = 0
        for idx, kernel in enumerate(kernels):
            act_in = layout.act(idx)
            act_out = layout.act(idx + 1)
            if isinstance(kernel, GemmSpec):
                layer = self._compile_gemm(
                    kernel, idx, blockings[idx], layout, weight_offset,
                    act_in, act_out, world,
                )
                weight_offset += padded_weights[idx]
            else:
                layer = self._compile_vector(
                    kernel, idx, budget, act_in, act_out, world
                )
            layers.append(layer)

        program = NPUProgram(
            task_name=model.name,
            layers=layers,
            world=world,
            chunks={
                "weights": layout.weights,
                "act0": layout.act0,
                "act1": layout.act1,
            },
            meta={
                "model": model.name,
                "spad_budget_bytes": budget,
                "acc_budget_bytes": acc_budget,
            },
        )
        return program

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _padded_weight_bytes(self, spec: GemmSpec, b: Blocking) -> int:
        """Blocked-layout weight footprint: full-size slot per (k, n) block."""
        slots = _ceil_div(spec.k, b.kb) * _ceil_div(spec.n, b.nb)
        return slots * b.kb * b.nb * self.config.input_bytes * spec.repeat

    def _build_layout(
        self,
        va_base: int,
        kernels: List[Kernel],
        padded_weights: Dict[int, int],
    ) -> _Layout:
        total_weights = sum(padded_weights.values())
        ib, ob = self.config.input_bytes, self.config.output_bytes
        max_act = 0
        for k in kernels:
            if isinstance(k, GemmSpec):
                per = max(k.input_bytes_per_pass * ib, k.output_bytes * ob)
                if k.b_is_activation:
                    per += k.weight_bytes * ib
                max_act = max(max_act, per * k.repeat)
            else:
                max_act = max(max_act, k.in_bytes * ib, k.out_bytes * ob)
        align = 1 << 12  # page aligned chunks
        w_size = _round_up(max(total_weights, 1), align)
        a_size = _round_up(max(max_act, 1), align)
        weights = AddressRange(va_base, w_size)
        act0 = AddressRange(weights.end, a_size)
        act1 = AddressRange(act0.end, a_size)
        return _Layout(weights=weights, act0=act0, act1=act1)

    # ------------------------------------------------------------------
    # GEMM blocking
    # ------------------------------------------------------------------
    def _choose_blocking(
        self, spec: GemmSpec, budget: int, acc_budget: int
    ) -> Blocking:
        """The blocking of least ``(pipeline time, traffic)`` within
        *budget* and *acc_budget*, the first in enumeration order among
        equal keys; the smallest legal tile if none fits."""
        key = (spec, self.config)
        spad_cover, acc_cover, ranked = _BLOCKING_MEMO.get(
            key, (self.config.spad_bytes, self.config.acc_bytes_total, None)
        )
        if ranked is None or budget > spad_cover or acc_budget > acc_cover:
            # Rank under budgets that cover this search and every earlier one.
            spad_cover = max(spad_cover, budget)
            acc_cover = max(acc_cover, acc_budget)
            ranked = self._rank_blockings(spec, spad_cover, acc_cover)
            if len(_BLOCKING_MEMO) >= _BLOCKING_MEMO_MAX:
                _BLOCKING_MEMO.pop(next(iter(_BLOCKING_MEMO)))
            _BLOCKING_MEMO[key] = (spad_cover, acc_cover, ranked)
        for i in range(0, len(ranked), 6):
            if ranked[i] <= acc_budget and ranked[i + 1] <= budget:
                return Blocking(*ranked[i + 2:i + 6])
        # Fall back to the smallest legal tile.
        d = self.config.array_dim
        mb, kb, nb = (min(cap, d) for cap in self._block_caps(spec))
        return Blocking(mb, kb, nb, self._choose_pack(spec, mb, kb))

    def _block_caps(self, spec: GemmSpec) -> Tuple[int, int, int]:
        """Largest M, K and N blocks: each dimension rounded up to the
        array width, or itself when narrower."""
        d = self.config.array_dim
        m, k, n = (_round_up(x, d) if x >= d else x for x in (spec.m, spec.k, spec.n))
        return m, k, n

    def _rank_blockings(
        self, spec: GemmSpec, budget: int, acc_budget: int
    ) -> "array[int]":
        """Every blocking within *budget* and *acc_budget*, best first, as
        ``(acc_need, spad_need, mb, kb, nb, pack)`` int sextets.

        Candidates sort by ``(pipeline time, traffic, enumeration index)``.
        One that needs no less accumulator and scratchpad than an earlier
        one can never fit first and is left out; under smaller budgets,
        the first sextet that fits is the first strict minimum of a
        search over the candidates that fit them.
        """
        ib = self.config.input_bytes
        acc_eb = self.config.acc_elem_bytes
        m_cap, k_cap, n_cap = self._block_caps(spec)

        # Split each candidate block size of each dimension once; a
        # (mb, nb, kb) candidate is then priced from one row of each.
        m_rows = [
            (mb, self._m_row(spec, mb))
            for mb in [c for c in self._CANDIDATES if c <= m_cap] or [m_cap]
        ]
        n_rows = [
            (nb, self._n_row(spec, nb))
            for nb in [c for c in self._CANDIDATES if c <= n_cap] or [n_cap]
        ]
        k_rows = [
            (kb, self._k_row(spec, kb))
            for kb in sorted({c for c in self._CANDIDATES if c <= k_cap} | {k_cap})
        ]
        priced = []
        for mb, m_row in m_rows:
            for nb, n_row in n_rows:
                # Accumulator constraint (double buffered).
                acc_need = mb * nb * acc_eb * 2
                if acc_need > acc_budget:
                    continue
                traffic = self._traffic(spec, m_row[0], n_row[0])
                for kb, k_row in k_rows:
                    # Scratchpad constraint: double-buffered input +
                    # weight blocks.
                    spad_need = 2 * ib * (mb + nb) * kb
                    if spad_need > budget:
                        break
                    pack = self._choose_pack(spec, mb, kb)
                    totals = self._gemm_totals(
                        spec, m_row, k_row, n_row, _ceil_div(spec.repeat, pack)
                    )
                    # Minimize the modelled pipeline time (the same per-
                    # iteration max(load, compute, store) the core charges),
                    # with raw traffic as tiebreak (energy/contention).
                    priced.append((
                        self._pipeline_time(totals), traffic, len(priced),
                        acc_need, spad_need, mb, kb, nb, pack,
                    ))
        priced.sort()
        ranked = array("q")
        steps: List[Tuple[int, int]] = []
        for *_, acc_need, spad_need, mb, kb, nb, pack in priced:
            if all(a > acc_need or s > spad_need for a, s in steps):
                steps.append((acc_need, spad_need))
                ranked.extend((acc_need, spad_need, mb, kb, nb, pack))
        return ranked

    def _choose_pack(self, spec: GemmSpec, mb: int, kb: int) -> int:
        if spec.repeat == 1:
            return 1
        per_group_in = mb * kb * self.config.input_bytes
        pack = max(1, self._PACK_TARGET_BYTES // max(per_group_in, 1))
        return min(spec.repeat, pack)

    def _traffic(self, spec: GemmSpec, m_passes: int, n_passes: int) -> float:
        """DRAM bytes of a blocking with this many M and N blocks."""
        per_repeat = (
            spec.input_bytes_per_pass * self.config.input_bytes * n_passes
            + spec.weight_bytes * self.config.input_bytes * m_passes
            + spec.output_bytes * self.config.output_bytes
        )
        return float(per_repeat * spec.repeat)

    # Each dimension splits into ``q`` full blocks of size ``block`` plus
    # at most one edge block of size ``r``, so every sum over the blocks
    # of a dimension collapses to ``q·f(block) + f(r)``.  One row per
    # dimension holds those sums for one block size.

    def _row_eff(self, spec: GemmSpec) -> int:
        """Bytes of raw input fetched per M-row per full-K pass: the spec
        counts elements, the stride is in bytes."""
        ib = self.config.input_bytes
        return max(ib, (spec.input_bytes_per_pass // max(spec.m, 1)) * ib)

    def _m_row(self, spec: GemmSpec, mb: int) -> Tuple[int, int, int, int]:
        """``(nM, sum_me, sum_sub_m, sum_sub_m_plain)`` for M blocks of *mb*."""
        d = self.config.array_dim
        qm, rm = divmod(spec.m, mb)
        nM = qm + (1 if rm else 0)
        sum_sub_m_plain = qm * _ceil_div(mb, d) + (_ceil_div(rm, d) if rm else 0)
        halo_cap = (
            _ceil_div(spec.input_halo_bytes * self.config.input_bytes,
                      self._row_eff(spec))
            if spec.input_halo_bytes
            else 0
        )
        # m blocks gain a halo overlap except the very first block.
        if not (halo_cap and nM > 1):
            return nM, spec.m, sum_sub_m_plain, sum_sub_m_plain
        hf = min(mb // 2, halo_cap)
        he = min(rm // 2, halo_cap)
        sum_me = spec.m + (qm - 1) * hf + (he if rm else 0)
        sum_sub_m = (
            _ceil_div(mb, d)
            + (qm - 1) * _ceil_div(mb + hf, d)
            + (_ceil_div(rm + he, d) if rm else 0)
        )
        return nM, sum_me, sum_sub_m, sum_sub_m_plain

    def _k_row(self, spec: GemmSpec, kb: int) -> Tuple[int, int, int]:
        """``(nK, sum_rowb, sum_wtk)`` for K blocks of *kb*."""
        d = self.config.array_dim
        ib = self.config.input_bytes
        row_eff = self._row_eff(spec)
        qk, rk = divmod(spec.k, kb)
        sum_rowb = qk * max(ib, row_eff * kb // spec.k) + (
            max(ib, row_eff * rk // spec.k) if rk else 0
        )
        sum_wtk = qk * _ceil_div(kb, d) + (_ceil_div(rk, d) if rk else 0)
        return qk + (1 if rk else 0), sum_rowb, sum_wtk

    def _n_row(self, spec: GemmSpec, nb: int) -> Tuple[int, int]:
        """``(nN, sum_wtn)`` for N blocks of *nb*."""
        d = self.config.array_dim
        qn, rn = divmod(spec.n, nb)
        return qn + (1 if rn else 0), qn * _ceil_div(nb, d) + (
            _ceil_div(rn, d) if rn else 0
        )

    def _gemm_totals(
        self,
        spec: GemmSpec,
        m_row: Tuple[int, int, int, int],
        k_row: Tuple[int, int, int],
        n_row: Tuple[int, int],
        gs: int,
    ) -> Tuple[int, int, float, float, float, int, int]:
        """``(iters, blocks, load_bytes, store_bytes, compute, n_load_req,
        n_store_req)`` of one blocking, *gs* packed group steps."""
        cfg = self.config
        nM, sum_me, sum_sub_m, sum_sub_m_plain = m_row
        nK, sum_rowb, sum_wtk = k_row
        nN, sum_wtn = n_row
        iters_inner = nM * nK * nN
        rep = spec.repeat
        load_bytes = float(
            nN * sum_me * sum_rowb * rep
            + nM * spec.k * spec.n * cfg.input_bytes * rep
        )
        store_bytes = float(spec.m * spec.n * cfg.output_bytes * rep)
        compute = float(
            rep
            * (
                sum_wtk * sum_wtn * (nM * cfg.weight_preload_cycles + spec.m)
                + iters_inner * cfg.array_dim
            )
        )
        # sum_sub_k ≡ sum_wtk: both sum ceil(bk / d) over the k blocks.
        n_load_req = (nN * sum_sub_m * nK + nM * nN * sum_wtk) * gs
        n_store_req = nN * sum_sub_m_plain * gs
        return (
            iters_inner * gs, nM * nN * gs, load_bytes, store_bytes, compute,
            n_load_req, n_store_req,
        )

    def _pipeline_time(
        self, totals: Tuple[int, int, float, float, float, int, int]
    ) -> float:
        """The analytic layer time the core charges for ``_gemm_totals``."""
        iters, blocks, load_bytes, store_bytes, compute, n_load_req, \
            n_store_req = totals
        bw = self.config.dram_bytes_per_cycle
        issue = DMAEngine.ISSUE_CYCLES
        load = (n_load_req / iters) * issue + load_bytes / iters / bw
        store_block = (n_store_req / blocks) * issue + store_bytes / blocks / bw
        compute = compute / iters
        # max(load, compute) and max(load, compute, store_block), spelled
        # out: this runs once per blocking candidate.
        slot = load if load >= compute else compute
        slot_store = slot if slot >= store_block else store_block
        return (iters - blocks) * slot + blocks * slot_store + load + store_block

    def _blocking_totals(
        self, spec: GemmSpec, b: Blocking
    ) -> Tuple[int, int, float, float, float, int, int]:
        """``_gemm_totals`` of a chosen blocking."""
        return self._gemm_totals(
            spec, self._m_row(spec, b.mb), self._k_row(spec, b.kb),
            self._n_row(spec, b.nb), _ceil_div(spec.repeat, b.pack),
        )

    def _aggregate_gemm(self, spec: GemmSpec, b: Blocking) -> dict:
        """Exact schedule aggregates in O(1), from one row per dimension.

        All summands are ints, so the ``q·f(block) + f(r)`` collapse is
        exact, and the float fields equal a sequential fold over the
        layer's iterations bit for bit (``tests/unit/test_isa_compiler.py``
        holds the per-block list form and the fold as oracles).
        """
        iters, blocks, load_bytes, store_bytes, compute, n_load_req, \
            n_store_req = self._blocking_totals(spec, b)
        return {
            "iters": iters,
            "blocks": blocks,
            "load_bytes": load_bytes,
            "store_bytes": store_bytes,
            "compute": compute,
            "macs": spec.m * spec.k * spec.n * spec.repeat,
            "n_load_req": n_load_req,
            "n_store_req": n_store_req,
        }

    def _estimate_layer_time(self, spec: GemmSpec, b: Blocking) -> float:
        """The analytic layer time the core will charge for this blocking."""
        return self._pipeline_time(self._blocking_totals(spec, b))

    # ------------------------------------------------------------------
    # GEMM layer emission
    # ------------------------------------------------------------------
    def _compile_gemm(
        self,
        spec: GemmSpec,
        index: int,
        blocking: Blocking,
        layout: _Layout,
        weight_offset: int,
        act_in: AddressRange,
        act_out: AddressRange,
        world: World,
    ) -> LayerSchedule:
        cfg = self.config
        mb, kb, nb, pack = blocking.mb, blocking.kb, blocking.nb, blocking.pack

        # Effective row length of the streamed A-operand (im2col-aware).
        row_eff = self._row_eff(spec)
        w_base = (
            act_in.base + spec.input_bytes_per_pass * cfg.input_bytes * spec.repeat
            if spec.b_is_activation
            else layout.weights.base + weight_offset
        )

        n_steps = _ceil_div(spec.n, nb)
        m_steps = _ceil_div(spec.m, mb)
        k_steps = _ceil_div(spec.k, kb)

        def iterations() -> Iterator[TileIteration]:
            per_group_in = spec.input_bytes_per_pass * cfg.input_bytes
            per_group_w = (
                spec.weight_bytes * cfg.input_bytes
                if spec.b_is_activation
                else k_steps * n_steps * kb * nb * cfg.input_bytes
            )
            per_group_out = spec.output_bytes * cfg.output_bytes
            for g0 in range(0, spec.repeat, pack):
                gp = min(pack, spec.repeat - g0)
                in_base_g = act_in.base + g0 * per_group_in
                w_base_g = w_base + g0 * per_group_w
                out_base_g = act_out.base + g0 * per_group_out
                for ni in range(n_steps):
                    n0 = ni * nb
                    bn = min(nb, spec.n - n0)
                    for mi in range(m_steps):
                        m0 = mi * mb
                        bm = min(mb, spec.m - m0)
                        for ki in range(k_steps):
                            k0 = ki * kb
                            bk = min(kb, spec.k - k0)
                            yield self._gemm_iteration(
                                spec, index, world, blocking,
                                in_base_g, w_base_g, out_base_g,
                                row_eff, gp,
                                ni, n0, bn, m0, bm, ki, k0, bk,
                                n_steps,
                                last_k=(ki == k_steps - 1),
                            )

        agg = self._aggregate_gemm(spec, blocking)

        spad_lines_used = min(
            cfg.spad_lines,
            2 * (mb * kb + kb * nb) * cfg.input_bytes // cfg.spad_line_bytes,
        )
        return LayerSchedule(
            name=spec.name,
            index=index,
            kind="gemm",
            n_iterations=max(agg["iters"], 1),
            n_blocks=max(agg["blocks"], 1),
            load_bytes=agg["load_bytes"],
            store_bytes=agg["store_bytes"],
            compute_cycles=agg["compute"],
            macs=agg["macs"],
            spad_lines_used=max(spad_lines_used, 1),
            n_load_requests=agg["n_load_req"],
            n_store_requests=agg["n_store_req"],
            iteration_factory=iterations,
            gemm_meta={
                "m": spec.m,
                "k": spec.k,
                "n": spec.n,
                "repeat": spec.repeat,
                "mb": mb,
                "kb": kb,
                "nb": nb,
                "pack": pack,
                "w_base": w_base,
                "in_base": act_in.base,
                "out_base": act_out.base,
                "row_eff": row_eff,
            },
        )

    def _gemm_iteration(
        self,
        spec: GemmSpec,
        index: int,
        world: World,
        blocking: Blocking,
        in_base: int,
        w_base: int,
        out_base: int,
        row_eff: int,
        gp: int,
        ni: int,
        n0: int,
        bn: int,
        m0: int,
        bm: int,
        ki: int,
        k0: int,
        bk: int,
        n_steps: int,
        last_k: bool,
    ) -> TileIteration:
        cfg = self.config
        ib, ob = cfg.input_bytes, cfg.output_bytes
        d = cfg.array_dim

        # A-operand block: bm rows of the (im2col-effective) input matrix.
        # Convolutions re-touch a receptive-field halo of the previous
        # M-block (kernel > stride): extend the block backwards by the halo
        # rows, which is real refetch traffic and the short-distance page
        # reuse the IOTLB sees.
        in_row_bytes = max(ib, row_eff * bk // max(spec.k, 1)) * gp
        halo_rows = 0
        if spec.input_halo_bytes and m0 > 0:
            halo_rows = min(
                bm // 2, _ceil_div(spec.input_halo_bytes * ib, row_eff)
            )
        in_req = DmaRequest(
            vaddr=in_base + (m0 - halo_rows) * row_eff
            + (k0 * row_eff // max(spec.k, 1)),
            size=(bm + halo_rows) * in_row_bytes,
            is_write=False,
            world=world,
            stream="input",
            rows=bm + halo_rows,
            row_bytes=in_row_bytes,
            row_stride=row_eff * gp if gp > 1 else row_eff,
            sub_requests=_ceil_div(bm + halo_rows, d),
        )

        # B operand.  Static weights are stored pre-tiled: each (k, n)
        # block occupies one contiguous slot.  An activation B operand
        # (attention) is produced at run time and stays row-major/strided.
        if spec.b_is_activation:
            w_req = DmaRequest(
                vaddr=w_base + (k0 * spec.n + n0) * ib,
                size=bk * bn * ib * gp,
                is_write=False,
                world=world,
                stream="weight",
                rows=bk,
                row_bytes=bn * ib * gp,
                row_stride=spec.n * ib,
                sub_requests=_ceil_div(bk, d),
            )
        else:
            slot = blocking.kb * blocking.nb * ib
            w_req = DmaRequest(
                vaddr=w_base + (ki * n_steps + ni) * slot,
                size=bk * bn * ib * gp,
                is_write=False,
                world=world,
                stream="weight",
                sub_requests=_ceil_div(bk, d),
            )

        loads = [
            SpadTransfer(request=in_req, lines=_ceil_div(in_req.size, cfg.spad_line_bytes)),
            SpadTransfer(request=w_req, lines=_ceil_div(w_req.size, cfg.spad_line_bytes)),
        ]
        stores: List[SpadTransfer] = []
        if last_k:
            out_req = DmaRequest(
                vaddr=out_base + (m0 * spec.n + n0) * ob,
                size=bm * bn * ob * gp,
                is_write=True,
                world=world,
                stream="output",
                rows=bm,
                row_bytes=bn * ob * gp,
                row_stride=spec.n * ob,
                sub_requests=_ceil_div(bm, d),
            )
            stores.append(
                SpadTransfer(
                    request=out_req,
                    lines=_ceil_div(out_req.size, cfg.acc_line_bytes),
                    to_accumulator=True,
                )
            )

        compute = self._systolic.gemm_block_cycles(bm, bk, bn) * gp
        macs = self._systolic.gemm_block_macs(bm, bk, bn) * gp
        return TileIteration(
            loads=loads,
            stores=stores,
            compute_cycles=compute,
            macs=macs,
            end_of_block=last_k,
            layer_index=index,
            gemm_coords=(0, gp, m0, bm, k0, bk, n0, bn),
        )

    # ------------------------------------------------------------------
    # Vector layer emission
    # ------------------------------------------------------------------
    def _compile_vector(
        self,
        spec: VectorSpec,
        index: int,
        budget: int,
        act_in: AddressRange,
        act_out: AddressRange,
        world: World,
    ) -> LayerSchedule:
        cfg = self.config
        in_total = spec.in_bytes * cfg.input_bytes
        out_total = spec.out_bytes * cfg.output_bytes
        chunk = max(cfg.spad_line_bytes, min(budget // 4, 64 * 1024))
        n_iter = _ceil_div(in_total, chunk)
        out_chunk = _ceil_div(out_total, n_iter)
        elems_chunk = _ceil_div(spec.elements, n_iter)
        d = cfg.array_dim

        def iterations() -> Iterator[TileIteration]:
            for i in range(n_iter):
                in_off = i * chunk
                in_sz = min(chunk, in_total - in_off)
                out_off = i * out_chunk
                out_sz = max(1, min(out_chunk, out_total - out_off))
                in_req = DmaRequest(
                    vaddr=act_in.base + in_off,
                    size=max(in_sz, 1),
                    is_write=False,
                    world=world,
                    stream="input",
                    sub_requests=_ceil_div(max(in_sz, 1), d * cfg.spad_line_bytes),
                )
                out_req = DmaRequest(
                    vaddr=act_out.base + out_off,
                    size=out_sz,
                    is_write=True,
                    world=world,
                    stream="output",
                    sub_requests=_ceil_div(out_sz, d * cfg.spad_line_bytes),
                )
                yield TileIteration(
                    loads=[
                        SpadTransfer(
                            request=in_req,
                            lines=_ceil_div(in_req.size, cfg.spad_line_bytes),
                        )
                    ],
                    stores=[
                        SpadTransfer(
                            request=out_req,
                            lines=_ceil_div(out_req.size, cfg.spad_line_bytes),
                        )
                    ],
                    compute_cycles=self._systolic.vector_cycles(
                        elems_chunk * spec.ops_per_element
                    ),
                    macs=0,
                    end_of_block=True,
                    layer_index=index,
                )

        return LayerSchedule(
            name=spec.name,
            index=index,
            kind="vector",
            n_iterations=n_iter,
            n_blocks=n_iter,
            load_bytes=float(in_total),
            store_bytes=float(out_total),
            compute_cycles=self._systolic.vector_cycles(
                spec.elements * spec.ops_per_element
            ),
            macs=0,
            spad_lines_used=max(1, chunk // cfg.spad_line_bytes),
            n_load_requests=max(1, _ceil_div(in_total, d * cfg.spad_line_bytes)),
            n_store_requests=max(1, _ceil_div(out_total, d * cfg.spad_line_bytes)),
            iteration_factory=iterations,
        )
