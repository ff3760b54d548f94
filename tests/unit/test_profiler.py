"""Unit tests for the hierarchical cycle-attribution profiler."""

from fractions import Fraction

from repro import telemetry
from repro.telemetry.profiler import (
    CATEGORIES,
    CATEGORY_TREE,
    CycleProfiler,
    category_root,
    parse_fraction,
    split_exact,
)

ZERO = Fraction(0)


class TestCategoryTree:
    def test_every_leaf_has_a_tree_root(self):
        for category in CATEGORIES:
            assert category_root(category) in CATEGORY_TREE

    def test_idle_is_its_own_leaf(self):
        assert "idle" in CATEGORIES
        assert category_root("idle") == "idle"

    def test_leaves_are_unique(self):
        assert len(set(CATEGORIES)) == len(CATEGORIES)


class TestSplitExact:
    def test_partition_sums_to_total_exactly(self):
        parts = [("pe.compute", 0.1), ("dma.issue", 0.2), ("flush.scrub", 0.3)]
        out = split_exact(1.0, parts, residual="dma.transfer")
        assert sum(out.values(), ZERO) == Fraction(1)

    def test_overclaim_is_clamped(self):
        out = split_exact(10.0, [("pe.compute", 25.0)], residual="dma.transfer")
        assert out == {"pe.compute": Fraction(10)}

    def test_residual_absorbs_remainder(self):
        out = split_exact(10.0, [("pe.compute", 4.0)], residual="idle")
        assert out["idle"] == Fraction(6)

    def test_negative_and_zero_claims_dropped(self):
        out = split_exact(5.0, [("pe.compute", -1.0), ("dma.issue", 0.0)],
                          residual="idle")
        assert out == {"idle": Fraction(5)}

    def test_duplicate_categories_accumulate(self):
        out = split_exact(6.0, [("pe.compute", 2.0), ("pe.compute", 3.0)],
                          residual="idle")
        assert out["pe.compute"] == Fraction(5)
        assert out["idle"] == Fraction(1)

    def test_float_noise_cannot_break_the_partition(self):
        # 0.1 + 0.2 != 0.3 in floats, but the partition is still exact.
        out = split_exact(0.3, [("pe.compute", 0.1), ("dma.issue", 0.2)],
                          residual="idle")
        assert sum(out.values(), ZERO) == Fraction(0.3)


class TestCycleProfiler:
    def _profiler(self):
        return CycleProfiler(enabled=True)

    def test_disabled_by_default_and_noops(self):
        p = CycleProfiler()
        p.layer("conv", 0, 100.0, [("pe.compute", 60.0)])
        p.attribute("noc.hop", 5.0)
        p.count("iotlb.walks")
        assert p.begin_run("t", "analytic") is None
        assert p.end_run() is None
        assert not p.categories and not p.counts and not p.runs

    def test_layer_partition_invariant(self):
        p = self._profiler()
        p.begin_run("resnet", "detailed")
        p.layer("conv1", 0, 100.0,
                [("pe.compute", 60.0), ("dma.stall.iotlb", 15.0)],
                residual="dma.transfer")
        run = p.end_run()
        lay = run.layers[0]
        assert sum(lay.parts.values(), ZERO) == lay.total == Fraction(100)
        assert lay.part("dma.transfer") == Fraction(25)
        assert run.total() == Fraction(100)

    def test_run_extra_lands_on_last_completed_run(self):
        p = self._profiler()
        p.begin_run("resnet", "detailed")
        p.layer("conv1", 0, 100.0, [("pe.compute", 100.0)])
        p.end_run()
        p.run_extra(40.0, [("flush.scrub", 30.0)],
                    residual="flush.world_switch")
        run = p.runs[-1]
        assert run.extras["flush.scrub"] == Fraction(30)
        assert run.extras["flush.world_switch"] == Fraction(10)
        assert run.total() == Fraction(140)

    def test_layer_outside_run_creates_adhoc_ledger(self):
        p = self._profiler()
        p.layer("conv", 0, 10.0, [("pe.compute", 10.0)])
        assert p.runs[0].task == "<adhoc>"
        assert p.runs[0].total() == Fraction(10)

    def test_global_ledger_matches_runs_plus_fabric(self):
        p = self._profiler()
        p.begin_run("a", "analytic")
        p.layer("l0", 0, 50.0, [("pe.compute", 30.0)])
        p.end_run()
        p.attribute("noc.hop", 7.0)
        assert p.total_attributed() == Fraction(57)
        roots = p.by_root()
        assert roots["pe"] == Fraction(30)
        assert roots["dma"] == Fraction(20)
        assert roots["noc"] == Fraction(7)

    def test_attribute_ignores_nonpositive(self):
        p = self._profiler()
        p.attribute("noc.hop", 0.0)
        p.attribute("noc.hop", -3.0)
        assert not p.categories

    def test_by_category_rollup_of_one_run(self):
        p = self._profiler()
        p.begin_run("a", "analytic")
        p.layer("l0", 0, 10.0, [("pe.compute", 4.0)])
        p.layer("l1", 1, 10.0, [("pe.compute", 6.0)])
        run = p.end_run()
        by_cat = run.by_category()
        assert by_cat["pe.compute"] == Fraction(10)
        assert by_cat["dma.transfer"] == Fraction(10)

    def test_interleaved_runs_keep_their_own_layers(self):
        p = self._profiler()
        a = p.begin_run("a", "detailed")
        b = p.begin_run("b", "detailed")
        p.layer("a0", 0, 10.0, [("pe.compute", 10.0)], run=a)
        p.layer("b0", 0, 20.0, [("pe.compute", 5.0)], run=b)
        p.layer("a1", 1, 30.0, [("pe.compute", 30.0)], run=a)
        assert [lay.name for lay in a.layers] == ["a0", "a1"]
        assert [lay.name for lay in b.layers] == ["b0"]
        assert a.total() == Fraction(40) and b.total() == Fraction(20)
        assert p.total_attributed() == Fraction(60)

    def test_end_run_archives_in_call_order_and_keeps_current(self):
        p = self._profiler()
        a = p.begin_run("a", "detailed")
        b = p.begin_run("b", "detailed")  # b is now the current run
        assert p.end_run(a) is a
        assert p.runs == [a]
        # b stays open and current: handle-less calls still land in it.
        p.layer("b0", 0, 10.0, [("pe.compute", 10.0)])
        assert [lay.name for lay in b.layers] == ["b0"]
        assert p.end_run() is b
        assert p.runs == [a, b]
        assert p.end_run() is None

    def test_count_accumulates(self):
        p = self._profiler()
        p.count("iotlb.walks")
        p.count("iotlb.walks", 4)
        assert p.counts["iotlb.walks"] == 5


class TestSnapshots:
    """The exact ``"num/den"`` encoding profile JSON carries."""

    def test_parse_fraction_accepts_numbers(self):
        assert parse_fraction("3/4") == Fraction(3, 4)
        assert parse_fraction(0.5) == Fraction(1, 2)
        assert parse_fraction(Fraction(7)) == Fraction(7)


class TestScopedIntegration:
    def test_scoped_restores_profiler_state(self):
        with telemetry.scoped(trace=False) as scope:
            scope.profiler.layer("l", 0, 10.0, [("pe.compute", 10.0)])
            assert scope.profiler.total_attributed() == Fraction(10)
        assert telemetry.profiler.categories == {}
        assert not telemetry.profiler.enabled
