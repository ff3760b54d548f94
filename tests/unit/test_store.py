"""Unit tests for the persistent run archive (:mod:`repro.store`)."""

from fractions import Fraction

import pytest

from repro.errors import StoreError
from repro.store import (
    RunRecord,
    RunStore,
    canon,
    flatten_metrics,
    numeric,
    run_key,
)
from repro.store.ingest import record_from_bench
from repro.store.queries import CANNED, format_rows, run_query
from repro.store.store import config_digest, source_digest
from repro.telemetry.regression import (
    compare_bench_history,
    median_baseline,
)


def _record(**overrides):
    """A fully-specified record (fixed digests: no live-tree hashing)."""
    fields = dict(
        verb="run",
        experiment="alexnet:32",
        protection="snpu",
        seed=7,
        config_digest="c" * 16,
        source_digest="s" * 16,
        metrics={"run.cycles": Fraction(7, 2), "run.util": 0.25},
    )
    fields.update(overrides)
    return RunRecord(**fields)


class TestCanon:
    def test_fraction_is_exact(self):
        assert canon(Fraction(1, 3)) == "1/3"
        assert numeric("1/3") == pytest.approx(1 / 3)

    def test_bool_before_int(self):
        assert canon(True) == "1"
        assert canon(False) == "0"

    def test_float_round_trips(self):
        for value in (0.1, 1e300, -2.5, 6119379.0625):
            assert float(canon(value)) == value

    def test_none_and_str(self):
        assert canon(None) == ""
        assert canon("label") == "label"
        assert numeric("") is None
        assert numeric("label") is None

    def test_dict_is_sorted_json(self):
        assert canon({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_flatten_metrics_dotted_leaves(self):
        flat = flatten_metrics({"serve": {"p99": 1.5, "n": 3}, "x": 1})
        assert flat == {"serve.n": 3, "serve.p99": 1.5, "x": 1}


class TestRunKey:
    def test_stable(self):
        a = run_key("run", "alexnet:32", "c", "snpu", 7, "s")
        b = run_key("run", "alexnet:32", "c", "snpu", 7, "s")
        assert a == b and len(a) == 16

    def test_every_component_matters(self):
        base = run_key("run", "e", "c", "p", 0, "s")
        assert run_key("serve", "e", "c", "p", 0, "s") != base
        assert run_key("run", "e2", "c", "p", 0, "s") != base
        assert run_key("run", "e", "c2", "p", 0, "s") != base
        assert run_key("run", "e", "c", "p2", 0, "s") != base
        assert run_key("run", "e", "c", "p", 1, "s") != base
        assert run_key("run", "e", "c", "p", 0, "s2") != base

    def test_source_digest_covers_the_package(self):
        digest = source_digest()
        assert len(digest) == 64
        assert digest == source_digest()  # memoised

    def test_config_digest_is_stable(self):
        assert config_digest() == config_digest()


class TestIngest:
    def test_same_record_replaces_same_row(self, tmp_path):
        store = RunStore(str(tmp_path / "a.sqlite"))
        rid1 = store.ingest(_record())
        rid2 = store.ingest(_record())
        assert rid1 == rid2
        assert len(store.dump()["runs"]) == 1

    def test_replacement_drops_stale_children(self, tmp_path):
        store = RunStore(str(tmp_path / "a.sqlite"))
        rid = store.ingest(_record(metrics={"old.metric": 1, "keep": 2}))
        store.ingest(_record(metrics={"keep": 3}))
        names = [row["name"] for row in store.children("metrics", rid)]
        assert names == ["keep"]

    def test_dump_identical_across_stores_and_order(self, tmp_path):
        """Archive content is ingestion-order-independent (the --jobs N
        vs --jobs 1 contract, in miniature)."""
        r1 = _record(experiment="a")
        r2 = _record(experiment="b")
        forward = RunStore(str(tmp_path / "f.sqlite"))
        backward = RunStore(str(tmp_path / "b.sqlite"))
        forward.ingest(r1), forward.ingest(r2)
        backward.ingest(r2), backward.ingest(r1)
        assert forward.dump() == backward.dump()

    def test_fraction_metric_stored_exact(self, tmp_path):
        store = RunStore(str(tmp_path / "a.sqlite"))
        rid = store.ingest(_record())
        rows = {r["name"]: r["value"]
                for r in store.children("metrics", rid)}
        assert rows["run.cycles"] == "7/2"

    def test_seed_wider_than_int64_survives_lossless(self, tmp_path):
        store = RunStore(str(tmp_path / "a.sqlite"))
        seed = 9413615461327202302  # unsigned 64-bit sha-derived
        store.ingest(_record(seed=seed))
        (run,) = store.runs_by_recency()
        assert int(run["seed"]) == seed

    def test_fresh_archive_is_created_in_one_transaction(self, tmp_path,
                                                         monkeypatch):
        """A fresh archive commits its schema once, and its schema rows
        and content equal those of one whose 13 CREATE statements ran in
        autocommit."""
        import sqlite3

        from repro.store import store as store_module

        reference = str(tmp_path / "reference.sqlite")
        conn = sqlite3.connect(reference)
        conn.executescript(store_module._SCHEMA)
        conn.close()
        statements = []
        connect = sqlite3.connect

        def tracing(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(store_module.sqlite3, "connect", tracing)
        fresh = RunStore(str(tmp_path / "fresh.sqlite"))
        fresh.ingest(_record())
        monkeypatch.undo()
        statements = [s.strip().rstrip(";") for s in statements]
        creates = [i for i, s in enumerate(statements)
                   if s.startswith("CREATE")]
        assert len(creates) == 13
        assert statements[creates[0] - 1] == "BEGIN"
        assert statements[creates[-1] + 1] == "COMMIT"
        assert "COMMIT" not in statements[creates[0]:creates[-1]]
        old = RunStore(reference)
        old.ingest(_record())

        def schema(path):
            conn = sqlite3.connect(path)
            try:
                return conn.execute(
                    "SELECT type, name, tbl_name, sql FROM sqlite_master"
                    " ORDER BY name").fetchall()
            finally:
                conn.close()

        assert schema(fresh.path) == schema(old.path)
        assert fresh.dump() == old.dump()

    def test_missing_store_raises_store_error(self, tmp_path):
        with pytest.raises(StoreError):
            RunStore(str(tmp_path / "nope.sqlite")).query("SELECT 1")

    def test_bad_sql_raises_store_error(self, tmp_path):
        store = RunStore(str(tmp_path / "a.sqlite"))
        store.ingest(_record())
        with pytest.raises(StoreError, match="bad SQL"):
            store.query("SELEC nonsense")
        with pytest.raises(StoreError, match="bad SQL"):
            store.query("DROP TABLE runs")  # read-only connection


class TestHistory:
    def _bench(self, store, secs, digest):
        payload = {
            "bench_id": "demo",
            "source_digest": digest,
            "config_digest": "c" * 16,
            "metrics": {"deterministic": {"rows": 10},
                        "timing": {"run_seconds": secs}},
        }
        store.ingest(record_from_bench(payload, "demo"))

    def test_bench_history_recency_window(self, tmp_path):
        store = RunStore(str(tmp_path / "a.sqlite"))
        for i, secs in enumerate([1.0, 1.1, 0.9, 1.05]):
            self._bench(store, secs, f"d{i}")
        history = store.bench_history("demo", last=3)
        assert [h["timing"]["run_seconds"] for h in history] == [
            1.1, 0.9, 1.05]
        assert history[0]["deterministic"] == {"rows": 10}

    def test_metric_history_spans_verbs(self, tmp_path):
        store = RunStore(str(tmp_path / "a.sqlite"))
        store.ingest(_record(metrics={"run.cycles": 100}))
        self._bench(store, 1.0, "d0")
        points = store.metric_history("run.cycles")
        assert [p["value"] for p in points] == ["100"]
        points = store.metric_history("run_seconds")
        assert [p["value"] for p in points] == ["1.0"]

    def test_median_baseline_is_per_metric_median(self):
        histories = [
            {"timing": {"s": 1.0}, "deterministic": {"rows": 10}},
            {"timing": {"s": 3.0}, "deterministic": {"rows": 10}},
            {"timing": {"s": 2.0}, "deterministic": {}},
        ]
        base = median_baseline(histories)
        assert base["metrics"]["timing"]["s"] == 2.0
        # 'rows' predates run 3: median over the runs that carry it
        assert base["metrics"]["deterministic"]["rows"] == 10

    def test_injected_20pct_regression_flagged_vs_history(self):
        """Acceptance criterion: +20% timing vs the archived median
        fails the gate at a 10% tolerance."""
        histories = [
            {"timing": {"run_seconds": s}, "deterministic": {"rows": 10}}
            for s in (1.0, 1.02, 0.98)
        ]
        regressed = {"metrics": {"deterministic": {"rows": 10},
                                 "timing": {"run_seconds": 1.20}}}
        comparison = compare_bench_history(
            histories, regressed, timing_tolerance=0.10)
        assert not comparison.ok
        assert [d.name for d in comparison.regressions] == ["run_seconds"]
        healthy = {"metrics": {"deterministic": {"rows": 10},
                               "timing": {"run_seconds": 1.01}}}
        assert compare_bench_history(
            histories, healthy, timing_tolerance=0.10).ok


class TestQueries:
    def test_canned_queries_all_execute(self, tmp_path):
        store = RunStore(str(tmp_path / "a.sqlite"))
        store.ingest(_record())
        for name in CANNED:
            columns, _ = run_query(store, name)
            assert columns, name

    def test_zero_rows_formats_cleanly(self, tmp_path):
        store = RunStore(str(tmp_path / "a.sqlite"))
        store.ingest(_record())
        columns, rows = run_query(
            store, "SELECT verb FROM runs WHERE verb = 'nope'")
        assert rows == []
        assert "(0 rows)" in format_rows(columns, rows)
