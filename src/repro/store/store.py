"""Persistent, queryable run archive (stdlib sqlite).

Every entry point — the experiments runner (including ``--jobs`` pool
workers, whose payloads the parent ingests), ``repro run``, ``repro
serve``, ``repro watch``, ``repro slo``, ``repro attacks``, ``repro
audit``, ``repro profile``, ``repro flows`` and the benchmark suite's
``--out`` results file — archives one :class:`RunRecord` per run into a
single sqlite file, so questions can finally be asked *across* runs
(``repro query`` / ``repro history`` / ``repro report`` / ``repro bench
diff --history``).

Determinism contract
--------------------

* The row key is content-derived: ``run_id = sha256(verb, experiment,
  NPUConfig digest, protection, seed, source digest)[:16]``.  Re-running
  the same configuration **replaces** the same row; a changed simulator
  (source digest) or modeled hardware (config digest) archives a new one.
* Every stored value is canonical TEXT (:func:`canon`): ints as decimal,
  floats via ``repr`` (shortest round-trip), exact rationals as
  ``"num/den"``, bools as ``0``/``1``.  No wall-clock, hostname or
  environment ever lands in a row, so same-seed runs produce
  **byte-identical rows** — the property ``repro report`` leans on for
  its byte-deterministic dashboard.
* Ingestion order is bookkept in a separate ``ingest_log`` table (an
  autoincrement sequence).  It feeds ``repro history`` / ``--history N``
  recency ordering and is deliberately excluded from :meth:`RunStore.dump`
  so archive *content* stays comparable across ``--jobs 1`` vs
  ``--jobs N`` and repeated runs.

The store location is ``$REPRO_STORE`` or ``~/.cache/repro/runs.sqlite``;
ingest failures never fail the verb that produced the run (one stderr
warning, exit code unchanged).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sqlite3
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import StoreError

ENV_STORE = "REPRO_STORE"
SCHEMA_VERSION = 1
_SOURCE_DIGEST: Optional[str] = None

#: Child tables whose rows ride under one ``run_id`` (name -> columns
#: after ``run_id``).  ``dump()`` and the determinism tests walk this.
CHILD_TABLES: Dict[str, Tuple[str, ...]] = {
    "metrics": ("name", "value"),
    "profile_categories": ("category", "cycles"),
    "flow_stages": ("stage", "flows", "p50", "p95", "p99"),
    "audit_summary": ("kind", "records", "denies"),
    "attacks": ("protection", "attack", "outcome", "blocked_by",
                "detection_latency"),
    "tenants": ("tenant", "n", "p50_ms", "p95_ms", "p99_ms",
                "sla_attainment"),
    "windows": ("win", "end_cycle", "payload"),
    "bench_metrics": ("name", "kind", "value"),
    "slo_alerts": ("idx", "tenant", "alert", "state", "cycle"),
    "figures": ("exp_id", "payload"),
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    verb TEXT NOT NULL,
    experiment TEXT NOT NULL,
    config_digest TEXT NOT NULL,
    protection TEXT NOT NULL,
    -- no type affinity: a seed wider than sqlite's signed 64-bit INTEGER
    -- binds as decimal text and must stay lossless, not become a REAL
    seed BLOB NOT NULL,
    source_digest TEXT NOT NULL,
    payload TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS ingest_log (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS metrics (
    run_id TEXT NOT NULL, name TEXT NOT NULL, value TEXT NOT NULL,
    PRIMARY KEY (run_id, name));
CREATE TABLE IF NOT EXISTS profile_categories (
    run_id TEXT NOT NULL, category TEXT NOT NULL, cycles TEXT NOT NULL,
    PRIMARY KEY (run_id, category));
CREATE TABLE IF NOT EXISTS flow_stages (
    run_id TEXT NOT NULL, stage TEXT NOT NULL, flows INTEGER NOT NULL,
    p50 TEXT NOT NULL, p95 TEXT NOT NULL, p99 TEXT NOT NULL,
    PRIMARY KEY (run_id, stage));
CREATE TABLE IF NOT EXISTS audit_summary (
    run_id TEXT NOT NULL, kind TEXT NOT NULL,
    records INTEGER NOT NULL, denies INTEGER NOT NULL,
    PRIMARY KEY (run_id, kind));
CREATE TABLE IF NOT EXISTS attacks (
    run_id TEXT NOT NULL, protection TEXT NOT NULL, attack TEXT NOT NULL,
    outcome TEXT NOT NULL, blocked_by TEXT NOT NULL,
    detection_latency TEXT NOT NULL,
    PRIMARY KEY (run_id, protection, attack));
CREATE TABLE IF NOT EXISTS tenants (
    run_id TEXT NOT NULL, tenant TEXT NOT NULL, n INTEGER NOT NULL,
    p50_ms TEXT NOT NULL, p95_ms TEXT NOT NULL, p99_ms TEXT NOT NULL,
    sla_attainment TEXT NOT NULL,
    PRIMARY KEY (run_id, tenant));
CREATE TABLE IF NOT EXISTS windows (
    run_id TEXT NOT NULL, win INTEGER NOT NULL, end_cycle TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_id, win));
CREATE TABLE IF NOT EXISTS bench_metrics (
    run_id TEXT NOT NULL, name TEXT NOT NULL, kind TEXT NOT NULL,
    value TEXT NOT NULL,
    PRIMARY KEY (run_id, name));
CREATE TABLE IF NOT EXISTS slo_alerts (
    run_id TEXT NOT NULL, idx INTEGER NOT NULL, tenant TEXT NOT NULL,
    alert TEXT NOT NULL, state TEXT NOT NULL, cycle TEXT NOT NULL,
    PRIMARY KEY (run_id, idx));
CREATE TABLE IF NOT EXISTS figures (
    run_id TEXT NOT NULL, exp_id TEXT NOT NULL, payload TEXT NOT NULL,
    PRIMARY KEY (run_id, exp_id));
"""


def default_store_path() -> str:
    env = os.environ.get(ENV_STORE)
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "runs.sqlite"
    )


# ----------------------------------------------------------------------
# Canonical value encoding
# ----------------------------------------------------------------------
def canon(value: Any) -> str:
    """Canonical TEXT encoding of one stored value.

    ``repr`` for floats (shortest round-trip, host-independent for the
    IEEE-754 doubles the simulator produces), ``num/den`` for exact
    rationals, decimal for ints, ``0``/``1`` for bools, empty string for
    None.  Everything else stringifies via canonical sorted-key JSON so
    dict/list values are order-independent.
    """
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    return canon_json(value)


def canon_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def numeric(text: Optional[str]) -> Optional[float]:
    """Parse a :func:`canon` value back to a float (None when it isn't
    numeric — an archived label must never masquerade as a quantity)."""
    if text is None or text == "":
        return None
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError):
        return None


def flatten_metrics(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten a telemetry snapshot to scalar leaves (dotted keys)."""
    out: Dict[str, Any] = {}

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        else:
            out[prefix] = value

    walk("", dict(snapshot or {}))
    return out


_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1


def _bind_seed(value: int) -> Any:
    """sqlite INTEGER is signed 64-bit; wider seeds (``stable_seed`` is
    an unsigned sha-derived 64-bit value) bind as their decimal text —
    same digits, and :func:`run_key` hashes the string form anyway."""
    value = int(value)
    if _INT64_MIN <= value <= _INT64_MAX:
        return value
    return str(value)


def source_digest() -> str:
    """SHA-256 over every ``.py`` file under ``src/repro`` (memoised).

    The digest covers relative path *and* content, so renames invalidate
    too.  Memoised per process: the tree cannot change underneath a
    running experiment batch.
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                digest.update(b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
                digest.update(b"\0")
        _SOURCE_DIGEST = digest.hexdigest()
    return _SOURCE_DIGEST


def config_digest() -> str:
    """SHA-256 over the paper-default NPU/NoC configuration fields."""
    from repro.npu.config import NPUConfig

    fields = dataclasses.asdict(NPUConfig.paper_default())
    payload = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_key(
    verb: str,
    experiment: str,
    config_digest: str,
    protection: str,
    seed: int,
    source_digest: str,
) -> str:
    """Content-derived run identity (the archive's primary key)."""
    digest = hashlib.sha256()
    for part in (verb, experiment, config_digest, protection, str(seed),
                 source_digest):
        digest.update(str(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# The record one run archives
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """Everything one run archives (all children optional).

    ``config_digest`` / ``source_digest`` default to the live tree's
    digests (:func:`config_digest`, :func:`source_digest`) — tests
    inject synthetic digests to archive "historical" runs.
    """

    verb: str
    experiment: str
    protection: str = ""
    seed: int = 0
    config_digest: Optional[str] = None
    source_digest: Optional[str] = None
    #: Run-level extras (profile, scenario, rps, ...): canonical JSON.
    payload: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    profile_categories: Dict[str, Any] = field(default_factory=dict)
    flow_stages: List[Dict[str, Any]] = field(default_factory=list)
    audit_summary: List[Dict[str, Any]] = field(default_factory=list)
    attacks: List[Dict[str, Any]] = field(default_factory=list)
    tenants: List[Dict[str, Any]] = field(default_factory=list)
    windows: List[Dict[str, Any]] = field(default_factory=list)
    bench: List[Dict[str, Any]] = field(default_factory=list)
    slo_alerts: List[Dict[str, Any]] = field(default_factory=list)
    figures: List[Dict[str, Any]] = field(default_factory=list)

    def digests(self) -> Tuple[str, str]:
        return (
            self.config_digest or config_digest(),
            self.source_digest or source_digest(),
        )

    @property
    def run_id(self) -> str:
        config, source = self.digests()
        return run_key(self.verb, self.experiment, config, self.protection,
                       self.seed, source)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class RunStore:
    """One sqlite archive of :class:`RunRecord` rows."""

    def __init__(self, path: Optional[str] = None):
        self.path = path or default_store_path()

    # -- connections ---------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        conn = sqlite3.connect(self.path)
        # One transaction: run in autocommit, the 13 CREATEs of a fresh
        # archive would commit (and sync) one by one.
        conn.executescript(f"BEGIN;{_SCHEMA}COMMIT;")
        conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)),
        )
        return conn

    def _connect_readonly(self) -> sqlite3.Connection:
        if not os.path.exists(self.path):
            raise StoreError(
                f"no run archive at {self.path!r} (archive a run first: "
                f"any repro verb or benchmark ingests automatically)"
            )
        return sqlite3.connect(f"file:{self.path}?mode=ro", uri=True)

    # -- write side ----------------------------------------------------
    def ingest(self, record: RunRecord) -> str:
        """Archive one run (replacing any previous same-key row).

        Child rows are deleted and re-inserted in canonical order inside
        one transaction, so a replaced run can never leave stale
        children behind and the resulting bytes depend only on the
        record's content.
        """
        config, source = record.digests()
        run_id = run_key(record.verb, record.experiment, config,
                         record.protection, record.seed, source)
        conn = self._connect()
        try:
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO runs (run_id, verb, experiment,"
                    " config_digest, protection, seed, source_digest,"
                    " payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (run_id, record.verb, record.experiment, config,
                     record.protection, _bind_seed(record.seed), source,
                     canon_json(_canon_tree(record.payload))),
                )
                for table in CHILD_TABLES:
                    conn.execute(
                        f"DELETE FROM {table} WHERE run_id = ?", (run_id,)
                    )
                self._insert_children(conn, run_id, record)
                conn.execute(
                    "INSERT INTO ingest_log (run_id) VALUES (?)", (run_id,)
                )
        finally:
            conn.close()
        return run_id

    def _insert_children(
        self, conn: sqlite3.Connection, run_id: str, record: RunRecord
    ) -> None:
        def rows(items: Iterable[Sequence[Any]], table: str) -> None:
            columns = CHILD_TABLES[table]
            placeholders = ", ".join("?" * (len(columns) + 1))
            conn.executemany(
                f"INSERT INTO {table} (run_id, {', '.join(columns)}) "
                f"VALUES ({placeholders})",
                [(run_id, *item) for item in items],
            )

        rows(sorted(
            (name, canon(value))
            for name, value in record.metrics.items()
        ), "metrics")
        rows(sorted(
            (category, canon(value))
            for category, value in record.profile_categories.items()
        ), "profile_categories")
        rows(sorted(
            (s["stage"], int(s.get("flows", 0)), canon(s.get("p50")),
             canon(s.get("p95")), canon(s.get("p99")))
            for s in record.flow_stages
        ), "flow_stages")
        rows(sorted(
            (a["kind"], int(a.get("records", 0)), int(a.get("denies", 0)))
            for a in record.audit_summary
        ), "audit_summary")
        rows(sorted(
            (a["protection"], a["attack"], canon(a.get("outcome")),
             canon(a.get("blocked_by")), canon(a.get("detection_latency")))
            for a in record.attacks
        ), "attacks")
        rows(sorted(
            (t["tenant"], int(t.get("n", 0)), canon(t.get("p50_ms")),
             canon(t.get("p95_ms")), canon(t.get("p99_ms")),
             canon(t.get("sla_attainment")))
            for t in record.tenants
        ), "tenants")
        rows(sorted(
            (int(w["window"]), canon(w.get("end_cycle")),
             canon_json(_canon_tree(w)))
            for w in record.windows
        ), "windows")
        rows(sorted(
            (b["name"], b.get("kind", "timing"), canon(b.get("value")))
            for b in record.bench
        ), "bench_metrics")
        rows(sorted(
            (int(a["idx"]), a["tenant"], a["alert"], a["state"],
             canon(a.get("cycle")))
            for a in record.slo_alerts
        ), "slo_alerts")
        rows(sorted(
            (f["exp_id"], canon_json(_canon_tree(f)))
            for f in record.figures
        ), "figures")

    # -- read side -----------------------------------------------------
    def query(
        self, sql: str, params: Sequence[Any] = ()
    ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        """Run read-only SQL; returns ``(columns, rows)``.

        Raises :class:`StoreError` on a missing store or bad SQL (the
        CLI maps both to exit 2).
        """
        conn = self._connect_readonly()
        try:
            try:
                cursor = conn.execute(sql, tuple(params))
                rows = cursor.fetchall()
            except sqlite3.Error as exc:
                raise StoreError(f"bad SQL: {exc}") from exc
            columns = [d[0] for d in cursor.description or ()]
            return columns, rows
        finally:
            conn.close()

    def runs_by_recency(self) -> List[Dict[str, Any]]:
        """Every archived run, oldest first, stamped with its latest
        ingest sequence number."""
        columns, rows = self.query(
            "SELECT il.seq, r.run_id, r.verb, r.experiment, r.protection,"
            " r.seed, r.config_digest, r.source_digest, r.payload"
            " FROM runs r JOIN (SELECT run_id, MAX(seq) AS seq"
            " FROM ingest_log GROUP BY run_id) il"
            " ON il.run_id = r.run_id ORDER BY il.seq"
        )
        return [dict(zip(columns, row)) for row in rows]

    def latest_runs(self) -> List[Dict[str, Any]]:
        """The latest run per ``(verb, experiment, protection, seed)`` —
        the "latest run set" the dashboard aggregates."""
        latest: Dict[Tuple[str, str, str, int], Dict[str, Any]] = {}
        for run in self.runs_by_recency():
            key = (run["verb"], run["experiment"], run["protection"],
                   run["seed"])
            latest[key] = run
        return sorted(latest.values(), key=lambda r: (
            r["verb"], r["experiment"], r["protection"], r["seed"]))

    def resolve_run(self, run_id: str) -> Dict[str, Any]:
        """Resolve a (possibly abbreviated) run id to its archived row.

        Raises :class:`StoreError` for an unknown or ambiguous prefix —
        the exit-2 contract ``repro diagnose`` leans on."""
        matches = [
            run for run in self.runs_by_recency()
            if run["run_id"].startswith(run_id)
        ]
        if not matches:
            raise StoreError(
                f"no archived run matches id {run_id!r} "
                f"(list candidates with: repro query runs)"
            )
        if len(matches) > 1:
            ids = ", ".join(sorted(r["run_id"][:8] for r in matches))
            raise StoreError(
                f"run id {run_id!r} is ambiguous ({len(matches)} matches: "
                f"{ids})"
            )
        return matches[0]

    def comparable_pairs(
        self,
    ) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """Archived run pairs worth diagnosing: same verb, experiment
        and seed, but a differing protection or source digest.  Order is
        deterministic (grouped by key, then protection/digest/run_id) —
        the report's comparison page and the ``diagnose-pairs`` canned
        query walk the same pairs."""
        groups: Dict[Tuple[str, str, str], List[Dict[str, Any]]] = {}
        for run in self.runs_by_recency():
            key = (run["verb"], run["experiment"], str(run["seed"]))
            groups.setdefault(key, []).append(run)
        pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        for key in sorted(groups):
            runs = sorted(groups[key], key=lambda r: (
                r["protection"], r["source_digest"], r["run_id"]))
            for i, run_a in enumerate(runs):
                for run_b in runs[i + 1:]:
                    if (run_a["protection"] != run_b["protection"]
                            or run_a["source_digest"]
                            != run_b["source_digest"]):
                        pairs.append((run_a, run_b))
        return pairs

    def children(
        self, table: str, run_id: str
    ) -> List[Dict[str, Any]]:
        """All child rows of *table* for one run, in primary-key order."""
        columns = CHILD_TABLES[table]
        _, rows = self.query(
            f"SELECT {', '.join(columns)} FROM {table}"
            f" WHERE run_id = ? ORDER BY {', '.join(columns)}",
            (run_id,),
        )
        return [dict(zip(columns, row)) for row in rows]

    def metric_history(
        self, name: str, last: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Archived values of one metric (or bench metric), oldest
        first, as ``{seq, verb, experiment, protection, seed, value}``."""
        out: List[Dict[str, Any]] = []
        for run in self.runs_by_recency():
            for table in ("metrics", "bench_metrics"):
                _, rows = self.query(
                    f"SELECT value FROM {table}"
                    f" WHERE run_id = ? AND name = ?",
                    (run["run_id"], name),
                )
                if rows:
                    out.append({
                        "seq": run["seq"],
                        "verb": run["verb"],
                        "experiment": run["experiment"],
                        "protection": run["protection"],
                        "seed": run["seed"],
                        "value": rows[0][0],
                    })
                    break
        if last is not None and last > 0:
            out = out[-last:]
        return out

    def bench_history(
        self, bench_id: str, last: Optional[int] = None
    ) -> List[Dict[str, Dict[str, float]]]:
        """The last *last* archived bench runs of *bench_id*, oldest
        first, each as ``{"deterministic": {...}, "timing": {...}}``
        metric sections (numeric values only)."""
        runs = [r for r in self.runs_by_recency()
                if r["verb"] == "bench" and r["experiment"] == bench_id]
        if last is not None and last > 0:
            runs = runs[-last:]
        out: List[Dict[str, Dict[str, float]]] = []
        for run in runs:
            sections: Dict[str, Dict[str, float]] = {
                "deterministic": {}, "timing": {},
            }
            for row in self.children("bench_metrics", run["run_id"]):
                value = numeric(row["value"])
                if value is None:
                    continue
                kind = row["kind"] if row["kind"] in sections else "timing"
                sections[kind][row["name"]] = value
            out.append(sections)
        return out

    def dump(self) -> Dict[str, Any]:
        """Canonical content view of the whole archive (tests compare
        these across ``--jobs 1`` vs ``--jobs N``).  Excludes the
        ``ingest_log`` bookkeeping, which is ordering, not content."""
        out: Dict[str, Any] = {"runs": {}}
        for run in self.runs_by_recency():
            entry = {k: v for k, v in run.items() if k != "seq"}
            for table in CHILD_TABLES:
                children = self.children(table, run["run_id"])
                if children:
                    entry[table] = children
            out["runs"][run["run_id"]] = entry
        return out


def _canon_tree(value: Any) -> Any:
    """Recursively canonicalise a JSON tree's leaves via :func:`canon`
    (numbers stay numbers; Fractions become ``num/den`` strings)."""
    if isinstance(value, dict):
        return {str(k): _canon_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon_tree(v) for v in value]
    if isinstance(value, Fraction):
        return canon(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def ingest_quietly(
    record: RunRecord, path: Optional[str] = None
) -> Optional[str]:
    """Best-effort archive: a broken store must never fail the run that
    produced the evidence (one stderr warning, verb exit code unchanged).
    """
    try:
        return RunStore(path).ingest(record)
    except Exception as exc:  # noqa: BLE001 - ingest is best-effort
        print(f"warning: run archive ingest failed: {exc}", file=sys.stderr)
        return None
