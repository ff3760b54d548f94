"""``repro report``: the run archive's one-page HTML dashboard.

A single self-contained HTML file (inline CSS, inline SVG sparklines,
no JavaScript, no external assets) aggregating the archive's **latest
run set**: figure status vs the committed goldens, profiler overhead
shares, per-tenant serving percentiles + SLA, SLO/sentinel alerts, the
attack verdict matrix with detection latencies, and bench trend
sparklines.

Byte-determinism contract: the dashboard is a pure function of the
archive's *content* view (:meth:`RunStore.dump` ordering — never the
ingest sequence), carries no timestamp, hostname or environment, and
formats floats via ``repr``-stable ``%g`` — so two same-seed runs of
any verb followed by ``repro report`` produce byte-identical HTML
(``tests/integration/test_cli_contract.py`` checks exactly that).
"""

from __future__ import annotations

import html
import json
import math
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.store.store import RunStore, numeric

#: Relative float tolerance when checking archived figures vs goldens
#: (same bar as tests/integration/test_golden_figures.py).
GOLDEN_REL_TOL = 1e-9

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --status-good: #0ca30c;
  --status-critical: #d03b3b;
  --status-warning: #fab219;
  --border: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
    --border: rgba(255,255,255,0.10);
  }
}
body {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px; line-height: 1.45;
}
main { max-width: 980px; margin: 0 auto; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 14px; margin: 18px 0 6px; }
ul.verdicts { margin: 6px 0 0; padding-left: 20px; font-size: 13px; }
ul.verdicts li { margin: 2px 0; }
p.sub { color: var(--text-secondary); margin: 0 0 16px; }
section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; margin-bottom: 16px;
}
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td {
  text-align: left; padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--text-secondary); font-weight: 600; }
td.num, th.num { text-align: right; }
.status { font-weight: 600; }
.status.ok { color: var(--status-good); }
.status.fail { color: var(--status-critical); }
.status.warn { color: var(--text-secondary); }
.empty { color: var(--muted); font-size: 13px; }
svg.spark { vertical-align: middle; }
svg.spark polyline {
  fill: none; stroke: var(--series-1); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round;
}
svg.spark line { stroke: var(--baseline); stroke-width: 1; }
svg.spark circle { fill: var(--series-1); }
.share-bar { height: 10px; }
.share-bar rect.track { fill: var(--grid); }
.share-bar rect.fill { fill: var(--series-1); }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any) -> str:
    number = numeric(value) if isinstance(value, str) else value
    if number is None:
        return "-" if value in (None, "") else _esc(value)
    if isinstance(number, float) and number == int(number) \
            and abs(number) < 1e15:
        return f"{int(number):,}"
    return f"{number:,.4g}" if isinstance(number, float) else f"{number:,}"


def _table(
    columns: Sequence[Tuple[str, bool]], rows: List[Sequence[str]]
) -> str:
    """(header, numeric?) columns + pre-escaped cell strings -> <table>."""
    head = "".join(
        f'<th class="num">{_esc(name)}</th>' if num else f"<th>{_esc(name)}</th>"
        for name, num in columns
    )
    body = []
    for row in rows:
        cells = "".join(
            f'<td class="num">{cell}</td>' if num else f"<td>{cell}</td>"
            for cell, (_, num) in zip(row, columns)
        )
        body.append(f"<tr>{cells}</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


def _status(kind: str, label: str) -> str:
    return f'<span class="status {kind}">{_esc(label)}</span>'


def _empty(text: str) -> str:
    return f'<p class="empty">{_esc(text)}</p>'


def sparkline(values: List[float], width: int = 120, height: int = 28) -> str:
    """Single-series inline-SVG sparkline (series-1 hue, no legend —
    the row label names it; last point marked)."""
    if len(values) < 2:
        return '<span class="empty">n/a</span>'
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pad = 3.0
    points = []
    for i, value in enumerate(values):
        x = pad + i * (width - 2 * pad) / (len(values) - 1)
        y = height - pad - (value - lo) * (height - 2 * pad) / span
        points.append(f"{x:.1f},{y:.1f}")
    last_x, last_y = points[-1].split(",")
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="trend over {len(values)} runs">'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}"/>'
        f'<polyline points="{" ".join(points)}"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="2.5"/></svg>'
    )


def share_bar(share: float, width: int = 120) -> str:
    filled = max(0.0, min(1.0, share)) * width
    return (
        f'<svg class="share-bar" width="{width}" height="10" '
        f'viewBox="0 0 {width} 10" role="img" '
        f'aria-label="{share:.1%} share">'
        f'<rect class="track" x="0" y="2" width="{width}" height="6" rx="3"/>'
        f'<rect class="fill" x="0" y="2" width="{filled:.1f}" height="6" '
        f'rx="3"/></svg>'
    )


# ----------------------------------------------------------------------
# Golden comparison
# ----------------------------------------------------------------------
def default_goldens_dir() -> Optional[str]:
    path = os.path.join(os.getcwd(), "tests", "golden")
    return path if os.path.isdir(path) else None


def _close(expected: Any, actual: Any) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(expected, (int, float)) \
                or not isinstance(actual, (int, float)):
            return False
        return math.isclose(float(expected), float(actual),
                            rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_REL_TOL)
    if isinstance(expected, dict) and isinstance(actual, dict):
        return set(expected) == set(actual) and all(
            _close(expected[k], actual[k]) for k in expected
        )
    if isinstance(expected, list) and isinstance(actual, list):
        return len(expected) == len(actual) and all(
            _close(e, a) for e, a in zip(expected, actual)
        )
    return expected == actual


def golden_status(
    figure: Dict[str, Any], goldens_dir: Optional[str]
) -> Tuple[str, str]:
    """(css-kind, label) verdict of one archived figure vs its golden."""
    exp_id = figure.get("exp_id", "?")
    if not goldens_dir:
        return "warn", "no goldens dir"
    path = os.path.join(goldens_dir, f"{exp_id}.json")
    if not os.path.exists(path):
        return "warn", "no golden"
    try:
        with open(path) as fh:
            golden = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return "warn", "unreadable golden"
    if golden.get("profile") != figure.get("profile"):
        return "warn", (
            f"profile mismatch (archived {figure.get('profile')!r}, "
            f"golden {golden.get('profile')!r})"
        )
    if _close(golden.get("results"), figure.get("results")):
        return "ok", "ok"
    return "fail", "FAIL vs golden"


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _section(title: str, sub: str, body: str) -> str:
    return (
        f"<section><h2>{_esc(title)}</h2>"
        f'<p class="sub">{_esc(sub)}</p>{body}</section>'
    )


def _runs_of(latest: List[Dict[str, Any]], verb: str) -> List[Dict[str, Any]]:
    return [run for run in latest if run["verb"] == verb]


def _figures_section(
    store: RunStore, latest: List[Dict[str, Any]],
    goldens_dir: Optional[str],
) -> str:
    rows = []
    for run in _runs_of(latest, "experiment"):
        for child in store.children("figures", run["run_id"]):
            try:
                figure = json.loads(child["payload"])
            except json.JSONDecodeError:
                continue
            payload = json.loads(run["payload"])
            figure.setdefault("profile", payload.get("profile"))
            kind, label = golden_status(figure, goldens_dir)
            results = figure.get("results") or []
            n_rows = sum(len(r.get("rows", [])) for r in results)
            rows.append((
                _esc(child["exp_id"]),
                _esc(figure.get("profile", "-")),
                _fmt(len(results)),
                _fmt(n_rows),
                _status(kind, label),
            ))
    if not rows:
        body = _empty("no archived experiment runs "
                      "(repro experiments <id> ingests them)")
    else:
        body = _table(
            [("experiment", False), ("profile", False), ("figures", True),
             ("rows", True), ("status vs golden", False)],
            sorted(rows),
        )
    return _section(
        "Figure status", "latest archived registry experiments vs the "
        "committed goldens (rel tol 1e-9)", body,
    )


def _category_root(name: str) -> str:
    return name.split(".", 1)[0]


def _profile_section(
    store: RunStore, latest: List[Dict[str, Any]]
) -> str:
    rows = []
    for run in _runs_of(latest, "profile"):
        categories = store.children("profile_categories", run["run_id"])
        roots: Dict[str, float] = {}
        total = 0.0
        for child in categories:
            value = numeric(child["cycles"]) or 0.0
            roots[_category_root(child["category"])] = (
                roots.get(_category_root(child["category"]), 0.0) + value
            )
            total += value
        for root in sorted(roots):
            share = roots[root] / total if total else 0.0
            rows.append((
                _esc(run["experiment"]),
                _esc(run["protection"]),
                _esc(root),
                _fmt(roots[root]),
                f"{share_bar(share)} {share:.1%}",
            ))
    if not rows:
        body = _empty("no archived profiles (repro profile ingests them)")
    else:
        body = _table(
            [("task", False), ("protection", False), ("category", False),
             ("cycles", True), ("share of total", False)],
            rows,
        )
    return _section(
        "Profiler overhead shares", "cycle attribution rolled up to "
        "category roots, per latest archived profile", body,
    )


def _serving_section(
    store: RunStore, latest: List[Dict[str, Any]]
) -> str:
    rows = []
    for run in _runs_of(latest, "serve"):
        for tenant in store.children("tenants", run["run_id"]):
            attainment = numeric(tenant["sla_attainment"])
            if attainment is None:
                sla = _status("warn", "0/0")
            elif attainment >= 1.0:
                sla = _status("ok", "100% ok")
            else:
                sla = _status(
                    "fail" if attainment < 0.9 else "warn",
                    f"{attainment:.1%}",
                )
            rows.append((
                _esc(run["experiment"]),
                _fmt(run["seed"]),
                _esc(tenant["tenant"]),
                _fmt(tenant["n"]),
                _fmt(tenant["p50_ms"]),
                _fmt(tenant["p95_ms"]),
                _fmt(tenant["p99_ms"]),
                sla,
            ))
    if not rows:
        body = _empty("no archived serving runs (repro serve ingests them)")
    else:
        body = _table(
            [("scenario:mechanism:policy", False), ("seed", True),
             ("tenant", False), ("n", True), ("p50 ms", True),
             ("p95 ms", True), ("p99 ms", True), ("SLA", False)],
            rows,
        )
    return _section(
        "Serving percentiles + SLA", "per-tenant latency distribution of "
        "the latest archived run per scenario", body,
    )


def _alerts_section(
    store: RunStore, latest: List[Dict[str, Any]]
) -> str:
    rows = []
    for run in _runs_of(latest, "slo"):
        for alert in store.children("slo_alerts", run["run_id"]):
            state = alert["state"]
            kind = "ok" if state == "RESOLVED" else "fail"
            rows.append((
                _esc(run["experiment"]),
                _esc(alert["tenant"]),
                _esc(alert["alert"]),
                _status(kind, state),
                _fmt(alert["cycle"]),
            ))
    for run in _runs_of(latest, "attacks"):
        for attack in store.children("attacks", run["run_id"]):
            latency = numeric(attack["detection_latency"])
            if latency is None:
                continue
            rows.append((
                _esc(f"attack:{attack['protection']}"),
                _esc(attack["attack"]),
                "sentinel",
                _status("ok", "DETECTED"),
                _fmt(latency),
            ))
    if not rows:
        body = _empty("no archived SLO runs or detected attacks")
    else:
        body = _table(
            [("source", False), ("subject", False), ("alert", False),
             ("state", False), ("cycle", True)],
            rows,
        )
    return _section(
        "SLO + sentinel alerts", "burn-rate transitions, static-ceiling "
        "breaches, and sentinel detections (cycle-stamped)", body,
    )


def _attacks_section(
    store: RunStore, latest: List[Dict[str, Any]]
) -> str:
    rows = []
    for run in _runs_of(latest, "attacks"):
        for attack in store.children("attacks", run["run_id"]):
            leaked = attack["outcome"] == "leaked"
            latency = numeric(attack["detection_latency"])
            rows.append((
                _esc(attack["protection"]),
                _esc(attack["attack"]),
                _status("fail" if leaked else "ok",
                        "SECRET LEAKED" if leaked else "blocked"),
                _esc(attack["blocked_by"] or "-"),
                _fmt(latency) if latency is not None
                else '<span class="empty">undetected</span>',
            ))
    if not rows:
        body = _empty("no archived attack runs (repro attacks ingests them)")
    else:
        body = _table(
            [("protection", False), ("attack", False), ("verdict", False),
             ("blocked by", False), ("detection +cycles", True)],
            rows,
        )
    return _section(
        "Attack verdict matrix", "latest archived attack sweep; every "
        "blocked verdict is corroborated by audit-ledger records", body,
    )


def _bench_section(store: RunStore) -> str:
    # Trends want *history*, not just the latest run set: collect every
    # archived bench run per bench_id in ingest order.
    by_metric: Dict[Tuple[str, str], List[float]] = {}
    for run in store.runs_by_recency():
        if run["verb"] != "bench":
            continue
        for child in store.children("bench_metrics", run["run_id"]):
            value = numeric(child["value"])
            if value is None:
                continue
            key = (run["experiment"], child["name"])
            by_metric.setdefault(key, []).append(value)
    rows = []
    for (bench_id, name) in sorted(by_metric):
        values = by_metric[(bench_id, name)]
        first, latest_v = values[0], values[-1]
        drift = ((latest_v - first) / first * 100.0) if first else 0.0
        rows.append((
            _esc(bench_id),
            _esc(name),
            _fmt(latest_v),
            sparkline(values),
            f"{drift:+.1f}% over {len(values)} runs" if len(values) > 1
            else "single run",
        ))
    if not rows:
        body = _empty("no archived benchmarks "
                      "(benchmarks/bench_*.py ingest them)")
    else:
        body = _table(
            [("bench", False), ("metric", False), ("latest", True),
             ("trend", False), ("drift", False)],
            rows,
        )
    return _section(
        "Bench trends", "every archived benchmark metric across run "
        "history (oldest to latest)", body,
    )


#: Without ``--compare``, the comparison page renders at most this many
#: auto-discovered pairs (comparable_pairs order is deterministic, so
#: the cap always keeps the same ones).
MAX_COMPARISONS = 4


def _diagnosis_block(diagnosis: Any) -> str:
    """One diagnosis as an HTML sub-block (heading, exact-parts table,
    verdict list) — byte-deterministic because the diagnosis itself is."""
    rows = []
    for part in diagnosis.ranked():
        share = diagnosis.share(part)
        if share is None:
            share_cell = "-"
        else:
            share_cell = f"{share_bar(abs(float(share)))} {float(share):+.1%}"
        rows.append((
            _esc(part.name),
            _fmt(float(part.a)),
            _fmt(float(part.b)),
            _fmt(float(part.delta)),
            share_cell,
        ))
    table = _table(
        [("part", False), ("a", True), ("b", True), ("delta", True),
         ("share of delta", False)],
        rows,
    )
    delta = diagnosis.total_delta
    total_a = diagnosis.total_a
    pct = f" ({float(delta / total_a):+.1%})" if total_a else ""
    verdicts = "".join(
        f"<li>{_esc(v)}</li>" for v in diagnosis.verdicts()
    )
    return (
        f"<h3>{_esc(diagnosis.label_a)} vs {_esc(diagnosis.label_b)}</h3>"
        f'<p class="sub">{_esc(diagnosis.kind)} delta '
        f"{_fmt(float(total_a))} -&gt; {_fmt(float(diagnosis.total_b))} "
        f"{_esc(diagnosis.unit)}: {_fmt(float(delta))}{_esc(pct)} · "
        "parts sum exactly to the end-to-end delta</p>"
        f"{table}<ul class=\"verdicts\">{verdicts}</ul>"
    )


def _comparison_section(
    store: RunStore, compare: Optional[Sequence[str]] = None
) -> str:
    # Lazy: the diagnosis engine imports the analysis layer, which the
    # rest of the dashboard doesn't need.
    from repro.analysis.diagnose import diagnose_archived
    from repro.errors import StoreError

    if compare:
        pairs = [(compare[0], compare[1])]
        sub = "pinned pair (repro report --compare RUN_A RUN_B)"
    else:
        pairs = [
            (a["run_id"], b["run_id"])
            for a, b in store.comparable_pairs()[:MAX_COMPARISONS]
        ]
        sub = (
            "auto-discovered archived pairs (same verb, experiment and "
            f"seed; differing protection or source), first {MAX_COMPARISONS}"
        )
    blocks = []
    for id_a, id_b in pairs:
        try:
            diagnosis = diagnose_archived(store, id_a, id_b)
        except StoreError as exc:
            blocks.append(_empty(f"{id_a[:8]} vs {id_b[:8]}: {exc}"))
            continue
        blocks.append(_diagnosis_block(diagnosis))
    if not blocks:
        blocks.append(_empty(
            "no comparable run pairs (archive the same experiment under "
            "two protections, or pin ids with --compare)"
        ))
    return _section(
        "Run comparison", sub + " · exact delta attribution, ranked by "
        "|delta| (repro diagnose renders the same decomposition)",
        "".join(blocks),
    )


# ----------------------------------------------------------------------
def build_report(
    store: RunStore, goldens_dir: Optional[str] = None,
    compare: Optional[Sequence[str]] = None,
) -> str:
    """Render the full dashboard (raises StoreError on a missing store)."""
    latest = store.latest_runs()
    sections = [
        _figures_section(store, latest, goldens_dir),
        _profile_section(store, latest),
        _serving_section(store, latest),
        _alerts_section(store, latest),
        _attacks_section(store, latest),
        _bench_section(store),
        _comparison_section(store, compare),
    ]
    n_runs = len(store.runs_by_recency())
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        "<title>repro run archive</title>"
        f"<style>{_CSS}</style></head><body><main>"
        "<h1>repro run archive</h1>"
        f'<p class="sub">{n_runs} archived run'
        f'{"s" if n_runs != 1 else ""} · latest run set per '
        "(verb, experiment, protection, seed) · content-addressed, "
        "timestamp-free</p>"
        f"{''.join(sections)}"
        "</main></body></html>\n"
    )
