"""Golden regression suite: every figure/table vs pinned snapshots.

Each registered experiment is re-run fresh (``tiny`` profile, no cache)
and its row data compared cell-by-cell against ``tests/golden/
<exp_id>.json``.  Exact equality is required for strings, ints and
bools; floats compare within a per-column tolerance (default relative
1e-9 — the simulator is deterministic, so goldens only move when the
model changes).  Columns whose values legitimately shift with modeling
refinements can be given a looser tolerance in :data:`TOLERANCES`.

To refresh after an intentional model change::

    python -m pytest tests/integration/test_golden_figures.py \
        --update-goldens

then review the JSON diff like any other code change (see
``docs/TESTING.md``).
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.experiments import export
from repro.experiments.all import REGISTRY, run_one
from repro.sim import fastpath

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")
PROFILE = "tiny"

#: ``(exp_id, column) -> relative tolerance`` overrides.  ``exp_id`` may
#: be ``"*"`` to apply to that column everywhere.
TOLERANCES = {}
DEFAULT_REL_TOL = 1e-9

#: ``exp_id -> (column, row predicate)``: cells the golden does not pin
#: (the snapshot stores them as null).  tcb's ``repro: ... (measured)``
#: rows count this source tree's own lines, so any edit under
#: ``repro/driver`` or ``repro/workloads`` moves them; the claims rows
#: ``tcb/repro-monitor`` and ``tcb/repro-untrusted`` check them instead.
#: Every paper row stays pinned.
UNPINNED = {
    "tcb": ("loc", lambda row: row["component"].endswith("(measured)")),
}

EXP_IDS = sorted(spec.exp_id for spec in REGISTRY)


def _golden_path(exp_id: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{exp_id}.json")


def _snapshot(exp_id: str):
    """Fresh run of *exp_id*, reduced to its figure data (no metrics)."""
    results = run_one(exp_id, PROFILE)
    payloads = []
    for result in results:
        payload = export.to_dict(result)
        payload.pop("metrics", None)
        if exp_id in UNPINNED:
            column, unpinned = UNPINNED[exp_id]
            for row in payload["rows"]:
                if unpinned(row):
                    row[column] = None
        payloads.append(payload)
    return {"exp_id": exp_id, "profile": PROFILE, "results": payloads}


def _tolerance(exp_id: str, column: str) -> float:
    for key in ((exp_id, column), ("*", column)):
        if key in TOLERANCES:
            return TOLERANCES[key]
    return DEFAULT_REL_TOL


def _assert_cell(exp_id: str, result_id: str, row: int, column: str,
                 expected, actual) -> None:
    where = f"{result_id} row {row} column {column!r}"
    if isinstance(expected, float) or isinstance(actual, float):
        rel = _tolerance(exp_id, column)
        assert isinstance(actual, (int, float)), (
            f"{where}: expected a number, got {actual!r}"
        )
        assert math.isclose(float(expected), float(actual),
                            rel_tol=rel, abs_tol=rel), (
            f"{where}: {actual!r} drifted from golden {expected!r} "
            f"(rel_tol={rel})"
        )
    else:
        assert expected == actual, (
            f"{where}: {actual!r} != golden {expected!r}"
        )


@pytest.mark.parametrize("fast", (False, True), ids=("event", "fast"))
@pytest.mark.parametrize("exp_id", EXP_IDS)
def test_golden(exp_id, fast, update_goldens):
    path = _golden_path(exp_id)
    if fast:
        # The default (fast) path must reproduce every committed golden
        # byte-for-byte (same floats, same strings, same ordering).
        fresh = _snapshot(exp_id)
    else:
        with fastpath.forced(False):
            fresh = _snapshot(exp_id)
    if update_goldens:
        if fast:
            return  # goldens are written once, from the event-path leg
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(fresh, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    assert os.path.exists(path), (
        f"no golden for {exp_id}; run pytest with --update-goldens"
    )
    with open(path) as fh:
        golden = json.load(fh)

    golden_results = golden["results"]
    fresh_results = fresh["results"]
    assert [g["exp_id"] for g in golden_results] == [
        f["exp_id"] for f in fresh_results
    ]
    for gold, new in zip(golden_results, fresh_results):
        rid = gold["exp_id"]
        assert gold["title"] == new["title"]
        assert gold["columns"] == new["columns"]
        assert gold["notes"] == new["notes"], f"{rid}: notes drifted"
        assert len(gold["rows"]) == len(new["rows"]), (
            f"{rid}: row count {len(new['rows'])} != golden "
            f"{len(gold['rows'])}"
        )
        for i, (grow, nrow) in enumerate(zip(gold["rows"], new["rows"])):
            assert sorted(grow) == sorted(nrow), f"{rid} row {i}: keys drifted"
            for column in gold["columns"]:
                _assert_cell(exp_id, rid, i, column, grow[column], nrow[column])

    if fast:
        # Stronger than cell-by-cell: the rendered JSON must match the
        # committed golden file byte-for-byte.
        dumped = json.dumps(fresh, indent=2, sort_keys=True) + "\n"
        with open(path) as fh:
            assert dumped == fh.read(), (
                f"{exp_id}: fast-path snapshot is not byte-identical to "
                f"the committed golden"
            )
