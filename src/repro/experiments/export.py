"""Export experiment results to JSON."""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.experiments.runner import ExperimentResult


def to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """A plain-JSON-serializable view of one experiment."""
    return {
        "exp_id": result.exp_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": [dict(row) for row in result.rows],
        "notes": list(result.notes),
        "metrics": dict(result.metrics),
    }


def to_json(result: ExperimentResult, indent: int = 2) -> str:
    return json.dumps(to_dict(result), indent=indent, default=str)


def write(result: ExperimentResult, path: str) -> None:
    """Write *result* to *path* as JSON."""
    with open(path, "w") as fh:
        fh.write(to_json(result))
