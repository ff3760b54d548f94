"""The BENCH results writer behind ``benchmarks/suite/run.py --out``.

Every payload gets the same stamps (``bench_id``, ``timestamp``,
``cpu_count``, and the NPUConfig/source digests the run store's run ids
hash, so a BENCH file pins exactly which simulator produced it), the
same serialization (sorted keys, trailing newline), and is archived
into the persistent run store (:mod:`repro.store`) so ``repro bench
diff --history N``, ``repro history`` and the ``repro report``
sparklines can gate against the trajectory, not just one committed
baseline.

The wall-clock stamp lives only in the *file* (a human-facing artifact);
the archived rows are content-derived and carry no timestamp, so the
store's byte-determinism contract holds.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict

from repro.store import ingest_quietly
from repro.store.ingest import record_from_bench
from repro.store.store import config_digest, source_digest


def write_bench(bench_id: str, payload: Dict[str, Any], out_path: str) -> str:
    """Stamp *payload*, write it to *out_path* and archive it.

    *payload* carries the benchmark's own fields (``benchmark`` title,
    parameters, and the two-section ``metrics`` block that
    :func:`repro.telemetry.regression.metric_sections` reads).  Returns
    *out_path*.
    """
    stamped = dict(payload)
    stamped["bench_id"] = bench_id
    stamped["timestamp"] = time.strftime(
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
    )
    stamped["cpu_count"] = os.cpu_count()
    stamped["config_digest"] = config_digest()
    stamped["source_digest"] = source_digest()
    with open(out_path, "w") as fh:
        json.dump(stamped, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ingest_quietly(record_from_bench(stamped, bench_id))
    return out_path
