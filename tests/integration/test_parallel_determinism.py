"""The parallel executor must be bit-identical to the serial path.

Runs a small batch twice — ``jobs=1`` and ``jobs=4`` — and asserts
row-for-row identical figure data and byte-identical ``--outdir`` trees
(figure JSON *and* telemetry snapshots), the acceptance bar for
``repro all --jobs N``.
"""

from __future__ import annotations

from repro.experiments import export
from repro.experiments.parallel import run_parallel

# Small, fast experiments with non-trivial telemetry (fig17 builds the
# flit-level NoC; tcb walks the source tree; fig14/fig16 exercise the
# scratchpad + mesh models).
IDS = ["fig14", "fig16", "fig17", "tcb"]
PROFILE = "tiny"


def _figure_data(run):
    """Rows/columns/notes per result (the metrics sit in the
    ``<exp_id>.metrics.json`` files compared byte for byte)."""
    out = []
    for outcome in run.outcomes:
        payloads = [export.to_dict(r) for r in outcome.results]
        for payload in payloads:
            payload.pop("metrics", None)
        out.append(payloads)
    return out


class TestSerialVsParallel:
    def test_jobs4_bit_identical_to_jobs1(self, tmp_path):
        serial_dir, pooled_dir = tmp_path / "serial", tmp_path / "pooled"
        serial = run_parallel(IDS, profile=PROFILE, jobs=1,
                              outdir=str(serial_dir))
        pooled = run_parallel(IDS, profile=PROFILE, jobs=4,
                              outdir=str(pooled_dir))

        assert [o.exp_id for o in serial.outcomes] == [
            o.exp_id for o in pooled.outcomes
        ]
        assert _figure_data(serial) == _figure_data(pooled)
        assert serial.outcomes[0].results[0].metrics  # telemetry captured
        assert sum(
            value
            for o in serial.outcomes
            for key, value in o.results[0].metrics.items()
            if key.startswith("noc.fabric") and key.endswith(".packets_sent")
        ) > 0

        names = sorted(path.name for path in serial_dir.iterdir())
        assert names == sorted(
            [f"{exp_id}.json" for exp_id in IDS]
            + [f"{exp_id}.metrics.json" for exp_id in IDS]
        )
        assert names == sorted(path.name for path in pooled_dir.iterdir())
        for name in names:
            assert (serial_dir / name).read_bytes() == (
                pooled_dir / name
            ).read_bytes(), name
