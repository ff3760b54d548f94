"""The CLI contract as two tables, run in-process through ``repro.cli.main``.

* Determinism: a row's commands run in order, twice.  Every output (the
  exit code, stdout, stderr and each file named by ``-o`` or
  ``--trace``) is byte-identical across the two passes, and the second
  pass leaves the run archive (``RunStore().dump()``) unchanged.
* Exit codes: 0 ok, 1 the verdict failed, 2 unusable input, 3 an
  internal invariant broke (README, "Install & run").  Codes 2 and 3
  print exactly one stderr line, starting with ``error:``; no row ever
  ends in a traceback.

In a command, ``{tmp}`` is the test's temporary directory and ``{root}``
the repository root; commands split like a shell line, so a quoted
argument may hold spaces.
"""

from __future__ import annotations

import json
import shlex
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import main
from repro.errors import DiagnosisError, ReconciliationError
from repro.store import RunStore

ROOT = Path(__file__).resolve().parents[2]

#: The commands of the serve, watch, report, diagnose and cluster smoke
#: checks, each row in the order a user would run them.  (Re-archiving
#: a run moves it to the newest ``seq``, so ``query`` and ``history``,
#: which print ``seq``, are exit rows instead.)
DETERMINISM = {
    "serve": [
        "serve default --mechanism snpu --duration 300 --format json "
        "-o {tmp}/default-snpu.json --trace {tmp}/default-snpu-trace.json",
        "serve default --mechanism flush-tile --duration 300 --format json "
        "-o {tmp}/default-flush-tile.json",
        "serve secure-heavy --mechanism partition --duration 300 "
        "--format table",
    ],
    "watch": [
        "watch nlp-mix --seed 7 -o {tmp}/watch.txt",
        "watch nlp-mix --seed 7 --format json -o {tmp}/watch.json",
        "slo nlp-mix --spec {root}/specs/nlp-mix.slo.json --seed 7 "
        "-o {tmp}/slo-verdict.txt",
    ],
    "report": [
        "stats alexnet --input-size 32",
        "profile mobilenet --protection snpu --input-size 64 "
        "-o {tmp}/profile.txt",
        "profile mobilenet --protection trustzone --input-size 64 "
        "--format json -o {tmp}/profile.json",
        "profile mobilenet --protection trustzone --input-size 64 "
        "--format md -o {tmp}/profile.md",
        "serve nlp-mix --mechanism snpu --duration 300 -o {tmp}/serve.txt",
        "report -o {tmp}/report.html",
    ],
    "diagnose": [
        "diagnose mobilenet --a none --b trustzone --input-size 64 "
        "--format json -o {tmp}/diagnosis.json",
        "profile mobilenet --protection none --input-size 64 "
        "-o {tmp}/none.txt",
        "profile mobilenet --protection trustzone --input-size 64 "
        "-o {tmp}/trustzone.txt",
        "query diagnose-pairs",
        "report -o {tmp}/report.html",
    ],
    "cluster": [
        "serve default --workers 4 --requests 100000 --detail 400 --seed 0 "
        "--format json -o {tmp}/cluster.json",
    ],
}


def _argv(command: str, tmp: Path):
    return shlex.split(command.format(tmp=tmp, root=ROOT))


def _run(argv, capsys):
    """Exit code, (stdout, stderr) and the bytes of every file written."""
    code = main(argv)
    files = [Path(argv[i + 1]).read_bytes()
             for i, arg in enumerate(argv) if arg in ("-o", "--trace")]
    return code, capsys.readouterr(), files


@pytest.mark.parametrize("commands", DETERMINISM.values(),
                         ids=DETERMINISM.keys())
def test_double_run_is_byte_identical(commands, tmp_path, capsys):
    passes = []
    for _ in range(2):
        outputs = [_run(_argv(command, tmp_path), capsys)
                   for command in commands]
        passes.append((outputs, RunStore().dump()))
    assert [code for code, _, _ in passes[0][0]] == [0] * len(commands)
    assert passes[1] == passes[0]


#: A spec no run can meet: a chat p99 ceiling of 1 us.
BREACHING_SPEC = {
    "name": "impossible", "scenario": "nlp-mix",
    "window_ms": 50.0, "fast_windows": 1, "slow_windows": 2,
    "burn_threshold": 0.001,
    "objectives": [{"tenant": "chat", "p99_ms": 0.001, "sla_target": 0.999}],
}


def _bench(cycles: float) -> dict:
    return {"metrics": {"deterministic": {"resnet.snpu.cycles": cycles},
                        "timing": {"host_seconds": 0.5}}}


def _write_inputs(tmp: Path) -> None:
    """The input files the exit rows name."""
    (tmp / "list.json").write_text("[1, 2, 3]")
    (tmp / "bad.json").write_text("{not json")
    (tmp / "regular").write_text("a regular file, not a directory")
    (tmp / "breaching.slo.json").write_text(json.dumps(BREACHING_SPEC))
    (tmp / "old.json").write_text(json.dumps(_bench(4_000_000.0)))
    (tmp / "new.json").write_text(json.dumps(_bench(4_800_000.0)))
    (tmp / "stamped.json").write_text(
        json.dumps({"bench_id": "demo", **_bench(4_000_000.0)}))
    (tmp / "flat.json").write_text(
        json.dumps({"benchmark": "x", "wall_seconds": 1.0}))
    (tmp / "boom.py").write_text("raise RuntimeError('kaput')\n")
    (tmp / "notpy.txt").write_text("this is not python at all {{{\n")


def _row(row_id, command, code, fragment, *, before=None, fault=None):
    """One exit row.  *fragment* must appear in the error line (codes 2
    and 3) or on stdout (0 and 1); *before* runs first and must exit 0;
    *fault* is a (dotted name, error) pair patched in to raise."""
    return pytest.param(command, code, fragment, before, fault, id=row_id)


EXITS = [
    # The verdict, unchanged by the contract.
    _row("slo-committed-spec-holds",
         "slo nlp-mix --spec {root}/specs/nlp-mix.slo.json --duration 400 "
         "--seed 7", 0, "OK"),
    _row("slo-breach",
         "slo nlp-mix --spec {tmp}/breaching.slo.json --duration 200 "
         "--seed 7", 1, "BREACHED"),
    _row("bench-20pct-cycle-regression",
         "bench diff {tmp}/old.json {tmp}/new.json", 1, "REGRESSED"),
    _row("query-runs-on-archive", "query runs", 0, "alexnet:32",
         before="stats alexnet --input-size 32"),
    _row("query-p99-by-tenant-on-archive", "query p99-by-tenant", 0,
         "(3 rows)",
         before="serve nlp-mix --mechanism snpu --duration 300 "
                "-o {tmp}/serve.txt"),
    # Unusable input: a ConfigError or AllocationError.
    _row("serve-negative-rps", "serve default --rps -1", 2,
         "rps must be non-negative"),
    _row("serve-zero-duration", "serve default --duration 0", 2,
         "duration_ms must be positive"),
    _row("serve-zero-workers", "serve default --workers 0", 2,
         "workers must be >= 1"),
    _row("serve-negative-detail",
         "serve default --workers 2 --requests 1000 --detail -5", 2,
         "detail_ms must be positive"),
    _row("serve-cluster-trace",
         "serve default --workers 2 --requests 1000 --detail 100 "
         "--trace {tmp}/t.json", 2, "--trace needs the single-NPU path"),
    _row("serve-autoscale-trace",
         "serve default --autoscale 2 --trace {tmp}/t.json", 2,
         "--trace needs the single-NPU path"),
    _row("watch-zero-window", "watch nlp-mix --window 0", 2,
         "window_ms must be positive"),
    _row("run-zero-input-size", "run resnet --input-size 0", 2,
         "too small"),
    _row("models-zero-input-size", "models --input-size 0", 2,
         "too small"),
    _row("run-bert-secure-exceeds-cma", "run bert --secure", 2,
         "out of memory"),
    _row("run-unknown-model", "run lenet", 2, "unknown model 'lenet'"),
    _row("disasm-unknown-model", "disasm lenet", 2, "unknown model 'lenet'"),
    _row("profile-unknown-model", "profile nonesuch", 2,
         "unknown model 'nonesuch'"),
    _row("stats-unknown-model", "stats nonesuch", 2,
         "unknown model 'nonesuch'"),
    _row("flows-unknown-model", "flows nonesuch", 2,
         "unknown model 'nonesuch'"),
    _row("diagnose-unknown-protection", "diagnose resnet --a warp9 --b snpu",
         2, "unknown protection 'warp9'"),
    _row("audit-unknown-protection", "audit warp9", 2,
         "unknown protection 'warp9'"),
    _row("stats-unknown-format",
         "stats alexnet --input-size 32 --format bogus", 2,
         "unknown format 'bogus'"),
    # Unusable input: a trace script that is missing, fails or is not
    # Python.
    _row("trace-missing-script", "trace {tmp}/does/not/exist.py", 2,
         "no such script"),
    _row("trace-failing-script", "trace {tmp}/boom.py --out {tmp}/t.json",
         2, "RuntimeError: kaput"),
    _row("trace-non-python-script", "trace {tmp}/notpy.txt", 2,
         "must be a .py script or a model name"),
    _row("experiments-unknown-id", "experiments fig99", 2, "cluster-sweep"),
    _row("experiments-all-with-unknown-id",
         'experiments all fig99 --profile tiny --outdir ""', 2,
         "unknown experiment 'fig99'"),
    # Unusable input: a BENCH file that is missing, not a JSON object or
    # not a two-section payload, one without a bench_id stamp under
    # --history (old.json has none), or a lone file without --history.
    _row("bench-diff-missing-file",
         "bench diff {tmp}/old.json {tmp}/nope.json", 2,
         "cannot read bench file"),
    _row("bench-diff-invalid-json",
         "bench diff {tmp}/old.json {tmp}/bad.json", 2,
         "cannot read bench file"),
    _row("bench-diff-list-file", "bench diff {tmp}/list.json {tmp}/list.json",
         2, "not a JSON object"),
    _row("bench-history-list-file", "bench diff {tmp}/list.json --history 2",
         2, "not a JSON object"),
    _row("diagnose-history-list-file", "diagnose {tmp}/list.json --history 2",
         2, "not a JSON object"),
    _row("bench-diff-flat-file", "bench diff {tmp}/flat.json {tmp}/flat.json",
         2, "not a two-section BENCH payload"),
    _row("diagnose-history-flat-file", "diagnose {tmp}/flat.json --history 3",
         2, "flat.json' is not a two-section BENCH payload"),
    _row("bench-history-unstamped-file",
         "bench diff {tmp}/old.json --history 3", 2,
         'old.json\' has no "bench_id" field'),
    _row("bench-one-file-without-history", "bench diff {tmp}/stamped.json",
         2, "needs two files, or one file with --history N"),
    _row("diagnose-bench-file-without-history",
         "diagnose {tmp}/stamped.json", 2, "needs --history N"),
    # Unusable input: an output path that cannot be written (OSError).
    _row("serve-out-missing-dir",
         "serve default --duration 50 -o {tmp}/missing/x.json", 2,
         "No such file or directory"),
    _row("trace-out-missing-dir", "trace -o {tmp}/missing/t.json mobilenet",
         2, "No such file or directory"),
    _row("report-out-missing-dir", "report -o {tmp}/missing/r.html", 2,
         "No such file or directory",
         before="stats alexnet --input-size 32"),
    _row("experiments-outdir-under-file",
         "experiments fig16 --profile tiny --outdir {tmp}/regular/sub", 2,
         "Not a directory"),
    _row("disasm-negative-limit", "disasm yololite --limit -1", 2, "--limit"),
    _row("experiments-zero-jobs",
         'experiments fig16 --profile tiny --outdir "" --jobs 0', 2,
         "--jobs must be >= 1"),
    _row("audit-negative-jobs", "audit --jobs -2 --format summary", 2,
         "--jobs must be >= 1"),
    _row("flows-negative-top", "flows yololite --top -3 --input-size 32", 2,
         "--top must be >= 1"),
    _row("profile-negative-top", "profile yololite --host --top -2", 2,
         "--top must be >= 1"),
    # Unusable input: an SLO spec that cannot be read or names another
    # scenario (a config error, not a breach).
    _row("slo-unreadable-spec",
         "slo nlp-mix --spec {tmp}/bad.json --duration 200", 2,
         "cannot read SLO spec"),
    _row("slo-scenario-mismatch",
         "slo default --spec {root}/specs/nlp-mix.slo.json --duration 200",
         2, "targets scenario"),
    # Unusable input: a live diagnosis without its two sides, or of an
    # unknown target.
    _row("diagnose-missing-sides", "diagnose mobilenet", 2,
         "takes two archived run ids"),
    _row("diagnose-unknown-target", "diagnose nonesuch --a none --b snpu", 2,
         "unknown diagnose target"),
    # Unusable input: no run archive yet, a metric no archived run
    # carries, or SQL the archive refuses.
    _row("report-without-store", "report -o {tmp}/r.html", 2,
         "no run archive"),
    _row("query-without-store", "query runs", 2, "no run archive"),
    _row("bench-history-without-store",
         "bench diff {tmp}/stamped.json --history 3", 2, "no run archive"),
    _row("diagnose-pair-without-store", "diagnose aaaa bbbb", 2,
         "no run archive"),
    _row("history-absent-metric", "history no.such.metric", 2,
         "carry metric 'no.such.metric'",
         before="stats alexnet --input-size 32"),
    _row("query-bad-sql", 'query "SELEC nonsense"', 2, "bad SQL",
         before="stats alexnet --input-size 32"),
    _row("query-write-sql-rejected", 'query "DROP TABLE runs"', 2,
         "bad SQL", before="stats alexnet --input-size 32"),
    # An internal invariant broke.
    _row("slo-reconciliation-error",
         "slo nlp-mix --spec {root}/specs/nlp-mix.slo.json --duration 200",
         3, "do not reconcile",
         fault=("repro.telemetry.slo.evaluate",
                ReconciliationError("windows do not reconcile"))),
    _row("diagnose-inexact-parts",
         "diagnose mobilenet --a none --b trustzone --input-size 64 "
         "--analytic", 3, "parts do not sum",
         fault=("repro.analysis.diagnose.diagnose_profiles",
                DiagnosisError("parts do not sum to the delta"))),
]


@pytest.mark.parametrize("command, code, fragment, before, fault", EXITS)
def test_exit_code(command, code, fragment, before, fault, tmp_path,
                   monkeypatch, capsys):
    _write_inputs(tmp_path)
    if before:
        assert main(_argv(before, tmp_path)) == 0
    if fault:
        monkeypatch.setattr(fault[0], mock.Mock(side_effect=fault[1]))
    capsys.readouterr()
    assert main(_argv(command, tmp_path)) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    lines = err.splitlines()
    if code >= 2:
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert fragment in lines[0]
    else:
        assert not any(line.startswith("error:") for line in lines), err
        assert fragment in out
