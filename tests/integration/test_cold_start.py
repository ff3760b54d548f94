"""Cold start: each CLI verb imports only what it runs.

numpy backs the scratchpad's payload and ID arrays, which are allocated
on first access, and the functional and attack paths.  The timing
figures and every serving verb never move a byte, so they must not pay
numpy's import.  One fresh interpreter imports ``repro.cli``, runs each
command of ``test_cli_contract``'s determinism table and the timing
verbs below through ``repro.cli.main``, and checks after each that
``numpy`` is still absent from ``sys.modules``.  ``attacks`` runs last
and must load it, which shows the probe sees the import.

Likewise, ``repro`` re-exports ``SoC`` lazily and experiments are
imported when they run, so serving, reports and the Fig. 13/15 timing
figures never load the SoC, its monitor or the NoC.  The verbs that only
read the run archive load neither the serving stack nor the driver: the
parser adds the serving flags only for the verbs that take them, and
``repro.analysis`` re-exports lazily.
"""

import json
import os
import subprocess
import sys

import pytest

import repro.cli
from tests.integration.test_cli_contract import DETERMINISM, ROOT, _argv

#: Timing verbs outside the determinism table.
TIMING = [
    "experiments fig13 --profile tiny --no-cache",
    "experiments fig15 --profile tiny --no-cache",
    "run mobilenet --secure",
    "trace mobilenet -o {tmp}/trace.json",
]

PROBE = """
import json
import sys

import repro.cli

assert "numpy" not in sys.modules, "import repro.cli loaded numpy"
for argv in json.loads(sys.argv[1]):
    code = repro.cli.main(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    assert "numpy" not in sys.modules, f"{' '.join(argv)} loaded numpy"
assert repro.cli.main(["attacks"]) == 0
assert "numpy" in sys.modules, "attacks ran without loading numpy"
"""


def test_no_numpy_until_bytes_move(tmp_path):
    commands = [command for row in DETERMINISM.values() for command in row]
    argvs = [_argv(command, tmp_path) for command in commands + TIMING]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


#: Verbs that never build an SoC.
SOC_FREE = [
    "serve default --mechanism snpu --duration 300",
    "report -o {tmp}/report.html",
    "experiments fig13 --profile tiny --no-cache",
    "experiments fig15 --profile tiny --no-cache",
]

ABSENT_PROBE = """
import json
import sys

import repro.cli

packages = tuple(json.loads(sys.argv[2]))
for argv in json.loads(sys.argv[1]):
    code = repro.cli.main(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    loaded = [name for name in sys.modules if name in packages
              or name.startswith(tuple(p + "." for p in packages))]
    assert not loaded, f"{' '.join(argv)} loaded {loaded}"
"""


def _assert_never_imported(commands, packages, tmp_path):
    """Run *commands* in one fresh interpreter; none may load *packages*."""
    argvs = [_argv(command, tmp_path) for command in commands]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", ABSENT_PROBE, json.dumps(argvs),
         json.dumps(packages)],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_soc_free_verbs_never_import_the_soc(tmp_path):
    _assert_never_imported(
        SOC_FREE, ["repro.soc", "repro.monitor", "repro.noc"], tmp_path)


#: Verbs that only read the run archive.
ARCHIVE_READERS = [
    "report -o {tmp}/report.html",
    "query runs",
    "history serve.completed",
]


def test_archive_readers_never_import_serving_or_the_driver(tmp_path):
    for command in ("stats alexnet --input-size 32",
                    "serve default --mechanism snpu --duration 300"):
        assert repro.cli.main(_argv(command, tmp_path)) == 0
    _assert_never_imported(
        ARCHIVE_READERS, ["repro.serving", "repro.driver"], tmp_path)


def test_package_reexports_resolve_lazily():
    import repro
    from repro.soc import SoC

    assert repro.SoC is SoC
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
