"""Cold start: a CLI verb that moves no bytes never loads numpy.

numpy backs the scratchpad's payload and ID arrays, which are allocated
on first access, and the functional and attack paths.  The timing
figures and every serving verb never move a byte, so they must not pay
numpy's import.  One fresh interpreter imports ``repro.cli``, runs each
command of ``test_cli_contract``'s determinism table and the timing
verbs below through ``repro.cli.main``, and checks after each that
``numpy`` is still absent from ``sys.modules``.  ``attacks`` runs last
and must load it, which shows the probe sees the import.
"""

import json
import os
import subprocess
import sys

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
