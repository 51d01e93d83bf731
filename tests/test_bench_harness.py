"""The benchmark harness's own tests, run as part of the main suite.

`bench/run.set_up` purges `stabkit` from `sys.modules` to load a fresh copy,
so the harness tests run in their own interpreter.  They pin what the harness
reads of the package: the positional `smith_normal_form` arguments that
`bench/layertrace` forwards, and the module bindings it rebinds.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_bench_harness_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/test_bench.py"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
