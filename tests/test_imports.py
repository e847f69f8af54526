import os
import subprocess
import sys
from pathlib import Path

import jumpscan

SRC = str(Path(jumpscan.__file__).resolve().parents[1])

GUARD = """
import sys
import jumpscan, jumpscan.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
from jumpscan import construct_beta_filter
filt, report = construct_beta_filter(2, 10)
assert report.ok, str(report)
assert filt.eval_many([0.5]).shape == (1,)
print("ok")
"""


def test_package_import_loads_no_scipy():
    # a fresh interpreter: pytest's own process has scipy loaded by other tests
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", GUARD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
