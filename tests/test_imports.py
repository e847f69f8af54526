import os
import subprocess
import sys
from pathlib import Path

import jumpscan

SRC = str(Path(jumpscan.__file__).resolve().parents[1])

GUARD = """
import sys

import numpy as np
import jumpscan, jumpscan.cli
from jumpscan import ScaleConfig, construct_beta_filter, detect_pipeline, verify_order

loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded


class NoScipy:
    # from here on the interpreter behaves as if scipy were not installed
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")


sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise AssertionError("scipy is importable inside the guard")

filt, report = construct_beta_filter(2, 30)
assert report.ok, str(report)
assert abs(filt.moments().f0 - 1.0) < 1e-12
assert verify_order(filt, 2).ok
assert abs(filt.antideriv01(np.array(1.0)) - 1.0) < 1e-12
assert filt.eval_many([0.5]).shape == (1,)
n = 500
y = 4.0 * ((np.arange(n) + 1) / n > 0.5) + np.random.default_rng(2).standard_normal(n)
res = detect_pipeline(y, ScaleConfig(s_lower=0.061, s_upper=0.167, s_star=0.03), filt, alpha=0.05)
assert res.count == 1, res.count
print("ok")
"""


COLD_AUTO = """
import sys

import numpy as np
import jumpscan.cli
from jumpscan import auto_detect, builtin_wstar

n = 500
y = 3.0 * ((np.arange(n) + 1) / n > 0.5) + np.random.default_rng(4).standard_normal(n)
filt = builtin_wstar()
before = set(sys.modules)
auto_detect(y, filt, alpha="auto")
print(sorted(set(sys.modules) - before))
"""


def _fresh_python(code):
    # a fresh interpreter: pytest's own process has scipy loaded by other tests
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_import_loads_no_scipy():
    assert _fresh_python(GUARD) == "ok"


def test_cold_auto_detect_loads_no_module():
    # automatic scales and level, calibration included, on what the CLI import loaded
    assert _fresh_python(COLD_AUTO) == "[]"
