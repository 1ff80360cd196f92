"""The package loads numpy and scipy.fft, and no other scipy subpackage it
would pay for at start-up."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_only_scipy_fft():
    code = ("import sys, torusma, torusma.cli; "
            "print(' '.join(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "scipy.fft" in loaded
    for heavy in ("scipy.integrate", "scipy.sparse", "scipy.optimize",
                  "scipy.linalg"):
        assert heavy not in loaded
