"""The package loads numpy and scipy.fft, and no other scipy subpackage it
would pay for at start-up; no solve loads scipy.sparse, since every Newton
step runs a Krylov method of its own on half spectra."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SOLVE = """
from torusma import MeasureField, Torus, conformal_metric, flat_metric, solve_ma
from torusma.fixtures import manufactured_cos
_, mu, _ = manufactured_cos({n}, {N})
torus = Torus({n}, {N})
m = flat_metric(torus) if "{kind}" == "flat" else conformal_metric(torus, 0.2)
assert solve_ma(MeasureField.from_density(mu.density, m), m).converged
"""


def loaded_modules(code):
    """The sorted names in sys.modules after running `code` in a fresh
    interpreter that imports torusma from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code += "\nimport sys; print(' '.join(sorted(sys.modules)))"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_import_loads_only_scipy_fft():
    loaded = loaded_modules("import torusma, torusma.cli")
    assert "scipy.fft" in loaded
    for heavy in ("scipy.integrate", "scipy.sparse", "scipy.optimize",
                  "scipy.linalg"):
        assert heavy not in loaded


@pytest.mark.parametrize("kind, n, N, sparse", [
    ("flat", 1, 64, False), ("flat", 2, 16, False), ("conformal", 1, 64, False),
    ("conformal", 2, 8, False)])
def test_solve_loads_scipy_sparse_only_off_kaehler(kind, n, N, sparse):
    # the conformal n=2 step is GMRES on half spectra, whose least-squares
    # problem numpy solves, so no case loads scipy.sparse or scipy.linalg
    loaded = loaded_modules(SOLVE.format(kind=kind, n=n, N=N))
    assert ("scipy.sparse" in loaded) == sparse
    assert "scipy.linalg" not in loaded
