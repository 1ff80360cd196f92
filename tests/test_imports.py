"""The package loads numpy and, of scipy, only its compiled pocketfft module,
which geometry loads from its file: no scipy package is imported at
start-up, and no source module imports scipy, so that loader stays the one
path to it. No solve loads scipy.sparse, since every Newton step runs a
Krylov method of its own on half spectra."""

import ast
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


SCIPY_FFT_ORDER = """
import numpy as np
{first}
{second}
assert geometry._pocketfft is scipy.fft._pocketfft.pypocketfft
rng = np.random.default_rng(0)
for n, N in ((1, 16), (2, 8)):
    torus = geometry.Torus(n, N)
    values = rng.standard_normal(torus.shape)
    F = geometry.to_spectrum(values)
    assert np.array_equal(F, scipy.fft.rfftn(values))
    assert np.array_equal(geometry.from_spectrum(torus, F),
                          scipy.fft.irfftn(F, s=torus.shape))
"""


def test_import_loads_no_scipy_module():
    loaded = loaded_modules("import torusma, torusma.cli")
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert [m for m in loaded if m.split(".")[:2] == ["numpy", "random"]] == []


@pytest.mark.parametrize("scipy_fft_first", [True, False])
def test_pocketfft_is_scipy_fft_module(scipy_fft_first):
    # the extension geometry loads is the module scipy.fft uses, whichever
    # is imported first, and the transforms give the public functions' bits
    imports = ["import scipy.fft", "from torusma import geometry"]
    first, second = imports if scipy_fft_first else imports[::-1]
    loaded_modules(SCIPY_FFT_ORDER.format(first=first, second=second))


def test_no_source_module_imports_scipy():
    # geometry's loader is the one path to scipy; an import statement would
    # bring back the scipy.fft package's start-up time
    found = []
    for path in sorted((SRC / "torusma").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


@pytest.mark.parametrize("kind, n, N, sparse", [
    ("flat", 1, 64, False), ("flat", 2, 16, False), ("conformal", 1, 64, False),
    ("conformal", 2, 8, False)])
def test_solve_loads_scipy_sparse_only_off_kaehler(kind, n, N, sparse):
    # the conformal n=2 step is GMRES on half spectra, whose least-squares
    # problem numpy solves, so no case loads scipy.sparse or scipy.linalg
    loaded = loaded_modules(SOLVE.format(kind=kind, n=n, N=N))
    assert ("scipy.sparse" in loaded) == sparse
    assert "scipy.linalg" not in loaded
