"""Shared test fixtures."""

import math

import numpy as np
import pytest

import torusma.geometry
from torusma.regularize import mollify


def _counted(monkeypatch, module, name):
    """List that gains one entry per call of module.<name> during the test."""
    calls = []
    function = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def inverse_transforms(monkeypatch):
    """List that gains one entry per inverse transform during the test:
    `geometry.from_spectrum` makes one `c2r` call on geometry's pocketfft
    binding, on the last axis, after the leading axes' `c2c`."""
    return _counted(monkeypatch, torusma.geometry._pocketfft, "c2r")


@pytest.fixture
def forward_transforms(monkeypatch):
    """List that gains one entry per forward transform during the test:
    `geometry.to_spectrum` makes one `r2c` call on geometry's pocketfft
    binding."""
    return _counted(monkeypatch, torusma.geometry._pocketfft, "r2c")


@pytest.fixture
def complex_hessians(monkeypatch):
    """List that gains one entry per `geometry.complex_hessian` call during
    the test; `omega_form` of a lattice function makes one."""
    return _counted(monkeypatch, torusma.geometry, "complex_hessian")


@pytest.fixture
def violated_domination(monkeypatch):
    """Make `certify.mixture_measure` report a domination slack of -1e-6,
    below the -1e-10 that `mixture_experiment` accepts."""
    import torusma.certify
    measure = torusma.certify.mixture_measure

    def violated(*args):
        return measure(*args)[0], -1e-6

    monkeypatch.setattr(torusma.certify, "mixture_measure", violated)


def _reference_kiselman_legendre(phi, delta, b, K):
    """One row of the Kiselman-Legendre transform in a loop of its own, as
    the chain ran it row by row: each rho_t phi from its own `mollify`, the
    minimand rho_t phi + K t^2 + K t - b log(t / delta) formed left to right,
    and the pointwise minimizer t_opt kept as a field. Returns
    (value, t_opt, t_grid)."""
    torus = phi.torus
    t_min = 2.0 * torus.spacing
    k_max = max(0, int(math.floor(math.log2(delta / t_min))))
    t_grid = tuple(delta * 2.0**-k for k in range(k_max + 1))
    best = np.full(torus.shape, np.inf)
    best_t = np.full(torus.shape, delta)
    for t in t_grid:
        cand = mollify(phi, t).values + K * t * t
        cand += K * t
        cand -= b * math.log(t / delta)
        take = cand < best
        best[take] = cand[take]
        best_t[take] = t
    return best, best_t, t_grid


@pytest.fixture
def kl_reference():
    """The per-row Kiselman-Legendre reference (value, t_opt, t_grid)."""
    return _reference_kiselman_legendre
