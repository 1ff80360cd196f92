"""Reusable experiment fixtures: manufactured solutions, singular densities,
subsolution schedules, perturbation pairs, and seeded random quasi-psh fields.

Every fixture returns plain library objects (GridFunction / MeasureField /
HermitianMetric) so the command-line pipelines and the test-suite share one
source of truth for the inputs they exercise.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .geometry import Torus, GridFunction, HermitianMetric, flat_metric
from .pluripotential import MeasureField, is_omega_psh, ma_measure, psh_tolerance
from .regularize import psh_repair
from .solver import ContinuationSchedule, decompose_subsolution

__all__ = [
    "lp_density_fixture",
    "cos_potential",
    "cos_datum",
    "manufactured_cos",
    "holder_subsolution",
    "stability_pair",
    "random_psh",
    "mixture_pair",
]


def cos_potential(torus: Torus, amplitude: float) -> GridFunction:
    """phi* = amplitude * sum_j cos(2 pi x_j) over the real axes x_1, ..., x_n,
    sup-normalized."""
    vals = np.zeros(torus.shape)
    for j in range(torus.n):
        vals = vals + amplitude * np.cos(2.0 * np.pi * torus.axis_coord(2 * j))
    return GridFunction(torus, vals).sup_normalized()


def cos_datum(metric: HermitianMetric, amplitude: float):
    """`cos_potential`'s phi* and mu := omega_{phi*}^n on `metric`, as
    `ma_measure` builds it.

    phi* must be psh for the flat metric. Its complex Hessian is diagonal
    with entries -pi^2 amplitude cos(2 pi x_j), so that holds exactly when
    pi^2 |amplitude| <= 1; this is checked, up to the flat metric's psh
    tolerance, before anything is built. On any metric, mu is built only
    when omega + dd^c phi* passes measure_of_form's psh check.
    """
    torus = metric.torus
    if np.pi ** 2 * abs(amplitude) > 1.0 + psh_tolerance(flat_metric(torus)):
        raise PreconditionError(f"amplitude {amplitude} too large for psh fixture")
    phi = cos_potential(torus, amplitude)
    return phi, ma_measure(phi, metric)


def manufactured_cos(n: int, N: int, amplitude: float = 0.05):
    """Smooth exact-solution fixture on the flat metric: `cos_datum`'s phi*
    and mu.

    Returns (phi_star, mu, metric), so a solver run against mu has a
    machine-precision oracle.
    """
    metric = flat_metric(Torus(n, N))
    return (*cos_datum(metric, amplitude), metric)


def lp_density_fixture(p: float, singularity_exponent: float,
                       metric: HermitianMetric) -> MeasureField:
    """Density dist(z, 0)^(-s), cell-averaged over 8^(2n) subsamples at the
    singular point and normalized to unit mass; requires s p < 2n so the
    density is in L^p."""
    torus = metric.torus
    n = torus.n
    s = singularity_exponent
    if p <= 1.0:
        raise PreconditionError("p must exceed 1")
    if s < 0.0:
        raise PreconditionError("singularity exponent must be nonnegative")
    if s * p >= 2 * n:
        raise PreconditionError(f"s*p = {s*p} >= 2n = {2*n}: density not in L^p")
    if s == 0.0:
        dens = np.ones(torus.shape)
    else:
        dist = torus.periodic_distance()
        with np.errstate(divide="ignore"):
            dens = np.where(dist > 0.0, dist, 1.0) ** (-s)
        # cell-average at lattice points coinciding with the singularity
        sing = dist == 0.0
        if sing.any():
            h = torus.spacing
            offs = (np.arange(8) + 0.5) / 8 - 0.5
            grids = np.meshgrid(*([offs * h] * torus.ndim_real), indexing="ij")
            r = np.sqrt(sum(g**2 for g in grids))
            dens[sing] = float(np.mean(r**-s))
    mu = MeasureField.from_density(GridFunction(torus, dens), metric)
    return mu.scaled(1.0 / mu.mass, metric)


def holder_subsolution(N: int):
    """Continuation fixture: a Hoelder (not C^2) subsolution u from repairing
    0.05 |sin(pi x)|^(1/2), datum mu = h * omega_u^n with smooth h >= 0.

    Returns (schedule, metric) where schedule carries the dyadic mollification
    ladder delta_j = 2^-j for j = 3, ..., 7, clipped to the lattice resolution
    floor of two spacings.
    """
    torus = Torus(1, N)
    metric = flat_metric(torus)
    x = torus.axis_coord(0)
    raw = GridFunction(torus, 0.05 * np.abs(np.sin(np.pi * x)) ** 0.5
                       * np.ones(torus.shape))
    u = psh_repair(raw, metric, rounds=8)[0]
    h = GridFunction(torus, 0.5 * (1.0 + np.cos(2.0 * np.pi * x))
                     * np.ones(torus.shape))
    dens = GridFunction(torus, ma_measure(u, metric).density.values * h.values)
    mu = MeasureField.from_density(dens, metric)
    C0, h_split = decompose_subsolution(mu, u, metric)
    floor = 2.0 * torus.spacing
    deltas = tuple(d for d in (2.0 ** -j for j in range(3, 8)) if d >= floor)
    if len(deltas) < 2:
        raise PreconditionError(f"N = {N} leaves fewer than two resolvable deltas")
    return ContinuationSchedule(u=u, C0=C0, h=h_split, delta_list=deltas), metric


def stability_pair(n: int, N: int, amplitude: float):
    """Perturbation fixture for the sup-vs-L^1 stability estimate.

    phi is the cosine fixture; psi subtracts a * (1 + cos(2 pi x_1)) and
    re-normalizes, so sup(psi - phi) = 2a > 0 while psi stays omega-psh
    and <= 0.  Returns (psi, phi, mu, metric) with mu = omega_phi^n.
    """
    phi, mu, metric = manufactured_cos(n, N)
    torus = metric.torus
    bump = (1.0 + np.cos(2.0 * np.pi * torus.axis_coord(0))) * np.ones(torus.shape)
    pert = phi.values - amplitude * bump
    psi = GridFunction(torus, pert - pert.max())
    if not is_omega_psh(psi, metric):
        raise PreconditionError("perturbed field left the psh cone")
    return psi, phi, mu, metric


def random_psh(torus: Torus, metric: HermitianMetric,
               rng: np.random.Generator) -> GridFunction:
    """Seeded random trigonometric field of frequencies 1 and 2 on each real
    axis, amplitude 0.02 / k^2, repaired into the omega-psh cone and
    sup-normalized."""
    vals = np.zeros(torus.shape)
    for axis in range(torus.ndim_real):
        x = torus.axis_coord(axis)
        for k in (1, 2):
            a, b = rng.uniform(-1.0, 1.0, size=2)
            vals = vals + (0.02 / k ** 2) * (
                a * np.cos(2.0 * np.pi * k * x) + b * np.sin(2.0 * np.pi * k * x)
            ) * np.ones(torus.shape)
    f = psh_repair(GridFunction(torus, vals), metric)[0]
    return f.sup_normalized()


def mixture_pair(n: int, N: int, rng: np.random.Generator):
    """Two random omega-psh potentials and positive weights for the
    convexity-domination experiment.  Returns (phi1, phi2, c1, c2, metric)."""
    torus = Torus(n, N)
    metric = flat_metric(torus)
    phi1 = random_psh(torus, metric, rng)
    phi2 = random_psh(torus, metric, rng)
    c1, c2 = rng.uniform(0.5, 2.0, size=2)
    return phi1, phi2, float(c1), float(c2), metric
