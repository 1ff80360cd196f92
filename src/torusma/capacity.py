"""Bedford-Taylor capacity estimation (from below) and volume-capacity fitters.

Capacity enters every inequality this package checks on the right-hand side, so certified
LOWER bounds give the conservative direction: a PASS against a lower bound is
a PASS against the true capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .geometry import (
    GridFunction,
    HermitianMetric,
    adjugate_field,
    complex_hessian,
    det_field,
    from_spectrum,
    min_eig_field,
    spectral_symbols,
    to_spectrum,
)
from .pluripotential import SublevelSet, psh_tolerance
from .regularize import mollify, psh_repair

_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class CapacityEstimate:
    """Certified lower bound on cap_omega(E) with the candidate achieving it."""

    lower: float
    candidate: GridFunction
    iterations: int


@dataclass(frozen=True)
class DecayFit:
    """Fitted constants of a volume-capacity inequality plus its max violation."""

    C: float
    exponent: float   # alpha_1 for the exponential law, tau for the power law
    residual: float
    law: str          # "exp" or "power"


def _objective(mask: np.ndarray, v: GridFunction, metric: HermitianMetric) -> float:
    """integral over E of (omega + dd^c v)^n."""
    M = metric.g + complex_hessian(v)
    dens = np.maximum(det_field(M), 0.0)
    return float(np.mean(mask * dens) * metric.torus.volume)


def _is_feasible(v: GridFunction, metric: HermitianMetric) -> bool:
    vals = v.values
    if vals.min() < -_BOUND_SLACK or vals.max() > 1.0 + _BOUND_SLACK:
        return False
    M = metric.g + complex_hessian(v)
    return float(min_eig_field(M).min()) >= -psh_tolerance(metric)


def _ascent_gradient(mask: np.ndarray, v: GridFunction, metric: HermitianMetric) -> np.ndarray:
    """Gradient of the masked Monge-Ampere mass w.r.t. v (spectral adjoint).

    With w = mask adj(M), the gradient is sum_jk H_jk^*(w_kj); the two
    off-diagonal terms combine to 2 (S_re Re w_10 - S_im Im w_10) in spectrum.
    """
    torus = v.torus
    sym = spectral_symbols(torus)
    w = mask[..., None, None] * adjugate_field(metric.g + complex_hessian(v))
    G = sum(s * to_spectrum(w[..., j, j].real) for j, s in enumerate(sym.hess_diag))
    if torus.n == 2:
        G += 2.0 * (sym.hess_off_re * to_spectrum(w[..., 1, 0].real)
                    - sym.hess_off_im * to_spectrum(w[..., 1, 0].imag))
    return from_spectrum(torus, G)


def _seed_candidates(E: SublevelSet, metric: HermitianMetric):
    """Zero function plus scaled relative-extremal heuristics (smoothed indicators)."""
    torus = metric.torus
    yield GridFunction.constant(torus, 0.0)
    mask_f = GridFunction(torus, E.mask.astype(float))
    for radius in (4.0 * torus.spacing, 8.0 * torus.spacing):
        if radius > 0.25:
            continue
        smooth = mollify(mask_f, radius)
        for scale in (0.5, 1.0):
            vals = np.clip(scale * (1.0 - smooth.values), 0.0, 1.0)
            yield psh_repair(GridFunction(torus, vals), metric)


def estimate_capacity(E: SublevelSet, metric: HermitianMetric, budget: int = 40,
                      extra_candidates=()) -> CapacityEstimate:
    """Projected-ascent maximization of the masked Monge-Ampere mass.

    Alternates a gradient step with clamping to [0,1] and psh repair; every
    reported value comes from a candidate that passed feasibility
    re-verification, so the result is a certified lower bound.
    `extra_candidates` lets callers share one candidate pool across several
    sets (used by the nested-monotonicity checks).
    """
    if budget < 1:
        raise PreconditionError("budget must be >= 1")
    torus = metric.torus
    mask = E.mask
    if not mask.any():
        return CapacityEstimate(0.0, GridFunction.constant(torus, 0.0), 0)

    best_val = -np.inf
    best_v = None
    evaluated = 0

    def consider(v: GridFunction):
        nonlocal best_val, best_v, evaluated
        evaluated += 1
        if not _is_feasible(v, metric):
            return
        v = GridFunction(torus, np.clip(v.values, 0.0, 1.0))
        val = _objective(mask, v, metric)
        if val > best_val:
            best_val = val
            best_v = v

    for seed in _seed_candidates(E, metric):
        consider(seed)
    for cand in extra_candidates:
        consider(cand)

    # projected ascent from the best seed
    v = best_v if best_v is not None else GridFunction.constant(torus, 0.0)
    step = 0.1
    remaining = budget
    while remaining > 0:
        remaining -= 1
        grad = _ascent_gradient(mask, v, metric)
        gnorm = np.abs(grad).max()
        if gnorm < 1e-14:
            break
        trial_vals = np.clip(v.values + step * grad / gnorm, 0.0, 1.0)
        trial = psh_repair(GridFunction(torus, trial_vals), metric)
        trial = GridFunction(torus, np.clip(trial.values, 0.0, 1.0))
        before = best_val
        consider(trial)
        if best_val > before + 1e-15:
            v = best_v
            step = min(0.5, step * 1.5)
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return CapacityEstimate(float(best_val), best_v, evaluated)


# alpha_1 of the exponential law: the largest exponent on the grid 0.1, ..., 1.0
_ALPHA1 = 1.0


def _checked_sample(caps, masses):
    """(caps, masses) as float arrays after the preconditions both fits share."""
    caps = np.asarray(caps, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if caps.shape != masses.shape or caps.ndim != 1:
        raise PreconditionError("caps and masses must be 1-d arrays of equal length")
    if caps.size < 5:
        raise PreconditionError("need at least 5 sublevel sets")
    if np.ptp(caps) < 1e-12:
        raise PreconditionError("degenerate sample: all capacity estimates equal")
    if np.any((masses > 0.0) & (caps <= 0.0)):
        raise PreconditionError("positive mass on a zero-capacity set")
    return caps, masses


def fit_volume_capacity(caps, masses, n: int) -> DecayFit:
    """Smallest C with mu(K) <= C exp(-alpha1 / cap(K)^(1/n)) over the sample.

    `caps[i]` and `masses[i]` are cap(K_i) and mu(K_i) for each sampled set.
    Whether a finite C exists does not depend on alpha1 (only on positive mass
    sitting on a zero-capacity set), so alpha1 is the largest exponent on the
    grid 0.1, 0.2, ..., 1.0; the inequality is strongest there. Capacity lower
    bounds make the inequality harder, so a nonpositive residual is meaningful.
    """
    caps, masses = _checked_sample(caps, masses)
    if masses.sum() <= 0.0:
        raise PreconditionError("measure must have positive mass")
    bound = np.exp(-_ALPHA1 / np.where(caps > 0.0, caps, np.inf) ** (1.0 / n))
    active = masses > 0.0
    C = float(np.max(masses[active] / bound[active]))
    residual = float(np.max(masses - C * bound))
    return DecayFit(C=C, exponent=_ALPHA1, residual=residual, law="exp")


def fit_htau(caps, masses, tau: float) -> DecayFit:
    """Smallest C_tau with mu(K) <= C_tau cap(K)^(1+tau) over the sample."""
    if tau <= 0.0:
        raise PreconditionError("tau must be positive")
    caps, masses = _checked_sample(caps, masses)
    active = masses > 0.0
    if active.any():
        C = float(np.max(masses[active] / caps[active] ** (1.0 + tau)))
    else:
        C = 0.0
    residual = float(np.max(masses - C * caps ** (1.0 + tau)))
    return DecayFit(C=C, exponent=float(tau), residual=residual, law="power")
