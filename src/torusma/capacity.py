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
    HermitianForm,
    HermitianMetric,
    from_spectrum,
    omega_form,
    spectral_symbols,
    to_spectrum,
)
from .pluripotential import psh_tolerance
from .regularize import Mollifications, psh_repair

_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class CapacityEstimate:
    """Certified lower bound on cap_omega(E) with the candidate achieving it."""

    lower: float
    candidate: GridFunction
    iterations: int
    form: HermitianForm  # omega + dd^c candidate, the form it was verified on


@dataclass(frozen=True)
class DecayFit:
    """Fitted constants of a volume-capacity inequality plus its max violation."""

    C: float
    exponent: float   # alpha_1 for the exponential law, tau for the power law
    residual: float


def _ascent_gradient(mask: np.ndarray, M: HermitianForm, metric: HermitianMetric,
                     mask_spectrum: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the masked Monge-Ampere mass w.r.t. v at M = g + H(v)
    (spectral adjoint): sum_k H_k^*(mask C_k) over the adjugate weights C.
    At n = 1 the only weight is 1, so mask C_0 is the mask as floats, whose
    half spectrum the caller may pass as `mask_spectrum`.
    """
    torus = metric.torus
    if mask_spectrum is not None:
        spectra = (mask_spectrum,)
    else:
        spectra = (to_spectrum(mask * c) for c in M.adjugate_weights())
    G = sum(s * F for s, F in zip(spectral_symbols(torus).hess, spectra))
    return from_spectrum(torus, G)


def _seed_candidates(indicator: Mollifications, metric: HermitianMetric):
    """Zero function plus scaled relative-extremal heuristics (smoothed
    indicators), each as `psh_repair` returns it; `indicator` is the family
    of the mask as floats. A heuristic that is zero everywhere is the first
    seed again and is not yielded. The zero function comes with its form
    `metric.form()`, built without a transform. The transformed form differs
    only in the signs of the zeros of b_re and b_im (n = 2): det and min_eig
    read them squared, and the gradient only in entries that are 0, which
    the ascent adds to the zero seed's +0."""
    torus = metric.torus
    yield GridFunction.constant(torus, 0.0), metric.form()
    for radius in (4.0 * torus.spacing, 8.0 * torus.spacing):
        if radius > 0.25:
            continue
        for scale in (0.5, 1.0):
            vals = np.clip(scale * (1.0 - indicator(radius).values), 0.0, 1.0)
            if vals.any():
                yield psh_repair(GridFunction(torus, vals), metric)


def estimate_capacity(mask: np.ndarray, metric: HermitianMetric, budget: int,
                      extra_candidates=()) -> CapacityEstimate:
    """Projected-ascent maximization of the Monge-Ampere mass on the set
    whose boolean lattice mask is `mask`.

    Alternates a gradient step with clamping to [0,1] and psh repair; every
    reported value comes from a candidate that passed feasibility
    re-verification, so the result is a certified lower bound.
    `extra_candidates`, earlier estimates, lets callers share one candidate
    pool across several sets (used by the nested-monotonicity checks); each
    joins with the form its own estimate verified.

    Each candidate's form is built once: the zero function's is
    `metric.form()`, one already in [0, 1] that `psh_repair` returns
    unchanged is evaluated on the form the repair verified, a repaired one
    is clipped to [0, 1] and transformed once, and no seed repeats the first.
    """
    if budget < 1:
        raise PreconditionError("budget must be >= 1")
    torus = metric.torus
    if not mask.any():
        return CapacityEstimate(0.0, GridFunction.constant(torus, 0.0), 0, metric.form())

    best_val = -np.inf
    best_v = best_form = None
    evaluated = 0
    tol = psh_tolerance(metric)

    def consider(v: GridFunction, M: HermitianForm | None):
        """Keep v, and the form it was verified on, if it is feasible and
        beats the best masked mass so far; M, when given, is the form of v,
        whose values lie in [0, 1]."""
        nonlocal best_val, best_v, best_form, evaluated
        evaluated += 1
        if M is None:
            if v.values.min() < -_BOUND_SLACK or v.values.max() > 1.0 + _BOUND_SLACK:
                return
            v = GridFunction(torus, np.clip(v.values, 0.0, 1.0))
            M = omega_form(v, metric)
        det = M.det()
        if float(M.min_eig(det).min()) < -tol:
            return
        # integral over E of (omega + dd^c v)^n
        density = np.maximum(det, 0.0)
        density *= mask
        val = float(np.mean(density) * torus.volume)
        if val > best_val:
            best_val = val
            best_v, best_form = v, M

    indicator = Mollifications(GridFunction(torus, mask.astype(float)))
    for seed in _seed_candidates(indicator, metric):
        consider(*seed)
        seed = None  # a seed consider did not keep is freed before the next is built
    mask_spectrum = indicator.spectrum if torus.n == 1 else None
    indicator = None
    for earlier in extra_candidates:
        consider(earlier.candidate, earlier.form)

    # projected ascent from the best seed; the zero seed is always feasible,
    # so best_v is set. The gradient changes only when v does, and at n = 1
    # not even then: the only adjugate weight is 1.
    v, form = best_v, best_form
    grad = None
    step = 0.1
    for _ in range(budget):
        if grad is None:
            grad = _ascent_gradient(mask, form, metric, mask_spectrum)
            gnorm = np.abs(grad).max()
        if gnorm < 1e-14:
            break
        # v + step grad / gnorm, clipped to [0, 1], in one field
        trial_vals = np.multiply(grad, step)
        trial_vals /= gnorm
        trial_vals += v.values
        np.clip(trial_vals, 0.0, 1.0, out=trial_vals)
        trial, M = psh_repair(GridFunction(torus, trial_vals), metric)
        if M is None:  # repaired: back into [0, 1]
            trial = GridFunction(torus, np.clip(trial.values, 0.0, 1.0))
            M = omega_form(trial, metric)
        before = best_val
        consider(trial, M)
        trial_vals = trial = M = None  # not held while the next trial is built
        if best_val > before + 1e-15:
            v, form = best_v, best_form
            if torus.n == 2:
                grad = None
            step = min(0.5, step * 1.5)
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return CapacityEstimate(float(best_val), best_v, evaluated, best_form)


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
    return DecayFit(C=C, exponent=_ALPHA1, residual=residual)


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
    return DecayFit(C=C, exponent=float(tau), residual=residual)
