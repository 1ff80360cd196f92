"""omega-psh cone membership, Monge-Ampere measures, sublevel sets, Hoelder modulus."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotOmegaPshError, PreconditionError
from .geometry import (
    GridFunction,
    HermitianForm,
    HermitianMetric,
    integrate,
    omega_form,
)

_CLAMP = 1e-12


@dataclass(frozen=True)
class MeasureField:
    """Nonnegative density w.r.t. the metric volume det(g) dV, plus total mass."""

    density: GridFunction
    mass: float

    @classmethod
    def from_density(cls, density: GridFunction, metric: HermitianMetric) -> "MeasureField":
        vals = density.values
        if vals.min() < -_CLAMP:
            raise PreconditionError(
                f"measure density dips to {vals.min():.3e}, below the -1e-12 clamp"
            )
        clamped = GridFunction(density.torus, np.maximum(vals, 0.0))
        return cls(density=clamped, mass=integrate(clamped, metric))

    def scaled(self, s: float, metric: HermitianMetric) -> "MeasureField":
        return MeasureField.from_density(self.density * s, metric)

    def mass_on(self, mask: np.ndarray, metric: HermitianMetric) -> float:
        return integrate(self.density.values * mask, metric)


@dataclass(frozen=True)
class SublevelSet:
    """U(eps, s) = {phi < (1-eps) psi + inf_X[phi - (1-eps) psi] + s}."""

    mask: np.ndarray
    eps: float
    s: float
    S_eps: float  # inf_X [phi - (1-eps) psi]

    @property
    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def fraction(self) -> float:
        return float(self.mask.mean())


def psh_tolerance(metric: HermitianMetric) -> float:
    return 1e-8 * metric.sup_norm()


def psh_defect(f: GridFunction, metric: HermitianMetric) -> float:
    """Min over the lattice of the smallest eigenvalue of g + H(f).

    f is accepted as omega-psh when the result >= -psh_tolerance(metric).
    """
    return float(omega_form(f, metric).min_eig().min())


def is_omega_psh(f: GridFunction, metric: HermitianMetric) -> bool:
    return psh_defect(f, metric) >= -psh_tolerance(metric)


def _measure_of_form(M: HermitianForm, metric: HermitianMetric) -> MeasureField:
    """det M / det g, clamped at 0, as a measure: the Monge-Ampere measure
    of the potential whose form omega + dd^c f is M."""
    density = np.maximum(M.det() / metric.det(), 0.0)
    return MeasureField.from_density(GridFunction(metric.torus, density), metric)


def ma_measure(f: GridFunction, metric: HermitianMetric) -> MeasureField:
    """Monge-Ampere measure (omega + dd^c f)^n as a density w.r.t. det(g) dV."""
    tol = psh_tolerance(metric)
    M = omega_form(f, metric)
    defect = float(M.min_eig().min())
    if defect < -100.0 * tol:
        raise NotOmegaPshError(
            f"psh defect {defect:.3e} below -100*tol = {-100*tol:.3e}; "
            "not a valid Monge-Ampere input"
        )
    return _measure_of_form(M, metric)


def mixed_form_mass(f: GridFunction, u: GridFunction, p: int,
                    metric: HermitianMetric) -> float:
    """Total mass of the mixed form omega_f^p ^ omega_u^(n-p)."""
    n = metric.torus.n
    if not 0 <= p <= n:
        raise PreconditionError(f"p must lie in [0, {n}], got {p}")
    tol = psh_tolerance(metric)
    A = omega_form(f, metric)
    B = omega_form(u, metric)
    for name, M in (("f", A), ("u", B)):
        d = float(M.min_eig().min())
        if d < -100.0 * tol:
            raise NotOmegaPshError(f"{name} has psh defect {d:.3e}")
    if p == n:
        dens = A.det()
    elif p == 0:
        dens = B.det()
    else:  # n == 2, p == 1
        dens = A.mixed_det(B)
    return float(np.mean(dens) * metric.torus.volume)


def sublevel(phi: GridFunction, psi: GridFunction, eps: float, s: float) -> SublevelSet:
    if not 0.0 < eps < 1.0:
        raise PreconditionError(f"eps must lie in (0,1), got {eps}")
    if s <= 0.0:
        raise PreconditionError(f"s must be positive, got {s}")
    diff = phi.values - (1.0 - eps) * psi.values
    S_eps = float(diff.min())
    mask = phi.values < (1.0 - eps) * psi.values + S_eps + s
    return SublevelSet(mask=mask, eps=eps, s=s, S_eps=S_eps)


def _offsets_for_radius(ndim: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Integer lattice offsets with Euclidean norm <= m: all axis shifts plus
    a seeded random sample of up to 200 combined offsets."""
    offsets = []
    for a in range(ndim):
        for s in range(1, m + 1):
            off = [0] * ndim
            off[a] = s
            offsets.append(tuple(off))
    if ndim > 1 and m >= 1:
        seen = set(offsets)
        for _ in range(200):
            cand = tuple(int(v) for v in rng.integers(-m, m + 1, size=ndim))
            if all(v == 0 for v in cand):
                continue
            if sum(v * v for v in cand) > m * m:
                continue
            if cand in seen:
                continue
            seen.add(cand)
            offsets.append(cand)
    return np.array(offsets, dtype=int)


def hoelder_modulus(f: GridFunction) -> tuple:
    """Estimate a Hoelder exponent by dyadic oscillation regression.

    osc_r(f) = max over sampled lattice pairs at distance <= r of |f(p) - f(q)|
    for the dyadic radii r = 2/N, 4/N, ... up to 1/4;
    returns (alpha_hat, C) from a least-squares fit of log osc_r against log r.
    Constant functions report (1.0, 0.0).
    """
    torus = f.torus
    N = torus.N
    vals = f.values
    if vals.max() - vals.min() == 0.0:
        return 1.0, 0.0
    rng = np.random.default_rng(0)
    log_r, log_osc = [], []
    r = 2.0 / N
    while r <= 0.25 + 1e-12:
        m = max(1, int(np.floor(r * N)))
        osc = 0.0
        for off in _offsets_for_radius(torus.ndim_real, m, rng):
            shifted = np.roll(vals, shift=tuple(off), axis=tuple(range(torus.ndim_real)))
            osc = max(osc, float(np.abs(shifted - vals).max()))
        if osc > 0.0:
            log_r.append(np.log(r))
            log_osc.append(np.log(osc))
        r *= 2.0
    if len(log_r) < 2:
        return 1.0, 0.0
    slope, intercept = np.polyfit(log_r, log_osc, 1)
    return float(slope), float(np.exp(intercept))
