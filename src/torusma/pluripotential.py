"""omega-psh cone membership, Monge-Ampere measures, sublevel sets."""

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
        density = GridFunction(self.density.torus, self.density.values * s)
        return MeasureField.from_density(density, metric)

    def mass_on(self, mask: np.ndarray, metric: HermitianMetric) -> float:
        return integrate(self.density.values * mask, metric)


def psh_tolerance(metric: HermitianMetric) -> float:
    return 1e-8 * metric.sup_norm()


def psh_defect(f: GridFunction, metric: HermitianMetric) -> float:
    """Min over the lattice of the smallest eigenvalue of g + H(f).

    f is accepted as omega-psh when the result >= -psh_tolerance(metric).
    """
    return float(omega_form(f, metric).min_eig().min())


def is_omega_psh(f: GridFunction, metric: HermitianMetric) -> bool:
    return psh_defect(f, metric) >= -psh_tolerance(metric)


def measure_of_form(M: HermitianForm, metric: HermitianMetric) -> MeasureField:
    """det M / det g, clamped at 0, as the Monge-Ampere measure of the f whose
    form omega + dd^c f is M; raises when M's psh defect is below
    -100 psh_tolerance. That cannot happen on a `solve_ma` solution: every
    accepted iterate's form has min eigenvalue > -psh_tolerance, and the
    lattice synthesis of phi moves it only at round-off."""
    tol = psh_tolerance(metric)
    det = M.det()
    defect = float(M.min_eig(det).min())
    if defect < -100.0 * tol:
        raise NotOmegaPshError(
            f"psh defect {defect:.3e} below -100*tol = {-100*tol:.3e}; "
            "not a valid Monge-Ampere input"
        )
    density = det / metric.det()
    det = None  # not held through from_density's copy
    np.maximum(density, 0.0, out=density)
    return MeasureField.from_density(GridFunction(metric.torus, density), metric)


def ma_measure(f: GridFunction, metric: HermitianMetric) -> MeasureField:
    """Monge-Ampere measure (omega + dd^c f)^n as a density w.r.t. det(g) dV."""
    return measure_of_form(omega_form(f, metric), metric)


def sublevel(phi: GridFunction, psi: GridFunction, eps: float, s: float) -> np.ndarray:
    """Boolean lattice mask of the sublevel set
    U(eps, s) = {phi < (1-eps) psi + S_eps + s}, S_eps = inf_X [phi - (1-eps) psi]."""
    if not 0.0 < eps < 1.0:
        raise PreconditionError(f"eps must lie in (0,1), got {eps}")
    if s <= 0.0:
        raise PreconditionError(f"s must be positive, got {s}")
    diff = phi.values - (1.0 - eps) * psi.values
    S_eps = float(diff.min())
    return phi.values < (1.0 - eps) * psi.values + S_eps + s
