"""Damped Newton solver and continuation scheme for (omega + dd^c phi)^n = c mu."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg, lgmres

from .errors import DivergenceError, DominationError, PreconditionError
from .geometry import (
    GridFunction,
    HermitianForm,
    HermitianMetric,
    from_spectrum,
    inverse_quarter_laplacian,
    omega_form,
    spectral_symbols,
    to_spectrum,
)
from .pluripotential import (
    MeasureField,
    _measure_of_form,
    ma_measure,
    psh_defect,
    psh_tolerance,
)
from .regularize import Mollifications, psh_repair


@dataclass(frozen=True)
class SolveReport:
    """Solution (sup-normalized), its Monge-Ampere measure, constant c, and
    convergence diagnostics."""

    phi: GridFunction
    ma: MeasureField  # (omega + dd^c phi)^n, read from the form the solve built
    c: float
    residual_history: list
    c_trace: list
    iterations: int
    converged: bool
    cauchy_diffs: list = field(default_factory=list)
    krylov_unconverged: int = 0  # Newton steps whose inner Krylov solve did not converge


@dataclass(frozen=True)
class ContinuationSchedule:
    """mu = C0 h omega_u^n with 0 <= h <= 1; delta_list drives the mollification."""

    u: GridFunction
    C0: float
    h: GridFunction
    delta_list: tuple


def _linearization(M: HermitianForm, metric: HermitianMetric):
    """psi -> tr(adj(M) H(psi)) minus its mean, with M = g + H(phi) the form of
    the current iterate, as a map on flattened lattice arrays.

    This is det g times the linearized density; on a Kaehler metric the
    cofactor field of M is divergence-free, so the map is self-adjoint and
    negative semi-definite. It keeps only the adjugate weights, not M.
    """
    torus = metric.torus
    hess = spectral_symbols(torus).hess
    weights = M.adjugate_weights()

    def apply_L(vec):
        P = to_spectrum(vec.reshape(torus.shape))
        out = sum(c * from_spectrum(torus, s * P) for c, s in zip(weights, hess))
        out -= out.mean()
        return out.ravel()

    return apply_L


# inner tolerances: Eisenstat-Walker choice 2 (SIAM J. Sci. Comput. 17, 1996),
# eta_0 = _ETA_MAX, then eta_k = _EW_GAMMA (|r_k| / |r_k-1|)^2, kept above
# _EW_GAMMA eta_k-1^2 when that exceeds _EW_SAFEGUARD, and clipped to
# [_ETA_MIN, _ETA_MAX]
_ETA_MAX = 0.5
_ETA_MIN = 1e-6
_EW_GAMMA = 0.9
_EW_SAFEGUARD = 0.1
_KRYLOV_MAXITER = 50  # CG iterations, or lgmres restart cycles, per Newton step


def _forcing(eta: float, norm: float, prev_norm: float) -> float:
    """The next inner tolerance from the previous one and the ratio of the
    current to the previous Newton right-hand-side norm."""
    new = _EW_GAMMA * (norm / prev_norm) ** 2
    floor = _EW_GAMMA * eta ** 2
    if floor > _EW_SAFEGUARD:
        new = max(new, floor)
    return min(max(new, _ETA_MIN), _ETA_MAX)


def _newton_step(apply_L, rhs: np.ndarray, metric: HermitianMetric,
                 rtol: float) -> tuple:
    """Solve -apply_L(psi) = rhs to relative residual rtol, with rhs the
    mean-zero det g * residual and apply_L a `_linearization`.

    CG on a Kaehler metric, where -apply_L is symmetric positive definite on
    mean-zero fields, lgmres otherwise; both are preconditioned by the
    inverse flat quarter-Laplacian, negated. Returns (psi, converged) with
    `converged` the inner Krylov solve's flag.
    """
    torus = metric.torus
    shape = torus.shape
    size = torus.npoints

    def apply_A(vec):
        out = apply_L(vec)
        return np.negative(out, out=out)

    def apply_prec(vec):
        out = inverse_quarter_laplacian(torus, vec.reshape(shape)).ravel()
        return np.negative(out, out=out)

    # an explicit dtype spares the probe matvec LinearOperator makes without one
    A = LinearOperator((size, size), matvec=apply_A, dtype=float)
    Mprec = LinearOperator((size, size), matvec=apply_prec, dtype=float)
    krylov = cg if metric.is_kahler else lgmres
    sol, info = krylov(A, rhs.ravel(), M=Mprec, rtol=rtol, atol=0.0,
                       maxiter=_KRYLOV_MAXITER)
    psi = sol.reshape(shape)
    return psi - psi.mean(), info == 0


def solve_ma(mu: MeasureField, metric: HermitianMetric, tol: float = 1e-11,
             max_iter: int = 50) -> SolveReport:
    """Damped Newton iteration with spectral preconditioning, from phi = 0.

    The constant c is updated every iteration as the mass ratio
    (total Monge-Ampere mass) / mu(X); on the flat Kaehler torus the numerator
    is conserved, so c stays fixed at vol / mu(X).
    """
    if mu.mass <= 0.0:
        raise PreconditionError("measure must have positive mass")
    torus = metric.torus
    f = mu.density.values
    if not np.all(np.isfinite(f)):
        raise PreconditionError("measure density must be bounded on the lattice")
    detg = metric.det()

    phi = GridFunction.constant(torus, 0.0)

    residual_history: list = []
    c_trace: list = []

    def diagnostics(p: GridFunction):
        """(c, residual, sup residual, min eigenvalue, form) at p."""
        M = omega_form(p, metric)
        det_M = M.det()
        dens = det_M / detg
        c = float(np.mean(det_M) * torus.volume) / mu.mass
        res = dens - c * f
        return c, res, float(np.abs(res).max()), float(M.min_eig().min()), M

    c, res, res_norm, _, form = diagnostics(phi)
    residual_history.append(res_norm)
    c_trace.append(c)
    converged = res_norm <= tol
    iterations = 0
    unconverged = 0

    # degenerate data pushes the solution onto the boundary of the
    # positive-definite cone, so the line search accepts iterates down to the
    # psh tolerance rather than demanding strict positivity
    pd_floor = -psh_tolerance(metric)

    while not converged and iterations < max_iter:
        iterations += 1
        rhs = res * detg
        rhs -= rhs.mean()
        norm = float(np.linalg.norm(rhs))
        eta = _ETA_MAX if iterations == 1 else _forcing(eta, norm, prev_norm)
        prev_norm = norm
        apply_L = _linearization(form, metric)
        form = None  # not held in the Krylov solve; the line search builds the next
        psi, inner_ok = _newton_step(apply_L, rhs, metric, eta)
        unconverged += not inner_ok
        step = 1.0
        accepted = False
        pd_seen = False
        for _ in range(30):
            trial = GridFunction(torus, phi.values + step * psi).sup_normalized()
            c_t, res_t, norm_t, mineig_t, form_t = diagnostics(trial)
            if mineig_t > pd_floor:
                pd_seen = True
                if norm_t < res_norm:
                    phi, c, res, res_norm, form = trial, c_t, res_t, norm_t, form_t
                    accepted = True
                    break
            step *= 0.5
        if not pd_seen:
            raise DivergenceError(
                "no positive-definite iterate after 30 step halvings"
            )
        if not accepted:
            break  # stalled line search; report current state
        residual_history.append(res_norm)
        c_trace.append(c)
        converged = res_norm <= tol

    if form is None:  # a stalled line search dropped the form of phi
        form = omega_form(phi, metric)
    return SolveReport(
        phi=phi.sup_normalized(),
        ma=_measure_of_form(form, metric),
        c=c,
        residual_history=residual_history,
        c_trace=c_trace,
        iterations=iterations,
        converged=bool(converged),
        krylov_unconverged=unconverged,
    )


def decompose_subsolution(mu: MeasureField, u: GridFunction,
                          metric: HermitianMetric) -> ContinuationSchedule:
    """Radon-Nikodym split mu = C0 h omega_u^n with h in [0, 1]."""
    if psh_defect(u, metric) < -psh_tolerance(metric):
        raise PreconditionError("subsolution candidate u is not omega-psh")
    ma_u = ma_measure(u, metric)
    du = ma_u.density.values
    md = mu.density.values
    positive = md > 1e-15 * max(md.max(), 1.0)
    if np.any(positive & (du <= 1e-14 * max(du.max(), 1.0))):
        raise DominationError(
            "mu has mass where omega_u^n vanishes: mu is not dominated at this u"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(positive, md / np.where(positive, du, 1.0), 0.0)
    C0 = float(ratio.max())
    if C0 <= 0.0:
        raise PreconditionError("mu has no mass")
    h = np.clip(ratio / C0, 0.0, 1.0)
    return ContinuationSchedule(
        u=u, C0=C0, h=GridFunction(metric.torus, h), delta_list=(),
    )


def continuation_solve(schedule: ContinuationSchedule, metric: HermitianMetric,
                       tol: float = 1e-9, max_iter: int = 50) -> SolveReport:
    """Mollified continuation: for each delta_j solve from phi = 0 with
    mu_j = C0 h omega_{u_j}^n.

    The returned report is the final stage; its c_trace holds the per-stage c_j
    and cauchy_diffs the sup-norm gaps between consecutive stage solutions (the
    computable stand-in for the Cauchy-sequence argument); krylov_unconverged
    sums over the stages.
    """
    if not schedule.delta_list:
        raise PreconditionError("schedule has no mollification radii")
    reports = []
    u_family = Mollifications(schedule.u)
    for delta in schedule.delta_list:
        u_j = psh_repair(u_family(delta), metric)
        ma_uj = ma_measure(u_j, metric)
        dens_j = schedule.C0 * schedule.h.values * ma_uj.density.values
        mu_j = MeasureField.from_density(GridFunction(metric.torus, dens_j), metric)
        reports.append(solve_ma(mu_j, metric, tol=tol, max_iter=max_iter))
    cauchy = [float(np.abs(b.phi.values - a.phi.values).max())
              for a, b in zip(reports, reports[1:])]
    return replace(reports[-1], c_trace=[r.c for r in reports], cauchy_diffs=cauchy,
                   krylov_unconverged=sum(r.krylov_unconverged for r in reports))
