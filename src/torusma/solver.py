"""Damped Newton solver and continuation scheme for (omega + dd^c phi)^n = c mu."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import DivergenceError, DominationError, PreconditionError
from .geometry import (
    GridFunction,
    HermitianMetric,
    adjugate_field,
    complex_hessian,
    det_field,
    from_spectrum,
    inverse_quarter_laplacian,
    min_eig_field,
    spectral_symbols,
    to_spectrum,
)
from .pluripotential import MeasureField, ma_measure, psh_defect, psh_tolerance
from .regularize import mollify, psh_repair


@dataclass(frozen=True)
class SolveReport:
    """Solution (sup-normalized), constant c, and convergence diagnostics."""

    phi: GridFunction
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


def _linearization(phi: GridFunction, metric: HermitianMetric):
    """psi -> tr(adj(M) H(psi)) / det g minus its mean, with M = g + H(phi),
    as a map on flattened lattice arrays."""
    torus = phi.torus
    sym = spectral_symbols(torus)
    adj = adjugate_field(metric.g + complex_hessian(phi))
    detg = metric.det()
    # tr(adj H) = sum_j adj_jj H_jj + 2 Re(adj_10 H_01); H_jj is real
    diag = [adj[..., j, j].real / detg for j in range(torus.n)]
    if torus.n == 2:
        off_re = 2.0 * adj[..., 1, 0].real / detg
        off_im = -2.0 * adj[..., 1, 0].imag / detg

    def apply_L(vec):
        P = to_spectrum(vec.reshape(torus.shape))
        out = sum(c * from_spectrum(torus, s * P) for c, s in zip(diag, sym.hess_diag))
        if torus.n == 2:
            out += off_re * from_spectrum(torus, sym.hess_off_re * P)
            out += off_im * from_spectrum(torus, sym.hess_off_im * P)
        out -= out.mean()
        return out.ravel()

    return apply_L


def _newton_step(phi: GridFunction, residual: np.ndarray,
                 metric: HermitianMetric) -> tuple:
    """Solve tr(adj(M) H(psi)) / det g = -residual on the zero-mean subspace,
    preconditioned by the inverse flat quarter-Laplacian.

    Returns (psi, converged) with `converged` the inner Krylov solve's flag.
    """
    torus = phi.torus
    shape = torus.shape
    size = torus.npoints

    def apply_prec(vec):
        r = vec.reshape(shape)
        return inverse_quarter_laplacian(torus, r).ravel()

    # an explicit dtype spares the probe matvec LinearOperator makes without one
    L = LinearOperator((size, size), matvec=_linearization(phi, metric), dtype=float)
    Mprec = LinearOperator((size, size), matvec=apply_prec, dtype=float)
    rhs = (-(residual - residual.mean())).ravel()
    sol, info = lgmres(L, rhs, M=Mprec, rtol=1e-6, atol=0.0, maxiter=50)
    psi = sol.reshape(shape)
    return psi - psi.mean(), info == 0


def solve_ma(mu: MeasureField, metric: HermitianMetric, tol: float = 1e-11,
             max_iter: int = 50, warm_start: GridFunction = None) -> SolveReport:
    """Damped Newton iteration with spectral preconditioning.

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

    phi = warm_start if warm_start is not None else GridFunction.constant(torus, 0.0)
    phi = phi.sup_normalized()

    residual_history: list = []
    c_trace: list = []

    def diagnostics(p: GridFunction):
        M = metric.g + complex_hessian(p)
        dens = det_field(M) / detg
        c = float(np.mean(det_field(M)) * torus.volume) / mu.mass
        res = dens - c * f
        return c, res, float(np.abs(res).max()), float(min_eig_field(M).min())

    c, res, res_norm, _ = diagnostics(phi)
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
        psi, inner_ok = _newton_step(phi, res, metric)
        unconverged += not inner_ok
        step = 1.0
        accepted = False
        pd_seen = False
        for _ in range(30):
            trial = GridFunction(torus, phi.values + step * psi).sup_normalized()
            c_t, res_t, norm_t, mineig_t = diagnostics(trial)
            if mineig_t > pd_floor:
                pd_seen = True
                if norm_t < res_norm:
                    phi, c, res, res_norm = trial, c_t, res_t, norm_t
                    accepted = True
                    break
            step *= 0.5
        if not pd_seen:
            if warm_start is not None:
                # retry once from a cold start before declaring divergence
                cold = solve_ma(mu, metric, tol=tol, max_iter=max_iter)
                return replace(cold, krylov_unconverged=cold.krylov_unconverged
                               + unconverged)
            raise DivergenceError(
                "no positive-definite iterate after 30 step halvings"
            )
        if not accepted:
            break  # stalled line search; report current state
        residual_history.append(res_norm)
        c_trace.append(c)
        converged = res_norm <= tol

    return SolveReport(
        phi=phi.sup_normalized(),
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
    """Mollified continuation: for each delta_j solve with mu_j = C0 h omega_{u_j}^n,
    warm-starting from the previous stage.

    The returned report is the final stage; its c_trace holds the per-stage c_j
    and cauchy_diffs the sup-norm gaps between consecutive stage solutions (the
    computable stand-in for the Cauchy-sequence argument); krylov_unconverged
    sums over the stages.
    """
    if not schedule.delta_list:
        raise PreconditionError("schedule has no mollification radii")
    c_trace: list = []
    cauchy: list = []
    prev_phi = None
    report = None
    unconverged = 0
    for delta in schedule.delta_list:
        u_j = psh_repair(mollify(schedule.u, delta), metric)
        ma_uj = ma_measure(u_j, metric)
        dens_j = schedule.C0 * schedule.h.values * ma_uj.density.values
        mu_j = MeasureField.from_density(GridFunction(metric.torus, dens_j), metric)
        report = solve_ma(mu_j, metric, tol=tol, max_iter=max_iter, warm_start=prev_phi)
        c_trace.append(report.c)
        unconverged += report.krylov_unconverged
        if prev_phi is not None:
            cauchy.append(float(np.abs(report.phi.values - prev_phi.values).max()))
        prev_phi = report.phi
    return SolveReport(
        phi=report.phi,
        c=report.c,
        residual_history=report.residual_history,
        c_trace=c_trace,
        iterations=report.iterations,
        converged=report.converged,
        cauchy_diffs=cauchy,
        krylov_unconverged=unconverged,
    )
