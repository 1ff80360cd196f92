"""Damped Newton solver and continuation scheme for (omega + dd^c phi)^n = c mu."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergenceError, DominationError, PreconditionError
from .geometry import (
    GridFunction,
    HermitianForm,
    HermitianMetric,
    from_spectrum,
    omega_form,
    spectral_symbols,
    to_spectrum,
)
from .pluripotential import (
    MeasureField,
    ma_measure,
    measure_of_form,
    psh_tolerance,
)
from .regularize import Mollifications, psh_repair


@dataclass(frozen=True)
class SolveReport:
    """Solution (sup-normalized), constant c, and convergence diagnostics;
    only `continuation_solve` fills c_trace and cauchy_diffs, per stage."""

    phi: GridFunction
    c: float
    residual_history: list
    iterations: int
    converged: bool
    c_trace: list = field(default_factory=list)
    cauchy_diffs: list = field(default_factory=list)
    krylov_unconverged: int = 0  # Newton steps whose inner Krylov solve did not converge


@dataclass(frozen=True)
class ContinuationSchedule:
    """mu = C0 h omega_u^n with 0 <= h <= 1; delta_list drives the mollification."""

    u: GridFunction
    C0: float
    h: GridFunction
    delta_list: tuple


def _linearization(M: HermitianForm, metric: HermitianMetric, w):
    """Psi -> tr(adj(M) H(psi)) - mean(.) w, with M = g + H(phi) the form of
    the current iterate: a map from the half spectrum Psi of psi to a lattice
    field.

    tr(adj(M) H(psi)) is det g times the linearized density; on a Kaehler
    metric the cofactor field of M is divergence-free, so it is self-adjoint
    and negative semi-definite, on the lattice at n = 1 (where it is Lap/4
    and `solve_ma` inverts it without building this map) and for
    band-limited iterates at n = 2. On a rough n = 2 iterate the product
    adj(M) H(psi) aliases and the off-diagonal symbols zero the Nyquist
    mode, so the symmetry is only approximate (1.6e-3 relative at N = 16 on
    white-noise phi). With w = f det g / mean(f det g) the oblique projection is det g
    times the exact Jacobian of det M / det g - c f, whose constant
    c = mean(det M) / mean(f det g) depends on phi; w = 1 projects onto mean
    zero. It keeps only the adjugate weights, built on M's own parts, so M
    is spent and not read again after this call.
    """
    torus = metric.torus
    hess = spectral_symbols(torus).hess
    weights = M.adjugate_weights_in_place()

    def apply_L(P):
        out = None
        for c, s in zip(weights, hess):
            term = from_spectrum(torus, P, s)
            term *= c
            if out is None:
                out = term
            else:
                out += term
        out -= out.mean() * w
        return out

    return apply_L


# inner tolerances: Eisenstat-Walker choice 2 (SIAM J. Sci. Comput. 17, 1996),
# eta_0 = _ETA_MAX, then eta_k = _EW_GAMMA (|r_k| / |r_k-1|)^2, kept above
# _EW_GAMMA eta_k-1^2 when that exceeds _EW_SAFEGUARD, and clipped to
# [_ETA_MIN, _ETA_MAX]
_ETA_MAX = 0.5
_ETA_MIN = 1e-6
_EW_GAMMA = 0.9
_EW_SAFEGUARD = 0.1
_KRYLOV_MAXITER = 50  # CG iterations or GMRES cycles per Newton step


def _forcing(eta: float, norm: float, prev_norm: float) -> float:
    """The next inner tolerance from the previous one and the ratio of the
    current to the previous Newton right-hand-side norm."""
    new = _EW_GAMMA * (norm / prev_norm) ** 2
    floor = _EW_GAMMA * eta ** 2
    if floor > _EW_SAFEGUARD:
        new = max(new, floor)
    return min(max(new, _ETA_MIN), _ETA_MAX)


def _inner(A: np.ndarray, B: np.ndarray, parseval: np.ndarray) -> float:
    """Lattice sum of a b from the half spectra A, B of two real fields."""
    cols = np.einsum("ij,ij->j", A.view(float).reshape(-1, 2 * A.shape[-1]),
                     B.view(float).reshape(-1, 2 * B.shape[-1]))
    return float(cols.reshape(-1, 2).sum(axis=1) @ parseval)


def _pcg(apply_L, B: np.ndarray, torus, rtol: float) -> tuple:
    """Preconditioned CG on -apply_L(psi) = rhs, B the half spectrum of rhs,
    for a Kaehler metric at n = 2, where -apply_L is symmetric positive
    definite on mean-zero fields up to the aliasing that `_linearization`
    describes; apply_L is a `_linearization`. On rough data that can leave
    a solve unconverged, which the caller counts in `krylov_unconverged`.
    At n = 1 the preconditioner is the exact inverse, and `solve_ma` applies
    it without this iteration.

    The preconditioner is the inverse flat quarter-Laplacian, negated, a
    multiplier on the half spectrum, so the iterate, residual and direction
    are carried as half spectra and inner products are taken by Parseval:
    each iteration costs one `apply_L` and one forward transform. B is
    overwritten: it becomes the residual R. Three half spectra, R, X and P,
    live across each `apply_L`: the preconditioned residual Z is a fresh
    array that P absorbs (on the first iteration P is Z), the image Q of P
    is the workspace for the updates of R and then X, and X is allocated,
    as zeros, only after the first matvec. The iteration is scipy's `cg`
    with atol = 0: it stops when the lattice residual norm drops below
    rtol |rhs|, and returns (Psi, info) with info 0 on convergence and the
    iteration count otherwise.
    """
    sym = spectral_symbols(torus)
    R = B
    atol = rtol * np.sqrt(_inner(R, R, sym.parseval))
    if atol == 0.0:
        return np.zeros_like(R), 0
    X = P = None
    for _ in range(_KRYLOV_MAXITER):
        if np.sqrt(_inner(R, R, sym.parseval)) < atol:
            return (np.zeros_like(R) if X is None else X), 0
        Z = np.multiply(R, sym.inv_quarter_lap)  # preconditioned residual
        np.negative(Z, out=Z)
        rho = _inner(R, Z, sym.parseval)
        if P is None:
            P = Z
        else:
            P *= rho / rho_prev
            P += Z
        Z = None
        Q = to_spectrum(apply_L(P))
        np.negative(Q, out=Q)
        alpha = rho / _inner(P, Q, sym.parseval)
        R -= np.multiply(Q, alpha, out=Q)
        if X is None:
            X = np.zeros_like(R)
        X += np.multiply(P, alpha, out=Q)
        Q = None
        rho_prev = rho
    return X, _KRYLOV_MAXITER


_GMRES_M = 30  # Arnoldi steps per GMRES cycle, lgmres's inner_m


def _gmres(apply_L, B: np.ndarray, torus, rtol: float) -> tuple:
    """scipy's lgmres(A, b, M=M, rtol=rtol, atol=0) on half spectra, for the
    conformal n=2 metric, whose torsion breaks the symmetry CG needs; A, M,
    the inner products, the cost of a step and (Psi, info) are `_pcg`'s,
    and B is the half spectrum of b, which is not written to.

    Each cycle runs left-preconditioned GMRES from M(b - A x) and ends at a
    breakdown or once its preconditioned residual, relative to its start,
    drops below min(f, rtol |b| / |b - A x|); f starts at 1, is quartered
    after a cycle that meets that bound and grows 1.5-fold (up to 1) after
    one that does not. A non-finite Arnoldi entry ends the solve with info
    the number of cycles run. Left out of lgmres: its matvec at x = 0, and
    the augmentation vectors that join a cycle only after _GMRES_M Arnoldi
    steps (124 cycles of nine conformal n=2 solves took at most 29).
    """
    sym = spectral_symbols(torus)
    X = np.zeros_like(B)
    b_norm = np.sqrt(_inner(B, B, sym.parseval))
    if b_norm == 0.0:
        return X, 0
    R = B  # b - A x at x = 0
    f = 1.0
    e1 = np.eye(_GMRES_M + 1)[0]
    for cycle in range(_KRYLOV_MAXITER):
        if cycle:
            R = B + to_spectrum(apply_L(X))
        r_norm = np.sqrt(_inner(R, R, sym.parseval))
        if r_norm <= rtol * b_norm:
            return X, 0
        ptol = min(f, rtol * b_norm / r_norm)
        V = [R * sym.inv_quarter_lap]
        R = None
        beta = np.sqrt(_inner(V[0], V[0], sym.parseval))
        V[0] /= -beta  # M(b - A x), normalized
        H = np.zeros((_GMRES_M + 1, _GMRES_M))
        for j in range(_GMRES_M):
            W = to_spectrum(apply_L(V[j]))
            W *= sym.inv_quarter_lap  # M A v_j
            w_norm = np.sqrt(_inner(W, W, sym.parseval))
            for i, v in enumerate(V):
                H[i, j] = _inner(v, W, sym.parseval)
                W -= H[i, j] * v
            H[j + 1, j] = np.sqrt(_inner(W, W, sym.parseval))
            Hj = H[:j + 2, :j + 1]
            if not np.all(np.isfinite(Hj)):
                return X, cycle + 1
            y = np.linalg.lstsq(Hj, e1[:j + 2], rcond=None)[0]
            pres = np.linalg.norm(Hj @ y - e1[:j + 2])
            if pres < ptol or not H[j + 1, j] > np.finfo(float).eps * w_norm:
                break
            W /= H[j + 1, j]
            V.append(W)
        f = min(1.0, 1.5 * f) if pres > ptol else max(1e-16, 0.25 * f)
        X += sum(v * c for v, c in zip(V, beta * y))
        V = W = None
    return X, _KRYLOV_MAXITER


def solve_ma(mu: MeasureField, metric: HermitianMetric, tol: float = 1e-11,
             max_iter: int = 50) -> SolveReport:
    """Damped Newton iteration with spectral preconditioning, from phi = 0.

    At n = 1, omega + dd^c phi = g + Lap(phi)/4, so det g times the
    linearization is Lap/4 exactly: each Newton step is Psi = -B (Lap/4)^-1,
    B the half spectrum of the mean-zero det g * residual, one forward
    transform and no Krylov solve. At n = 2 the step solves the linearized
    system with `_pcg` on a Kaehler metric and `_gmres` otherwise, to an
    Eisenstat-Walker tolerance, and `krylov_unconverged` counts the steps
    whose inner solve did not converge; at n = 1 it is 0.

    The iterate is carried as the half spectrum P of phi, so the forms of the
    line-search trials P + s Psi cost no forward transform; c and the residual
    do not depend on constants, so phi is synthesized on the lattice and
    sup-normalized once, on return; the solve builds no measure of it. The
    residuals reported are those of the spectral iterate. The constant c is
    updated every iteration as the mass ratio (total Monge-Ampere mass) /
    mu(X); on the flat Kaehler torus the numerator is conserved, so c stays
    fixed at vol / mu(X).
    """
    if mu.mass <= 0.0:
        raise PreconditionError("measure must have positive mass")
    torus = metric.torus
    f = mu.density.values
    if not np.all(np.isfinite(f)):
        raise PreconditionError("measure density must be bounded on the lattice")
    detg = metric.det()

    residual_history: list = []

    def diagnostics(M: HermitianForm):
        """(c, residual, sup residual, min eigenvalue) of the form M."""
        det_M = M.det()
        min_eig = float(M.min_eig(det_M).min())
        c = float(np.mean(det_M) * torus.volume) / mu.mass
        res = det_M / detg  # the density, then the residual
        det_M = None
        res -= c * f
        return c, res, float(np.abs(res).max()), min_eig

    form = metric.form()  # of phi = 0
    inv_quarter_lap = spectral_symbols(torus).inv_quarter_lap
    P = np.zeros(inv_quarter_lap.shape, dtype=complex)
    c, res, res_norm, _ = diagnostics(form)
    residual_history.append(res_norm)
    converged = res_norm <= tol
    iterations = 0
    unconverged = 0  # Newton steps whose inner Krylov solve did not converge
    # each step solves -apply_L(psi) = rhs, rhs the mean-zero det g * residual,
    # given to the Krylov method as its half spectrum
    krylov = _pcg if metric.is_kahler else _gmres

    # a name is dropped as soon as its field is dead: the solve's peak memory
    # is a count of live lattice fields
    while not converged and iterations < max_iter:
        iterations += 1
        rhs = res  # not read again: scaled in place
        rhs *= detg
        rhs -= rhs.mean()
        if torus.n == 1:
            # det g L is Lap/4 (the mean its projection removes is 0), so
            # the step is the preconditioner itself: no Krylov solve
            form = res = None
            Psi = to_spectrum(rhs)
            rhs = None
            Psi *= inv_quarter_lap
            np.negative(Psi, out=Psi)
        else:
            norm = float(np.linalg.norm(rhs))
            eta = _ETA_MAX if iterations == 1 else _forcing(eta, norm, prev_norm)
            prev_norm = norm
            # w = f det g / mean(f det g), the direction in which c(phi)
            # moves the residual, lives only as long as apply_L
            apply_L = _linearization(form, metric,
                                     f * detg * (torus.volume / mu.mass))
            form = res = None  # not held in the Krylov solve
            B = to_spectrum(rhs)
            rhs = None
            Psi, info = krylov(apply_L, B, torus, rtol=eta)
            B = apply_L = None
            unconverged += info != 0
        if not np.all(np.isfinite(Psi)):
            raise PreconditionError("Newton step is not finite")
        accepted = _line_search(P, Psi, res_norm, diagnostics, metric)
        Psi = None
        if accepted is None:
            break  # stalled line search; report current state
        P, form, c, res, res_norm = accepted
        accepted = None
        residual_history.append(res_norm)
        converged = res_norm <= tol

    # Only P is read from here on. Dropping form and res moves no tracemalloc
    # peak (n=1 N=1024 flat and N=256 conformal, n=2 N=16 and N=32 flat and
    # conformal), but without it the bench's certificate-n1 peak RSS rose
    # from 136.8 to 147.3 MB, likely as glibc placed phi beside the live form.
    form = res = None
    phi = from_spectrum(torus, P)
    phi -= phi.max()
    phi = GridFunction(torus, phi)
    return SolveReport(
        phi=phi,
        c=c,
        residual_history=residual_history,
        iterations=iterations,
        converged=bool(converged),
        krylov_unconverged=unconverged,
    )


def _line_search(P: np.ndarray, Psi: np.ndarray, res_norm: float, diagnostics,
                 metric: HermitianMetric):
    """Backtracking on the half spectra P + s Psi, s = 1, 1/2, ..., 2^-29.

    Returns (trial, form, c, residual, sup residual) of the first trial whose
    form is positive definite down to the psh tolerance and whose sup
    residual is below res_norm, or None when no positive-definite trial
    lowers it (a stalled search); raises DivergenceError when no trial is
    positive definite.
    """
    # degenerate data pushes the solution onto the boundary of the
    # positive-definite cone, so the line search accepts iterates down to the
    # psh tolerance rather than demanding strict positivity
    pd_floor = -psh_tolerance(metric)
    step = 1.0
    pd_seen = False
    for _ in range(30):
        trial = np.multiply(Psi, step)
        trial += P
        form = omega_form(trial, metric)
        c, res, norm, min_eig = diagnostics(form)
        if min_eig > pd_floor:
            pd_seen = True
            if norm < res_norm:
                return trial, form, c, res, norm
        trial = form = res = None
        step *= 0.5
    if not pd_seen:
        raise DivergenceError("no positive-definite iterate after 30 step halvings")
    return None


def decompose_subsolution(mu: MeasureField, u: GridFunction,
                          metric: HermitianMetric) -> tuple:
    """(C0, h) of the Radon-Nikodym split mu = C0 h omega_u^n, with C0 the
    least such constant and h in [0, 1] a GridFunction; the cone check and
    omega_u^n are read from one form of u."""
    M = omega_form(u, metric)
    if M.min_eig().min() < -psh_tolerance(metric):
        raise PreconditionError("subsolution candidate u is not omega-psh")
    du = measure_of_form(M, metric).density.values
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
    return C0, GridFunction(metric.torus, np.clip(ratio / C0, 0.0, 1.0))


def continuation_solve(schedule: ContinuationSchedule, metric: HermitianMetric,
                       tol: float = 1e-9, max_iter: int = 50) -> SolveReport:
    """Mollified continuation: for each delta_j solve from phi = 0 with
    mu_j = C0 h omega_{u_j}^n.

    The returned report is the final stage; its c_trace holds the per-stage c_j
    and cauchy_diffs the sup-norm gaps between consecutive stage solutions (the
    computable stand-in for the Cauchy-sequence argument); krylov_unconverged
    sums over the stages. When `psh_repair` returns u_j unchanged, omega_{u_j}^n
    is the measure of the form the repair verified, which is the form of u_j
    bit for bit, so it costs no transform.
    """
    if not schedule.delta_list:
        raise PreconditionError("schedule has no mollification radii")
    reports = []
    u_family = Mollifications(schedule.u)
    for delta in schedule.delta_list:
        u_j, M = psh_repair(u_family(delta), metric)
        ma_uj = ma_measure(u_j, metric) if M is None else measure_of_form(M, metric)
        M = None
        dens_j = schedule.C0 * schedule.h.values * ma_uj.density.values
        mu_j = MeasureField.from_density(GridFunction(metric.torus, dens_j), metric)
        reports.append(solve_ma(mu_j, metric, tol=tol, max_iter=max_iter))
    cauchy = [float(np.abs(b.phi.values - a.phi.values).max())
              for a, b in zip(reports, reports[1:])]
    return replace(reports[-1], c_trace=[r.c for r in reports], cauchy_diffs=cauchy,
                   krylov_unconverged=sum(r.krylov_unconverged for r in reports))
