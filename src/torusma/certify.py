"""Mechanized inequality chains: stability estimate, Hoelder certificate and
the convexity (mixture) experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capacity import estimate_capacity
from .errors import DominationError, PreconditionError
from .geometry import GridFunction, HermitianMetric, integrate, omega_form
from .pluripotential import (
    MeasureField,
    is_omega_psh,
    ma_measure,
    measure_of_form,
    psh_tolerance,
    sublevel,
)
from .regularize import (
    KLTransform,
    Mollifications,
    kernel_second_moment,
    kiselman_legendre,
    l1_rate,
    rate_deltas,
)
from .solver import SolveReport, solve_ma

# Pointwise chain checks run on lattice-smooth representatives; this slack
# absorbs spectral discretization error in the sub-mean-value inequalities.
CHAIN_SLACK = 1e-6


def stability_gamma(n: int, tau: float) -> float:
    """gamma = 1 / (1 + (n+2)(n + 1/tau))."""
    if tau <= 0.0:
        raise PreconditionError(f"tau must be positive, got {tau}")
    return 1.0 / (1.0 + (n + 2) * (n + 1.0 / tau))


# ---------------------------------------------------------------------------
# stability estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityRow:
    """One (eps, s, t) sample of the capacity-growth inequality."""

    eps: float
    s: float
    t: float
    cap_lower_s: float
    mu_mass_st: float
    hbar_s: float
    slack: float  # fitted-C inequality slack, >= 0 when the row passes


@dataclass(frozen=True)
class StabilityCheck:
    gamma: float
    lhs: float      # sup_X (psi - phi)
    C: float        # smallest constant making lhs <= C ||(psi - phi)_+||^gamma
    rhs: float
    passed: bool
    growth_C: float        # fitted constant of the capacity-growth rows
    ledger: list = field(default_factory=list)


def _log_points(upper: float):
    """Five points log-spaced over the two decades below `upper`."""
    return [upper * 10.0 ** (-2.0 * k / 4) for k in range(5)]


def stability_check(psi: GridFunction, phi: GridFunction, mu: MeasureField,
                    tau: float, metric: HermitianMetric,
                    budget: int) -> StabilityCheck:
    """Evaluate sup(psi - phi) <= C ||(psi - phi)_+||^gamma and the capacity
    growth ledger on a grid of (eps, s, t) in the admissible ranges, with
    eps in (0.1, 0.2, 0.3) and hbar(s) = s^(1/tau).

    Capacity lower bounds weaken only the left side of each ledger row, so a
    PASS is conservative. Sublevel sets recur across (eps, s); the capacity
    estimate is deterministic in its set, so each distinct set is estimated
    once.
    """
    n = metric.torus.n
    tol = psh_tolerance(metric)
    if psi.values.max() > tol:
        raise PreconditionError("psi must be <= 0")
    M = omega_form(phi, metric)  # phi's cone check and measure read one form
    if not (is_omega_psh(psi, metric) and M.min_eig().min() >= -tol):
        raise PreconditionError("psi and phi must be omega-psh")
    model = measure_of_form(M, metric).density.values
    del M
    mismatch = float(np.abs(model - mu.density.values).max())
    if mismatch > 1e-8 * max(1.0, float(mu.density.values.max())):
        raise PreconditionError(
            f"mu does not match (omega + dd^c phi)^n: sup mismatch {mismatch:.3e}"
        )

    gamma = stability_gamma(n, tau)
    diff = psi.values - phi.values
    lhs = float(diff.max())
    l1 = integrate(np.maximum(diff, 0.0) * mu.density.values, metric)
    if l1 > 0.0 and lhs > 0.0:
        C = lhs / l1**gamma
    else:
        C = 0.0
    rhs = C * l1**gamma
    passed = lhs <= rhs + 1e-12

    # capacity-growth ledger rows: t^n cap(U(eps,s)) <= C mu(U(eps,s+t))
    B = metric.B
    caps = {}  # mask bytes -> certified lower bound
    rows_raw = []
    for eps in (0.1, 0.2, 0.3):
        eps_B = eps**n / 3.0 if B == 0.0 else min(eps**n, eps**3 / (16.0 * B)) / 3.0
        t_max = 4.0 / 3.0 * (1.0 - eps) * 3.0 * eps_B
        for s in _log_points(eps_B):
            E_s = sublevel(phi, psi, eps, s)
            key = E_s.tobytes()
            if key not in caps:
                caps[key] = estimate_capacity(E_s, metric, budget=budget).lower
            cap_s = caps[key]
            hbar = s ** (1.0 / tau)
            for t in _log_points(min(t_max, eps_B)):
                mass_st = mu.mass_on(sublevel(phi, psi, eps, s + t), metric)
                rows_raw.append((eps, s, t, cap_s, mass_st, hbar))
    ratios = [t**n * cap / mass for (_, s, t, cap, mass, _) in rows_raw if mass > 0.0]
    growth_C = max(ratios) if ratios else 0.0
    ledger = []
    for eps, s, t, cap, mass, hbar in rows_raw:
        slack = growth_C * mass - t**n * cap
        ledger.append(StabilityRow(eps, s, t, cap, mass, hbar, float(slack)))

    return StabilityCheck(
        gamma=gamma, lhs=lhs, C=float(C), rhs=float(rhs), passed=bool(passed),
        growth_C=float(growth_C), ledger=ledger,
    )


# ---------------------------------------------------------------------------
# Hoelder certificate
# ---------------------------------------------------------------------------

def _kl_level(delta: float, alpha: float, K_eff: float, A: float) -> float:
    """Kiselman-Legendre level b = (delta^alpha - 2 K_eff delta) / A, or
    delta^alpha when A = 0 (the Hessian bound then holds for any b)."""
    if A == 0.0:
        return delta**alpha
    b = (delta**alpha - 2.0 * K_eff * delta) / A
    if b <= 0.0:
        raise PreconditionError(
            f"delta {delta} too large for the level formula: delta^alpha <= 2 K delta"
        )
    return b


def check_level_formula(metric: HermitianMetric, tau: float, delta_list) -> None:
    """Raise before any solve when the level formula fails at alpha = gamma.

    The certificate uses alpha = min(gamma, alpha1) <= gamma, and delta < 1
    gives delta^alpha >= delta^gamma, so a ladder that passes here passes for
    every fitted alpha1.
    """
    n = metric.torus.n
    gamma = stability_gamma(n, tau)
    K_eff = metric.K + kernel_second_moment(n)
    for d in sorted((float(d) for d in delta_list), reverse=True):
        _kl_level(d, gamma, K_eff, metric.A)


@dataclass(frozen=True)
class CertificateRow:
    delta: float
    b: float
    gap: float        # sup(Phi_delta - phi)
    t0_min: float
    kappa_hat: float
    modulus: float    # sup(rho_{kappa delta} phi - phi)
    sandwich_ok: bool
    diff2_ok: bool


@dataclass(frozen=True)
class HoelderCertificate:
    alpha: float
    alpha1: float
    gamma: float
    kappa: float               # formula value exp(-2 A C6 / (1 - delta0^alpha))
    C4: float
    C6: float
    C7: float
    measured_exponent: float
    rows: list
    passed: bool
    trivial: bool = False


def _certificate_row(family: Mollifications, d: float, b: float, T: KLTransform,
                     alpha: float, K_eff: float, C4: float,
                     scale: float) -> CertificateRow:
    """The checks of one delta of the Hoelder chain on its Kiselman-Legendre
    transform T; the modulus radius kappa_hat d = t0_min and the modulus come
    from the transform.

    Every lattice expression is evaluated on slabs of the leading axis, so
    the row holds no work field of the lattice size; the checks reduce only
    by max and all, which are the same over slabs as over the lattice."""
    phi = family.phi.values
    value = T.value.values
    rho = family(d).values
    shrink, bound = 1.0 - d**alpha, C4 * d**alpha
    step = max(1, len(phi) // 16)
    sandwich_ok = diff1_ok = diff2_ok = True
    gaps = []
    for k in range(0, len(phi), step):
        p, v = phi[k:k + step], value[k:k + step]
        upper = np.add(rho[k:k + step], K_eff * d)
        upper += K_eff * d * d
        sandwich_ok &= bool(np.all(v >= p - scale) and np.all(v <= upper + scale))
        Phi_d = shrink * v
        diff1_ok &= bool(Phi_d.max() <= bound + scale)
        # upper becomes diff2_rhs + scale, with
        # diff2_rhs = C4 d^alpha + (1 - d^alpha) (upper - phi)
        upper -= p
        upper *= shrink
        np.add(bound, upper, out=upper)
        upper += scale
        gap = np.subtract(Phi_d, p, out=Phi_d)
        diff2_ok &= bool(np.all(gap <= upper))
        gaps.append(gap.max())
    return CertificateRow(
        delta=d, b=float(b), gap=float(max(gaps)), t0_min=T.t0_min,
        kappa_hat=float(T.t0_min / d), modulus=T.modulus, sandwich_ok=sandwich_ok,
        diff2_ok=diff2_ok and diff1_ok,
    )


def check_solution(family: Mollifications, mu: MeasureField,
                   metric: HermitianMetric) -> None:
    """The Hoelder chain's first step: raise unless the phi of `family`
    solves (omega + dd^c phi)^n = c mu up to the constant c. The model
    measure is built from the family's half spectrum of phi, so phi is not
    transformed again, and dropped on return, before the rate fit."""
    model = measure_of_form(omega_form(family.spectrum, metric), metric)
    c = model.mass / mu.mass
    mismatch = float(np.abs(model.density.values - c * mu.density.values).max())
    if mismatch > 1e-6 * max(1.0, c * float(mu.density.values.max())):
        raise PreconditionError(
            f"phi does not solve omega_phi^n = c mu: sup mismatch {mismatch:.3e}"
        )


def hoelder_certificate(family: Mollifications, mu: MeasureField, tau: float,
                        metric: HermitianMetric, delta_list) -> HoelderCertificate:
    """Run the full Hoelder chain on a solution phi of
    (omega + dd^c phi)^n = c mu, which its first step, `check_solution`,
    verifies.

    `family` is the family rho_t phi of the sup-normalized solution phi
    (sup phi = 0, as `solve_ma` returns it). The rate fit reads the ladder
    from the largest radius down and releases the radii above the largest
    delta, which no later step reads; the Kiselman-Legendre transform
    convolves what its rows read and releases the spectrum of phi. Then
    one row at a time is formed, checked and dropped. Each radius is
    convolved once, and the radii the transform read stay in the family
    until it dies: the peak is reached during the first row, so freeing
    one after a later row would lower nothing.

    The monotonicity level uses K_eff = metric.K + sigma_n (kernel second
    moment): the omega term contributes sigma_n t^2 to the Kiselman-Legendre
    minimand even at zero curvature, so the flat-torus level is not literally
    zero. With A = 0 the Hessian bound holds for any b, and the level is taken
    as b = delta^alpha, preserving the O(delta^alpha) order the chain needs.
    """
    torus = metric.torus
    n = torus.n
    deltas = sorted((float(d) for d in delta_list), reverse=True)
    ladder = rate_deltas(deltas, torus)
    phi = family.phi
    top = phi.values.max()
    if top != 0.0:
        raise PreconditionError(f"phi must be sup-normalized, got sup phi = {top:.3e}")
    check_solution(family, mu, metric)
    gamma = stability_gamma(n, tau)

    span = top - phi.values.min()
    if span < 1e-13:
        return HoelderCertificate(
            alpha=gamma, alpha1=1.0, gamma=gamma, kappa=1.0, C4=0.0, C6=0.0,
            C7=0.0, measured_exponent=1.0, rows=[], passed=True, trivial=True,
        )

    # the radii above the largest delta are read by the rate fit alone
    alpha1, _ = l1_rate(family, mu, ladder, metric,
                        keep=[d for d in ladder if d <= deltas[0]])
    alpha = min(gamma, alpha1)
    if alpha <= 0.0:
        raise PreconditionError(f"nonpositive fitted exponent alpha1 = {alpha1}")

    K_eff = metric.K + kernel_second_moment(n)
    A = metric.A
    C4 = float(-phi.values.min())
    scale = CHAIN_SLACK * (1.0 + span)
    delta0 = deltas[0]

    levels = [(d, _kl_level(d, alpha, K_eff, A)) for d in deltas]
    transforms = kiselman_legendre(family, levels, K_eff)
    # one transform at a time: each is checked and dropped before the next
    # is formed, so no zip may hold the previous one
    rows = [_certificate_row(family, d, b, next(transforms), alpha, K_eff, C4,
                             scale)
            for d, b in levels]

    exp_pow = alpha * alpha1
    C6 = max((max(r.gap, 0.0) / r.delta**exp_pow for r in rows), default=0.0)
    C7 = max((max(r.modulus, 0.0) / r.delta**exp_pow for r in rows), default=0.0)
    kappa = 1.0 if A == 0.0 else math.exp(-2.0 * A * C6 / (1.0 - delta0**alpha))

    pos = [(math.log(r.delta), math.log(r.modulus)) for r in rows if r.modulus > 0.0]
    measured = float(np.polyfit(*zip(*pos), 1)[0]) if len(pos) >= 2 else 1.0

    finite = all(np.isfinite([C4, C6, C7, kappa, alpha1]))
    all_ok = all(r.sandwich_ok and r.diff2_ok for r in rows)
    return HoelderCertificate(
        alpha=float(alpha), alpha1=float(alpha1), gamma=float(gamma),
        kappa=float(kappa), C4=C4, C6=float(C6), C7=float(C7),
        measured_exponent=measured, rows=rows, passed=bool(all_ok and finite),
    )


# ---------------------------------------------------------------------------
# convexity (mixture) experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureResult:
    report: SolveReport
    certificate: HoelderCertificate
    domination_slack: float


def mixture_measure(phi1: GridFunction, phi2: GridFunction, c1: float, c2: float,
                    metric: HermitianMetric) -> tuple:
    """(density of mu := (c1 omega_{phi1}^n + c2 omega_{phi2}^n)/2, pointwise
    slack of mu <= 2^(n-1) (c1 + c2) (omega + dd^c (phi1+phi2)/2)^n); a
    negative slack means the domination is violated."""
    n = metric.torus.n
    d1 = ma_measure(phi1, metric).density.values
    d2 = ma_measure(phi2, metric).density.values
    mixed = 0.5 * (c1 * d1 + c2 * d2)
    avg = GridFunction(metric.torus, 0.5 * (phi1.values + phi2.values))
    dom = 2.0 ** (n - 1) * (c1 + c2) * ma_measure(avg, metric).density.values
    return mixed, float((dom - mixed).min())


def mixture_experiment(phi1: GridFunction, phi2: GridFunction, c1: float, c2: float,
                       metric: HermitianMetric, tol: float = 1e-9,
                       tau: float = 1.0, delta_list=(1 / 8, 1 / 16, 1 / 32),
                       max_iter: int = 50) -> MixtureResult:
    """Form the mixture measure, verify the convexity domination pointwise,
    solve for it, and certify the solution's Hoelder chain."""
    if c1 <= 0.0 or c2 <= 0.0:
        raise PreconditionError("mixture weights must be positive")
    mixed, slack = mixture_measure(phi1, phi2, c1, c2, metric)
    if slack < -1e-10:
        raise DominationError(
            f"mixture domination violated by {slack:.3e} (discretization artifact)"
        )
    mu = MeasureField.from_density(GridFunction(metric.torus, mixed), metric)
    del mixed  # mu holds its own clamped copy
    report = solve_ma(mu, metric, tol=tol, max_iter=max_iter)
    cert = hoelder_certificate(Mollifications(report.phi), mu, tau, metric,
                               delta_list)
    return MixtureResult(report=report, certificate=cert, domination_slack=slack)
