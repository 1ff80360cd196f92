"""Mechanized inequality chains: stability estimate, Hoelder certificate,
subsolution and convexity experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capacity import estimate_capacity
from .errors import DominationError, PreconditionError
from .geometry import GridFunction, HermitianMetric, integrate, to_spectrum
from .pluripotential import (
    MeasureField,
    is_omega_psh,
    ma_measure,
    psh_tolerance,
    sublevel,
)
from .regularize import (
    kernel_second_moment,
    kiselman_legendre,
    l1_rate,
    mollify,
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


def check_subsolution(mu: MeasureField, u: GridFunction, C0: float,
                      metric: HermitianMetric) -> bool:
    """Pointwise density comparison mu <= C0 (omega + dd^c u)^n with 1e-10 slack."""
    if not is_omega_psh(u, metric):
        raise PreconditionError("u is not omega-psh within tolerance")
    bound = C0 * ma_measure(u, metric).density.values
    return bool(np.all(mu.density.values <= bound + 1e-10))


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
    tau: float
    lhs: float      # sup_X (psi - phi)
    l1_norm: float  # ||(psi - phi)_+||_{L1(d mu)}
    C: float        # smallest constant making lhs <= C l1^gamma
    rhs: float
    passed: bool
    growth_C: float        # fitted constant of the capacity-growth rows
    apriori_C: float       # fitted constant of s <= C cap^(tau/n)
    ledger: list = field(default_factory=list)


def _log_points(upper: float, count: int = 5, decades: float = 2.0):
    return [upper * 10.0 ** (-decades * k / (count - 1)) for k in range(count)]


def stability_check(psi: GridFunction, phi: GridFunction, mu: MeasureField,
                    tau: float, metric: HermitianMetric, C_tau: float = 1.0,
                    eps_grid=(0.1, 0.2, 0.3), budget: int = 25) -> StabilityCheck:
    """Evaluate sup(psi - phi) <= C ||(psi - phi)_+||^gamma and the capacity
    growth ledger on a grid of (eps, s, t) in the admissible ranges.

    Capacity lower bounds weaken only the left side of each ledger row, so a
    PASS is conservative. `C_tau` feeds hbar(s) = (s / C_tau)^(1/tau).
    """
    n = metric.torus.n
    tol = psh_tolerance(metric)
    if psi.values.max() > tol:
        raise PreconditionError("psi must be <= 0")
    if not (is_omega_psh(psi, metric) and is_omega_psh(phi, metric)):
        raise PreconditionError("psi and phi must be omega-psh")
    model = ma_measure(phi, metric)
    mismatch = float(np.abs(model.density.values - mu.density.values).max())
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
    rows_raw = []
    for eps in eps_grid:
        eps_B = eps**n / 3.0 if B == 0.0 else min(eps**n, eps**3 / (16.0 * B)) / 3.0
        t_max = 4.0 / 3.0 * (1.0 - eps) * 3.0 * eps_B
        for s in _log_points(eps_B):
            E_s = sublevel(phi, psi, eps, s)
            cap_s = estimate_capacity(E_s, metric, budget=budget).lower
            hbar = (s / C_tau) ** (1.0 / tau)
            for t in _log_points(min(t_max, eps_B)):
                E_st = sublevel(phi, psi, eps, s + t)
                mass_st = mu.mass_on(E_st.mask, metric)
                rows_raw.append((eps, s, t, cap_s, mass_st, hbar))
    ratios = [t**n * cap / mass for (_, s, t, cap, mass, _) in rows_raw if mass > 0.0]
    growth_C = max(ratios) if ratios else 0.0
    ledger = []
    for eps, s, t, cap, mass, hbar in rows_raw:
        slack = growth_C * mass - t**n * cap
        ledger.append(StabilityRow(eps, s, t, cap, mass, hbar, float(slack)))
    apriori = [s / cap ** (tau / n) for (_, s, _, cap, _, _) in rows_raw if cap > 0.0]
    apriori_C = max(apriori) if apriori else 0.0

    return StabilityCheck(
        gamma=gamma, tau=tau, lhs=lhs, l1_norm=l1, C=float(C), rhs=float(rhs),
        passed=bool(passed), growth_C=float(growth_C), apriori_C=float(apriori_C),
        ledger=ledger,
    )


# ---------------------------------------------------------------------------
# Hoelder certificate
# ---------------------------------------------------------------------------

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
    tau: float
    kappa: float               # formula value exp(-2 A C6 / (1 - delta0^alpha))
    delta0: float
    C4: float
    C6: float
    C7: float
    measured_exponent: float
    rows: list
    passed: bool
    trivial: bool = False


def hoelder_certificate(phi: GridFunction, mu: MeasureField, tau: float,
                        metric: HermitianMetric, delta_list) -> HoelderCertificate:
    """Run the full Hoelder chain on a solution of (omega + dd^c phi)^n = c mu.

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

    # precondition: phi solves the equation for mu up to the constant
    model = ma_measure(phi, metric)
    c = model.mass / mu.mass
    mismatch = float(np.abs(model.density.values - c * mu.density.values).max())
    if mismatch > 1e-6 * max(1.0, c * float(mu.density.values.max())):
        raise PreconditionError(
            f"phi does not solve omega_phi^n = c mu: sup mismatch {mismatch:.3e}"
        )

    phi = phi.sup_normalized()
    gamma = stability_gamma(n, tau)

    span = phi.values.max() - phi.values.min()
    if span < 1e-13:
        return HoelderCertificate(
            alpha=gamma, alpha1=1.0, gamma=gamma, tau=tau, kappa=1.0,
            delta0=deltas[0], C4=0.0, C6=0.0, C7=0.0, measured_exponent=1.0,
            rows=[], passed=True, trivial=True,
        )

    phi_hat = to_spectrum(phi.values)  # shared by every mollification below
    alpha1, _ = l1_rate(phi, mu, ladder, metric, phi_hat)
    alpha = min(gamma, alpha1)
    if alpha <= 0.0:
        raise PreconditionError(f"nonpositive fitted exponent alpha1 = {alpha1}")

    K_eff = metric.K + kernel_second_moment(n)
    A = metric.A
    C4 = float(-phi.values.min())
    scale = CHAIN_SLACK * (1.0 + span)
    delta0 = deltas[0]

    rows = []
    all_ok = True
    gaps, moduli = [], []
    for d in deltas:
        if A > 0.0:
            b = (d**alpha - 2.0 * K_eff * d) / A
            if b <= 0.0:
                raise PreconditionError(
                    f"delta {d} too large for the level formula: delta^alpha <= 2 K delta"
                )
        else:
            b = d**alpha
        T = kiselman_legendre(phi, d, b, K_eff, phi_hat)
        rho_d = T.rho_delta.values
        upper = rho_d + K_eff * d + K_eff * d * d
        sandwich_ok = bool(
            np.all(T.value.values >= phi.values - scale)
            and np.all(T.value.values <= upper + scale)
        )
        Phi_d = (1.0 - d**alpha) * T.value.values
        diff1_ok = bool(Phi_d.max() <= C4 * d**alpha + scale)
        diff2_rhs = C4 * d**alpha + (1.0 - d**alpha) * (upper - phi.values)
        diff2_ok = bool(np.all(Phi_d - phi.values <= diff2_rhs + scale))
        gap = float((Phi_d - phi.values).max())
        t0_min = float(T.t_opt.values.min())
        kappa_hat = t0_min / d
        r = max(kappa_hat * d, 2.0 * torus.spacing)
        modulus = float((mollify(phi, r, phi_hat).values - phi.values).max())
        rows.append(CertificateRow(
            delta=d, b=float(b), gap=gap, t0_min=t0_min, kappa_hat=float(kappa_hat),
            modulus=modulus, sandwich_ok=sandwich_ok, diff2_ok=diff2_ok and diff1_ok,
        ))
        all_ok = all_ok and sandwich_ok and diff1_ok and diff2_ok
        gaps.append((d, gap))
        moduli.append((d, modulus))

    exp_pow = alpha * alpha1
    C6 = max((max(g, 0.0) / d**exp_pow for d, g in gaps), default=0.0)
    C7 = max((max(mo, 0.0) / d**exp_pow for d, mo in moduli), default=0.0)
    kappa = 1.0 if A == 0.0 else math.exp(-2.0 * A * C6 / (1.0 - delta0**alpha))

    pos = [(math.log(d), math.log(mo)) for d, mo in moduli if mo > 0.0]
    if len(pos) >= 2:
        slope, _ = np.polyfit([p[0] for p in pos], [p[1] for p in pos], 1)
        measured = float(slope)
    else:
        measured = 1.0

    finite = all(np.isfinite([C4, C6, C7, kappa, alpha1]))
    return HoelderCertificate(
        alpha=float(alpha), alpha1=float(alpha1), gamma=float(gamma), tau=float(tau),
        kappa=float(kappa), delta0=float(delta0), C4=C4, C6=float(C6), C7=float(C7),
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


def mixture_domination_slack(phi1: GridFunction, phi2: GridFunction,
                             c1: float, c2: float,
                             metric: HermitianMetric) -> float:
    """Pointwise slack of mu := (c1 omega_{phi1}^n + c2 omega_{phi2}^n)/2
    <= 2^(n-1) (c1 + c2) (omega + dd^c (phi1+phi2)/2)^n; negative means violated."""
    n = metric.torus.n
    d1 = ma_measure(phi1, metric).density.values
    d2 = ma_measure(phi2, metric).density.values
    mixed = 0.5 * (c1 * d1 + c2 * d2)
    avg = GridFunction(metric.torus, 0.5 * (phi1.values + phi2.values))
    dom = 2.0 ** (n - 1) * (c1 + c2) * ma_measure(avg, metric).density.values
    return float((dom - mixed).min())


def mixture_experiment(phi1: GridFunction, phi2: GridFunction, c1: float, c2: float,
                       metric: HermitianMetric, tol: float = 1e-9,
                       tau: float = 1.0, delta_list=(1 / 8, 1 / 16, 1 / 32),
                       max_iter: int = 50) -> MixtureResult:
    """Form the mixture measure, verify the convexity domination pointwise,
    solve for it, and certify the solution's Hoelder chain."""
    if c1 <= 0.0 or c2 <= 0.0:
        raise PreconditionError("mixture weights must be positive")
    slack = mixture_domination_slack(phi1, phi2, c1, c2, metric)
    if slack < -1e-10:
        worst = slack
        raise DominationError(
            f"mixture domination violated by {worst:.3e} (discretization artifact)"
        )
    d1 = ma_measure(phi1, metric).density.values
    d2 = ma_measure(phi2, metric).density.values
    mu = MeasureField.from_density(
        GridFunction(metric.torus, 0.5 * (c1 * d1 + c2 * d2)), metric
    )
    report = solve_ma(mu, metric, tol=tol, max_iter=max_iter)
    cert = hoelder_certificate(report.phi, mu, tau, metric, delta_list)
    return MixtureResult(report=report, certificate=cert, domination_slack=slack)


# ---------------------------------------------------------------------------
# L^p singular density fixture
# ---------------------------------------------------------------------------

def lp_density_fixture(p: float, singularity_exponent: float,
                       metric: HermitianMetric, center=None,
                       subsamples: int = 8) -> MeasureField:
    """Density dist(z, z0)^(-s), cell-averaged at the singular point and
    normalized to unit mass; requires s p < 2n so the density is in L^p."""
    torus = metric.torus
    n = torus.n
    s = singularity_exponent
    if p <= 1.0:
        raise PreconditionError("p must exceed 1")
    if s < 0.0:
        raise PreconditionError("singularity exponent must be nonnegative")
    if s * p >= 2 * n:
        raise PreconditionError(f"s*p = {s*p} >= 2n = {2*n}: density not in L^p")
    if center is None:
        center = (0.0,) * torus.ndim_real
    if s == 0.0:
        dens = np.ones(torus.shape)
    else:
        dist = torus.periodic_distance(center)
        with np.errstate(divide="ignore"):
            dens = np.where(dist > 0.0, dist, 1.0) ** (-s)
        # cell-average at lattice points coinciding with the singularity
        sing = dist == 0.0
        if sing.any():
            h = torus.spacing
            offs = (np.arange(subsamples) + 0.5) / subsamples - 0.5
            grids = np.meshgrid(*([offs * h] * torus.ndim_real), indexing="ij")
            r = np.sqrt(sum(g**2 for g in grids))
            dens[sing] = float(np.mean(r**-s))
    mu = MeasureField.from_density(GridFunction(torus, dens), metric)
    return mu.scaled(1.0 / mu.mass, metric)
