"""Demailly mollification, Kiselman-Legendre transform, regularization-rate fits.

On the flat torus the exponential map of the Chern connection is z + zeta, so
the regularization is an ordinary (periodic) convolution with the compactly
supported kernel rho(t) = eta (1-t)^(-2) exp(1/(t-1)) on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import PreconditionError
from .geometry import (
    GridFunction,
    HermitianMetric,
    Torus,
    complex_hessian,
    from_spectrum,
    integrate,
    inverse_quarter_laplacian,
    min_eig_field,
    to_spectrum,
)
from .pluripotential import MeasureField, psh_tolerance


def kernel_profile_raw(t):
    """Unnormalized profile (1-t)^(-2) exp(1/(t-1)) for 0 <= t <= 1, else 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t >= 0.0) & (t < 1.0)
    ti = t[inside]
    out[inside] = (1.0 - ti) ** -2 * np.exp(1.0 / (ti - 1.0))
    return out


_SPHERE_FACTOR = {1: 2.0 * np.pi, 2: 2.0 * np.pi**2}  # area of S^{2n-1}


@lru_cache(maxsize=None)
def kernel_eta(n: int) -> float:
    """Normalization constant: integral of rho(||z||^2) over C^n equals 1."""
    if n not in (1, 2):
        raise PreconditionError("dimension must be 1 or 2")

    def radial(r):
        return float(kernel_profile_raw(np.array([r * r]))[0]) * r ** (2 * n - 1)

    val, _ = quad(radial, 0.0, 1.0, limit=200)
    return 1.0 / (_SPHERE_FACTOR[n] * val)


@lru_cache(maxsize=None)
def kernel_second_moment(n: int) -> float:
    """sigma_n = integral of ||z||^2 rho(||z||^2) over C^n.

    This is the exact monotonicity constant for the flat torus: for omega-psh
    phi, t -> rho_t phi + sigma_n t^2 is nondecreasing (phi(z+zeta) + ||zeta||^2
    is psh in zeta), even though the Chern curvature vanishes.
    """
    eta = kernel_eta(n)

    def radial(r):
        return float(kernel_profile_raw(np.array([r * r]))[0]) * r ** (2 * n + 1)

    val, _ = quad(radial, 0.0, 1.0, limit=200)
    return eta * _SPHERE_FACTOR[n] * val


@dataclass(frozen=True)
class MollifierKernel:
    """Discretized unit-mass kernel at radius delta on a torus lattice."""

    torus: Torus
    delta: float
    spectrum: np.ndarray        # real rfftn half spectrum (the kernel is even)
    continuum_mass: float       # Riemann mass with the continuum eta, before renormalization


def build_kernel(torus: Torus, delta: float) -> MollifierKernel:
    if not 0.0 < delta <= 0.25:
        raise PreconditionError(f"delta must lie in (0, 1/4], got {delta}")
    if delta < 2.0 * torus.spacing:
        raise PreconditionError(
            f"delta = {delta} under-resolved: needs >= 2 lattice spacings = {2*torus.spacing}"
        )
    return _kernel(torus, float(delta))


@lru_cache(maxsize=32)
def _kernel(torus: Torus, delta: float) -> MollifierKernel:
    d2 = torus.periodic_distance((0.0,) * torus.ndim_real) ** 2
    raw = kernel_profile_raw(d2 / delta**2)
    eta = kernel_eta(torus.n)
    cell = torus.spacing ** torus.ndim_real
    continuum_mass = float(eta * raw.sum() * cell / delta ** (2 * torus.n))
    total = raw.sum()
    if total <= 0.0:
        raise PreconditionError("discrete kernel has no support points")
    spectrum = to_spectrum(raw / total).real.copy()
    spectrum.setflags(write=False)
    return MollifierKernel(torus, delta, spectrum, continuum_mass)


def mollify(phi: GridFunction, delta: float, spectrum: np.ndarray = None) -> GridFunction:
    """rho_delta phi: periodic convolution with the discrete unit-mass kernel.

    `spectrum` is phi's `to_spectrum` when the caller already has it.
    """
    torus = phi.torus
    kernel = build_kernel(torus, delta)
    if spectrum is None:
        spectrum = to_spectrum(phi.values)
    return GridFunction(torus, from_spectrum(torus, spectrum * kernel.spectrum))


# ---------------------------------------------------------------------------
# psh repair: approximate projection back into the omega-psh cone
# ---------------------------------------------------------------------------

def _clamp_eigs(M: np.ndarray, floor: float) -> np.ndarray:
    n = M.shape[-1]
    if n == 1:
        out = M.copy()
        out[..., 0, 0] = np.maximum(M[..., 0, 0].real, floor)
        return out
    a = M[..., 0, 0].real
    d = M[..., 1, 1].real
    b = M[..., 0, 1]
    half_tr = 0.5 * (a + d)
    det = a * d - (b * np.conj(b)).real
    disc = np.sqrt(np.maximum(half_tr**2 - det, 0.0))
    lam1 = half_tr - disc
    deficit = np.maximum(floor - lam1, 0.0)
    # rank-one correction along the min-eigenvalue eigenvector;
    # when b == 0 fall back to the basis vector of the smaller diagonal entry
    has_b = np.abs(b) > 1e-300
    vx = np.where(has_b, b, np.where(a <= d, 1.0, 0.0)).astype(complex)
    vy = np.where(has_b, (lam1 - a).astype(complex), np.where(a <= d, 0.0, 1.0))
    norm2 = (vx * np.conj(vx) + vy * np.conj(vy)).real
    norm2 = np.where(norm2 > 0.0, norm2, 1.0)
    out = M.copy()
    out[..., 0, 0] += deficit * (vx * np.conj(vx)).real / norm2
    out[..., 1, 1] += deficit * (vy * np.conj(vy)).real / norm2
    out[..., 0, 1] += deficit * vx * np.conj(vy) / norm2
    out[..., 1, 0] += deficit * vy * np.conj(vx) / norm2
    return out


def psh_repair(f: GridFunction, metric: HermitianMetric, rounds: int = 5) -> GridFunction:
    """Push f toward the omega-psh cone.

    Pointwise eigenvalue clamp of g + H(f) followed by spectral reconstruction
    matching the clamped trace; iterated. Not a true metric projection: callers
    must re-verify feasibility. A contraction toward the zero function is used
    as a last resort (it always lands in the cone since g is positive).
    """
    tol = psh_tolerance(metric)
    g = metric.g
    current = f
    for _ in range(rounds):
        H = complex_hessian(current)
        M = g + H
        defect = float(min_eig_field(M).min())
        if defect >= -tol:
            return current
        clamped = _clamp_eigs(M, 0.0)
        target_trace = np.trace(clamped - g, axis1=-2, axis2=-1).real
        mean = float(current.values.mean())
        rebuilt = inverse_quarter_laplacian(f.torus, target_trace) + mean
        current = GridFunction(f.torus, rebuilt)
    defect = float(min_eig_field(g + complex_hessian(current)).min())
    if defect >= -tol:
        return current
    lam = metric.min_eig()
    theta = lam / (lam - defect + tol)
    return GridFunction(f.torus, theta * current.values)


# ---------------------------------------------------------------------------
# Kiselman-Legendre transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KLTransform:
    """inf over t in (0, delta] of rho_t phi + K t^2 + K t - b log(t / delta)."""

    b: float
    delta: float
    K: float
    value: GridFunction
    t_opt: GridFunction
    t_grid: tuple
    rho_delta: GridFunction  # rho_delta phi, the mollification at t = delta


def kiselman_legendre(phi: GridFunction, delta: float, b: float, K: float,
                      spectrum: np.ndarray = None) -> KLTransform:
    """Infimum over a geometric t-grid {delta 2^-k}; the -b log(t/delta) term
    blows up as t -> 0, so truncating the grid at two lattice spacings is safe
    once rho_t phi is bounded. `spectrum` is phi's `to_spectrum` if known."""
    if b <= 0.0:
        raise PreconditionError(f"level b must be positive, got {b}")
    torus = phi.torus
    if delta < 2.0 * torus.spacing:
        raise PreconditionError("delta must be at least two lattice spacings")
    t_min = 2.0 * torus.spacing
    k_max = max(0, int(math.floor(math.log2(delta / t_min))))
    t_grid = tuple(delta * 2.0**-k for k in range(k_max + 1))
    if spectrum is None:
        spectrum = to_spectrum(phi.values)
    best = None
    best_t = None
    rho_delta = None
    for t in t_grid:
        rho_t = mollify(phi, t, spectrum)
        cand = rho_t.values + K * t * t + K * t - b * math.log(t / delta)
        if best is None:
            rho_delta = rho_t
            best = cand
            best_t = np.full(torus.shape, t)
        else:
            take = cand < best
            best = np.where(take, cand, best)
            best_t = np.where(take, t, best_t)
    return KLTransform(
        b=float(b), delta=float(delta), K=float(K),
        value=GridFunction(torus, best),
        t_opt=GridFunction(torus, best_t),
        t_grid=t_grid,
        rho_delta=rho_delta,
    )


def hessian_lower_bound_check(T: KLTransform, metric: HermitianMetric, A: float) -> float:
    """Min eigenvalue over the lattice of g + H(Phi) + (A b + 2 K delta) g.

    Phi is an infimum of a family and may be non-smooth, so the spectral
    Hessian here is a diagnostic; callers should accept >= -1e-3.
    """
    shift = A * T.b + 2.0 * T.K * T.delta
    M = (1.0 + shift) * metric.g + complex_hessian(T.value)
    return float(min_eig_field(M).min())


# ---------------------------------------------------------------------------
# L^1 regularization-rate estimation
# ---------------------------------------------------------------------------

def rate_deltas(delta_list, torus: Torus) -> list:
    """delta_list, ascending and extended dyadically (up, then down) until the
    L1-rate regression has >= 4 radii spanning a factor >= 8.

    Raises PreconditionError when a delta lies outside [2/N, 1/4] or the
    ladder cannot reach that size inside the range.
    """
    deltas = sorted(set(float(d) for d in delta_list))
    if not deltas:
        raise PreconditionError("delta_list must be nonempty")
    lo, hi = deltas[0], deltas[-1]
    floor = 2.0 * torus.spacing
    if lo < floor or hi > 0.25:
        raise PreconditionError(
            f"every delta must lie in [2/N, 1/4] = [{floor}, 0.25], got {deltas}")

    def short():
        return len(deltas) < 4 or deltas[-1] / deltas[0] < 8.0

    while short() and hi * 2.0 <= 0.25:
        hi *= 2.0
        deltas.append(hi)
    while short() and lo / 2.0 >= floor:
        lo /= 2.0
        deltas.insert(0, lo)
    if short():
        raise PreconditionError(
            f"delta ladder {deltas} has fewer than 4 radii or spans less than a "
            f"factor of 8 inside [{floor}, 0.25]")
    return deltas


def l1_rate(phi: GridFunction, mu: MeasureField, delta_list,
            metric: HermitianMetric, spectrum: np.ndarray = None) -> tuple:
    """Regression of log ||rho_delta phi - phi||_{L1(d mu)} against log delta.

    Returns (alpha1_hat, C). Constant phi reports (1.0, 0.0). `spectrum` is
    phi's `to_spectrum` when the caller already has it.
    """
    if len(delta_list) < 4:
        raise PreconditionError("need at least 4 delta values")
    span = max(delta_list) / min(delta_list)
    if span < 8.0 - 1e-9:
        raise PreconditionError("delta_list must span roughly a decade (factor >= 8)")
    if spectrum is None:
        spectrum = to_spectrum(phi.values)
    logs = []
    for d in delta_list:
        diff = np.abs(mollify(phi, d, spectrum).values - phi.values)
        l1 = integrate(diff * mu.density.values, metric)
        logs.append((math.log(d), l1))
    if all(l1 < 1e-14 for _, l1 in logs):
        return 1.0, 0.0
    xs = [x for x, l1 in logs if l1 > 0.0]
    ys = [math.log(l1) for _, l1 in logs if l1 > 0.0]
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(math.exp(intercept))


def discrete_mass_convergence(n: int, delta: float, N_list) -> list:
    """|continuum-eta Riemann mass - 1| for each N; used to check the O(1/N) rate."""
    out = []
    for N in N_list:
        k = build_kernel(Torus(n, N), delta)
        out.append(abs(k.continuum_mass - 1.0))
    return out
