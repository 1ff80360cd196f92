"""Demailly mollification, Kiselman-Legendre transform, regularization-rate fits.

On the flat torus the exponential map of the Chern connection is z + zeta, so
the regularization is an ordinary (periodic) convolution with the compactly
supported kernel rho(t) = eta (1-t)^(-2) exp(1/(t-1)) on [0, 1].
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PreconditionError
from .geometry import (
    GridFunction,
    HermitianForm,
    HermitianMetric,
    Torus,
    from_spectrum,
    integrate,
    omega_form,
    spectral_symbols,
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

# E_1(1) = -gamma - sum_{j>=1} (-1)^j / (j j!) (Abramowitz-Stegun 5.1.11)
_E1_AT_ONE = -np.euler_gamma - math.fsum(
    (-1) ** j / (j * math.factorial(j)) for j in range(1, 25))


def _radial_moment(k: int) -> float:
    """I_k = integral over [0, 1] of r^(2k+1) rho_raw(r^2) dr, in closed form.

    With u = r^2 and v = 1/(1-u), I_k = (1/2) integral over [1, oo) of
    (1 - 1/v)^k e^(-v) dv, so I_0 = e^-1/2, I_1 = (e^-1 - E_1(1))/2 and
    I_2 = (2 e^-1 - 3 E_1(1))/2, using E_2(1) = e^-1 - E_1(1).
    """
    e = math.exp(-1.0)
    return (0.5 * e, 0.5 * (e - _E1_AT_ONE), 0.5 * (2.0 * e - 3.0 * _E1_AT_ONE))[k]


def kernel_eta(n: int) -> float:
    """Normalization constant: integral of rho(||z||^2) over C^n equals 1,
    that is eta_n = 1 / (|S^(2n-1)| I_(n-1)); eta_1 = e / pi."""
    if n not in (1, 2):
        raise PreconditionError("dimension must be 1 or 2")
    return 1.0 / (_SPHERE_FACTOR[n] * _radial_moment(n - 1))


def kernel_second_moment(n: int) -> float:
    """sigma_n = integral of ||z||^2 rho(||z||^2) over C^n = eta_n |S^(2n-1)| I_n.

    This is the exact monotonicity constant for the flat torus: for omega-psh
    phi, t -> rho_t phi + sigma_n t^2 is nondecreasing (phi(z+zeta) + ||zeta||^2
    is psh in zeta), even though the Chern curvature vanishes.
    """
    return kernel_eta(n) * _SPHERE_FACTOR[n] * _radial_moment(n)


@dataclass(frozen=True)
class MollifierKernel:
    """Discretized unit-mass kernel at radius delta on a torus lattice."""

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
    # the profile vanishes beyond delta, so it is evaluated only on the box of
    # lattice points within delta of the origin along every axis; the squared
    # distances there are periodic_distance()**2 bit for bit
    x = np.arange(torus.N) / torus.N
    d = np.minimum(x, 1.0 - x)
    box = np.flatnonzero(d <= delta)
    dim = torus.ndim_real
    d2 = 0.0
    for a in range(dim):
        shape = [1] * dim
        shape[a] = box.size
        d2 = d2 + (d[box] ** 2).reshape(shape)
    raw = np.zeros(torus.shape)
    raw[np.ix_(*(box,) * dim)] = kernel_profile_raw(np.sqrt(d2) ** 2 / delta**2)
    # one sum over the zero-padded field, in the order the full field sums
    total = raw.sum()
    if total <= 0.0:
        raise PreconditionError("discrete kernel has no support points")
    eta = kernel_eta(torus.n)
    cell = torus.spacing ** torus.ndim_real
    continuum_mass = float(eta * total * cell / delta ** (2 * torus.n))
    raw /= total
    spectrum = to_spectrum(raw).real.copy()
    spectrum.setflags(write=False)
    return MollifierKernel(spectrum, continuum_mass)


class Mollifications:
    """The family t -> rho_t phi: phi is transformed once, into `spectrum`,
    and each radius is convolved at most once. A field lives until the
    family dies unless `release` drops it first: the rate fit drops the
    radii no later reader needs. Once the last convolution is done,
    `release_spectrum` drops the spectrum. Reading a released radius again,
    or a radius never convolved after the spectrum went, is an error, not a
    second transform."""

    def __init__(self, phi: GridFunction):
        self.phi = phi
        self.spectrum = to_spectrum(phi.values)
        self._fields = {}

    def __call__(self, t: float) -> GridFunction:
        if t not in self._fields:
            if self.spectrum is None:
                raise RuntimeError(f"rho_t phi at t = {t} was never convolved, and "
                                   "the spectrum of phi was released")
            torus = self.phi.torus
            field = from_spectrum(torus, self.spectrum, build_kernel(torus, t).spectrum)
            self._fields[t] = GridFunction(torus, field)
        field = self._fields[t]
        if field is None:
            raise RuntimeError(f"rho_t phi at t = {t} was released by its last reader")
        return field

    def release(self, t: float) -> None:
        """Drop rho_t phi: the caller was its last reader."""
        self._fields[t] = None

    def release_spectrum(self) -> None:
        """Drop the spectrum of phi: every radius still to be read is convolved."""
        self.spectrum = None


def mollify(phi: GridFunction, delta: float) -> GridFunction:
    """rho_delta phi: periodic convolution with the discrete unit-mass kernel."""
    return Mollifications(phi)(delta)


# ---------------------------------------------------------------------------
# psh repair: approximate projection back into the omega-psh cone
# ---------------------------------------------------------------------------

def psh_repair(f: GridFunction, metric: HermitianMetric, rounds: int = 5) -> tuple:
    """Push f toward the omega-psh cone: (g, M), with g the result and M the
    form omega + dd^c f it was verified on when g is f itself, which is
    the case when f is already in the cone; otherwise M is None.

    Each round raises the smallest eigenvalue of M = g + H(f) to 0 wherever it
    is negative, which adds max(-lambda_min, 0) to the trace of M, and rebuilds
    f spectrally from the trace of that clamped Hessian part,
    T = tr M + max(-lambda_min, 0) - n factor, as the f with
    (1/4) Lap f = T - mean T and the mean of f. Beside its transforms a round
    allocates one field, max(-lambda_min, 0): T is formed on the trace of M
    (at n = 1 the one part of M itself), and the previous round's T is
    dropped before it.

    At n = 2 the rounds carry the half spectrum of the iterate, so each costs
    one inverse transform per form part and one forward transform.

    At n = 1 the Hessian symbol is the quarter-Laplacian itself, so the form
    of the rebuilt f is g + (T - mean T) = max(M, 0) - mean max(-M, 0), and
    a round forms it on the lattice with no transform. Each round's defect is thus
    minus the mean of the previous form's negative part. Only the last T is
    transformed, once, when the result is synthesized: a repair that runs
    any round costs two forward and two inverse transforms in all.

    Not a true metric projection: callers must re-verify feasibility. A
    contraction toward the zero function is used as a last resort (it
    always lands in the cone since g is positive).
    """
    tol = psh_tolerance(metric)
    torus = f.torus
    inv_quarter_lap = spectral_symbols(torus).inv_quarter_lap
    # at n = 1 the factor itself, not a fresh field equal to it
    trace_g = metric.factor if torus.n == 1 else torus.n * metric.factor
    F = to_spectrum(f.values)
    origin = (0,) * torus.ndim_real
    mean_mode = F[origin]  # the sum of f, kept by every round

    def spectrum_of(target):
        """Half spectrum of the f with (1/4) Lap f = target - mean target
        and the sum of the input f."""
        F = to_spectrum(target)
        F *= inv_quarter_lap
        F[origin] = mean_mode
        return F

    # F is the half spectrum of the iterate, or None at n = 1 while the
    # last round's target T is not yet transformed
    M = omega_form(F, metric)
    for k in range(rounds + 1):
        lam = M.min_eig()
        defect = float(lam.min())
        if defect >= -tol and k == 0:
            return f, M
        if defect >= -tol or k == rounds:
            break
        target = None  # the previous round's T goes before this one's is formed
        # sum the clamped diagonal before subtracting g: at n = 1 this is
        # max(M_00, 0) - factor bit for bit
        clamp = np.negative(lam)
        np.maximum(clamp, 0.0, out=clamp)
        target = M.trace()
        target += clamp
        target -= trace_g
        M = lam = clamp = F = None
        if torus.n == 1:  # the form of the f rebuilt from T, on the lattice
            M = HermitianForm((target - target.mean())[np.newaxis])
            M.parts[0] += metric.factor
        else:
            F = spectrum_of(target)
            target = None
            M = omega_form(F, metric)
    M = lam = None
    if F is None:
        F = spectrum_of(target)
        target = None
    g = from_spectrum(torus, F)
    if defect < -tol:
        lam = metric.min_eig()
        theta = lam / (lam - defect + tol)
        g *= theta
    return GridFunction(torus, g), None


# ---------------------------------------------------------------------------
# Kiselman-Legendre transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KLTransform:
    """inf over t in (0, delta] of rho_t phi + K t^2 + K t - b log(t / delta),
    with t0_min, the least t at which the infimum is attained at some lattice
    point, and modulus = sup(rho_t0_min phi - phi)."""

    value: GridFunction
    t0_min: float
    modulus: float
    t_grid: tuple


def kiselman_legendre(family: Mollifications, levels, K: float) -> Iterator[KLTransform]:
    """The transform of each (delta, b) in `levels`, over the geometric t-grid
    {delta 2^-k}, as an iterator that forms each row when it is asked for.

    The -b log(t/delta) term blows up as t -> 0, so truncating a grid at two
    lattice spacings is safe once rho_t phi is bounded. KLTransform.t_grid is
    that nominal grid, but a row reads only the radii that can lower its
    infimum, which needs K >= 0. The discrete kernel is nonnegative with unit
    sum, so rho_t phi >= min phi, and the minimand at t = delta 2^-k is at
    least min phi + k b ln 2, while the row's value at t = delta is at most
    max phi + K delta (1 + delta). A radius with
    k b ln 2 > osc phi + K delta (1 + delta) + margin lowers no point and is
    never convolved. The margin 1e-9 (1 + |max phi| + |min phi|) covers the
    round-off of the transforms, which scales with the size of phi, not with
    its oscillation alone.

    Before any row, this call checks K, every b and every delta, cuts every
    grid, convolves the union of the cut grids, each radius once, and
    releases the family's spectrum. A row then runs alone: for each t of
    its cut grid, descending, it forms (rho_t phi + K t^2) + K t
    - b log(t/delta), left to right, and keeps a strict `<` running
    infimum. Its t0_min is the last t at which its infimum dropped
    anywhere, which is the minimum over the lattice of the pointwise
    minimizer, and its modulus is read from rho_t0_min phi. Every
    radius convolved here stays in the family: all are convolved before
    the first row and every row allocates the same work fields, so the
    live set is largest during the first row, and a radius dropped in a
    later row would be freed only after that peak. Nothing of a row but
    its KLTransform outlives it, so a caller that drops each transform
    before asking for the next holds one row's infimum at a time.
    """
    if K < 0.0:
        raise PreconditionError(f"K must be nonnegative, got {K}")
    torus = family.phi.torus
    phi = family.phi.values
    top, bottom = float(phi.max()), float(phi.min())
    margin = 1e-9 * (1.0 + abs(top) + abs(bottom))
    t_min = 2.0 * torus.spacing
    rows = []
    for delta, b in levels:
        if b <= 0.0:
            raise PreconditionError(f"level b must be positive, got {b}")
        if delta < t_min:
            raise PreconditionError("delta must be at least two lattice spacings")
        k_max = max(0, int(math.floor(math.log2(delta / t_min))))
        grid = tuple(delta * 2.0**-k for k in range(k_max + 1))
        reach = top - bottom + K * delta * (1.0 + delta) + margin
        cut = tuple(t for k, t in enumerate(grid) if k * b * math.log(2.0) <= reach)
        rows.append((delta, b, grid, cut))
    for t in sorted({t for *_, cut in rows for t in cut}, reverse=True):
        family(t)
    family.release_spectrum()
    return (_kl_row(family, K, *row) for row in rows)


def _kl_row(family: Mollifications, K: float, delta: float, b: float, grid: tuple,
            cut: tuple) -> KLTransform:
    """One row of `kiselman_legendre` over the radii `cut` of its grid,
    read from the family, which keeps them.

    The first t fills the infimum in place; every later candidate, its
    `take` mask and the modulus are formed on slabs of the leading axis, as
    in `certify._certificate_row`. All are elementwise or reduce by max and
    any, so the row is the one the whole lattice gives, without a work
    field of the lattice size."""
    phi = family.phi.values
    step = max(1, len(phi) // 16)
    slabs = [slice(k, k + step) for k in range(0, len(phi), step)]
    best = None
    for t in cut:
        rho = family(t).values
        level = b * math.log(t / delta)
        if best is None:  # the row's first t fills every point
            best = np.add(rho, K * t * t)
            best += K * t
            best -= level
            t0_min = t
            continue
        for s in slabs:
            cand = np.add(rho[s], K * t * t)
            cand += K * t
            cand -= level
            take = np.less(cand, best[s])
            if take.any():
                np.copyto(best[s], cand, where=take)
                t0_min = t
    rho = family(t0_min).values
    modulus = max(float(np.subtract(rho[s], phi[s]).max()) for s in slabs)
    return KLTransform(GridFunction(family.phi.torus, best), t0_min, modulus, grid)


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


def l1_rate(family: Mollifications, mu: MeasureField, delta_list,
            metric: HermitianMetric, keep=()) -> tuple:
    """Regression of log ||rho_delta phi - phi||_{L1(d mu)} against log delta,
    with rho_delta phi read from the family of phi.

    The radii are read from the largest down. Each one's integrand is
    allocated after that radius is convolved and dropped before the next
    one is, so no integrand is live beside a convolution; a radius not in
    `keep`, the radii a later reader needs, is released too. The points
    reach the fit in the order of `delta_list`. Returns (alpha1_hat, C).
    Constant phi reports (1.0, 0.0).
    """
    if len(delta_list) < 4:
        raise PreconditionError("need at least 4 delta values")
    span = max(delta_list) / min(delta_list)
    if span < 8.0 - 1e-9:
        raise PreconditionError("delta_list must span roughly a decade (factor >= 8)")
    l1 = {}
    for d in sorted(set(delta_list), reverse=True):
        # |rho_d phi - phi| mu, allocated only once rho_d phi is convolved
        diff = np.subtract(family(d).values, family.phi.values)
        np.abs(diff, out=diff)
        diff *= mu.density.values
        l1[d] = integrate(diff, metric)
        diff = None
        if d not in keep:
            family.release(d)
    logs = [(math.log(d), l1[d]) for d in delta_list]
    if all(v < 1e-14 for _, v in logs):
        return 1.0, 0.0
    xs = [x for x, v in logs if v > 0.0]
    ys = [math.log(v) for _, v in logs if v > 0.0]
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(math.exp(intercept))


def discrete_mass_convergence(n: int, delta: float, N_list) -> list:
    """|continuum-eta Riemann mass - 1| for each N; used to check the O(1/N) rate."""
    out = []
    for N in N_list:
        k = build_kernel(Torus(n, N), delta)
        out.append(abs(k.continuum_mass - 1.0))
    return out
