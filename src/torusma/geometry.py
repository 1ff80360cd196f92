"""Discretized flat complex torus C^n/(Z+iZ)^n, Hermitian metrics and spectral calculus.

Conventions fixed once for the whole package:
  * the torus has unit periods in every real axis, lattice shape (N,)*(2n),
    axis order (x1, y1, x2, y2);
  * d^c = (i/2)(dbar - d), so dd^c = i d dbar and, for n=1, f_{z zbar} = Lap(f)/4;
  * all derivatives are spectral (FFT), exact on band-limited data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

from .errors import PreconditionError


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Torus:
    """Lattice discretization of C^n/(Z+iZ)^n with N points per real axis."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise PreconditionError(f"complex dimension must be 1 or 2, got {self.n}")
        if self.N < 8 or not _is_power_of_two(self.N):
            raise PreconditionError(f"N must be a power of two >= 8, got {self.N}")

    @property
    def spacing(self) -> float:
        return 1.0 / self.N

    @property
    def ndim_real(self) -> int:
        return 2 * self.n

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.ndim_real

    @property
    def npoints(self) -> int:
        return self.N ** self.ndim_real

    @property
    def volume(self) -> float:
        return 1.0

    def axis_coord(self, axis: int) -> np.ndarray:
        """Coordinate array along one real axis, broadcast to the lattice shape."""
        x = np.arange(self.N) / self.N
        shape = [1] * self.ndim_real
        shape[axis] = self.N
        return x.reshape(shape)

    def periodic_distance(self, center: tuple) -> np.ndarray:
        """Euclidean distance on the torus from each lattice point to `center`."""
        if len(center) != self.ndim_real:
            raise PreconditionError("center must have 2n coordinates")
        d2 = np.zeros(self.shape)
        for a, c in enumerate(center):
            d = np.abs(self.axis_coord(a) - c)
            d = np.minimum(d, 1.0 - d)
            d2 = d2 + d**2
        return np.sqrt(d2)


@dataclass(frozen=True)
class GridFunction:
    """Real scalar field sampled on the lattice of a Torus."""

    torus: Torus
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.torus.shape:
            raise PreconditionError(
                f"values shape {v.shape} does not match lattice {self.torus.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise PreconditionError("grid function must be finite everywhere")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, torus: Torus, value: float) -> "GridFunction":
        return cls(torus, np.full(torus.shape, float(value)))

    def shifted(self, const: float) -> "GridFunction":
        return GridFunction(self.torus, self.values + const)

    def sup_normalized(self) -> "GridFunction":
        return GridFunction(self.torus, self.values - self.values.max())

    def __add__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.torus, self.values + other.values)
        return GridFunction(self.torus, self.values + other)

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.torus, self.values - other.values)
        return GridFunction(self.torus, self.values - other)

    def __mul__(self, scalar):
        return GridFunction(self.torus, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class HermitianMetric:
    """Positive Hermitian n x n matrix field g(z), with curvature/torsion constants.

    K bounds the curvature contribution to mollification monotonicity,
    A the negative part of the Chern curvature, B the dd^c(omega^k) torsion terms.
    All three vanish for the flat metric; for conformal perturbations they are
    coarse lattice sup-bounds (see `conformal_metric`).
    """

    torus: Torus
    g: np.ndarray  # shape lattice + (n, n), complex Hermitian positive definite
    K: float = 0.0
    A: float = 0.0
    B: float = 0.0

    def __post_init__(self):
        n = self.torus.n
        g = np.asarray(self.g, dtype=complex)
        if g.shape != self.torus.shape + (n, n):
            raise PreconditionError("metric field shape mismatch")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "g", g)
        if min(self.K, self.A, self.B) < 0:
            raise PreconditionError("K, A, B must be nonnegative")
        if self.min_eig() <= 0:
            raise PreconditionError("metric must be positive definite")

    @property
    def is_flat(self) -> bool:
        n = self.torus.n
        eye = np.eye(n)
        return bool(np.allclose(self.g, eye, atol=1e-15)) and self.K == self.A == self.B == 0.0

    def det(self) -> np.ndarray:
        return det_field(self.g)

    def min_eig(self) -> float:
        return float(min_eig_field(self.g).min())

    def sup_norm(self) -> float:
        """Sup over the lattice of the largest eigenvalue of g."""
        return float(max_eig_field(self.g).max())


def flat_metric(torus: Torus) -> HermitianMetric:
    n = torus.n
    g = np.broadcast_to(np.eye(n, dtype=complex), torus.shape + (n, n)).copy()
    return HermitianMetric(torus, g, K=0.0, A=0.0, B=0.0)


# ---------------------------------------------------------------------------
# pointwise Hermitian matrix-field helpers (n <= 2, closed forms)
# ---------------------------------------------------------------------------

def det_field(M: np.ndarray) -> np.ndarray:
    n = M.shape[-1]
    if n == 1:
        return M[..., 0, 0].real
    return (M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]).real


def trace_field(M: np.ndarray) -> np.ndarray:
    n = M.shape[-1]
    if n == 1:
        return M[..., 0, 0].real
    return (M[..., 0, 0] + M[..., 1, 1]).real


def adjugate_field(M: np.ndarray) -> np.ndarray:
    """Adjugate matrix field; M @ adj(M) = det(M) I."""
    n = M.shape[-1]
    if n == 1:
        out = np.ones_like(M)
        return out
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1]
    out[..., 1, 1] = M[..., 0, 0]
    out[..., 0, 1] = -M[..., 0, 1]
    out[..., 1, 0] = -M[..., 1, 0]
    return out


def min_eig_field(M: np.ndarray) -> np.ndarray:
    n = M.shape[-1]
    if n == 1:
        return M[..., 0, 0].real
    half_tr = 0.5 * trace_field(M)
    # eigenvalues of a 2x2 Hermitian matrix
    disc = np.sqrt(np.maximum(half_tr**2 - det_field(M), 0.0))
    return half_tr - disc


def max_eig_field(M: np.ndarray) -> np.ndarray:
    n = M.shape[-1]
    if n == 1:
        return M[..., 0, 0].real
    half_tr = 0.5 * trace_field(M)
    disc = np.sqrt(np.maximum(half_tr**2 - det_field(M), 0.0))
    return half_tr + disc


def mixed_det_field(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Polarized mixed determinant D(A, B) with D(A, A) = det A (n <= 2).

    For n=2 this is the density of alpha ^ beta relative to the volume form,
    normalized so the pure powers reduce to determinants.
    """
    n = A.shape[-1]
    if n == 1:
        return 0.5 * (A[..., 0, 0] + B[..., 0, 0]).real
    s = (A[..., 0, 0] * B[..., 1, 1] + A[..., 1, 1] * B[..., 0, 0]
         - A[..., 0, 1] * B[..., 1, 0] - A[..., 1, 0] * B[..., 0, 1])
    return 0.5 * s.real


# ---------------------------------------------------------------------------
# spectral differential operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralSymbols:
    """Fourier symbols of the lattice operators in the rfftn half-spectrum layout.

    Arrays broadcast against `to_spectrum(values)`. Odd-order factors (xi) have
    the Nyquist mode zeroed, since its sign is ambiguous on real data; even-order
    factors keep it, so the Laplacian stays invertible on every nonzero mode.
    """

    xi: tuple                    # angular wavenumber per real axis, Nyquist zeroed
    hess_diag: tuple             # symbol of d^2/(dz_j dzbar_j), j < n
    hess_off_re: np.ndarray      # d^2/(dz_0 dzbar_1) = hess_off_re + i hess_off_im (n=2)
    hess_off_im: np.ndarray      # both parts are real and even; None for n=1
    quarter_lap: np.ndarray      # symbol of Lap / 4
    inv_quarter_lap: np.ndarray  # its inverse, 0 on the constant mode


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=16)
def spectral_symbols(torus: Torus) -> SpectralSymbols:
    """The symbol table of `torus`, built once per lattice."""
    N, d = torus.N, torus.ndim_real
    xi, xi_even = [], []
    for a in range(d):
        # the last axis is halved by rfftn
        k = np.fft.rfftfreq(N, d=1.0 / N) if a == d - 1 else np.fft.fftfreq(N, d=1.0 / N)
        shape = [1] * d
        shape[a] = k.size
        k = k.reshape(shape)
        xi_even.append(2.0 * np.pi * k)
        xi.append(_frozen(np.where(np.abs(k) == N // 2, 0.0, xi_even[-1])))
    hess_diag = tuple(_frozen(-0.25 * (xi_even[2 * j] ** 2 + xi_even[2 * j + 1] ** 2))
                      for j in range(torus.n))
    off_re = off_im = None
    if torus.n == 2:
        # 0.25 (i x0 + y0)(i x1 - y1): products of two odd factors, hence even
        off_re = _frozen(-0.25 * (xi[0] * xi[2] + xi[1] * xi[3]))
        off_im = _frozen(0.25 * (xi[1] * xi[2] - xi[0] * xi[3]))
    quarter_lap = sum(hess_diag)
    with np.errstate(divide="ignore"):
        inv = np.where(quarter_lap != 0.0, 1.0 / quarter_lap, 0.0)
    return SpectralSymbols(
        xi=tuple(xi), hess_diag=hess_diag, hess_off_re=off_re, hess_off_im=off_im,
        quarter_lap=_frozen(quarter_lap), inv_quarter_lap=_frozen(inv),
    )


def to_spectrum(values: np.ndarray) -> np.ndarray:
    """rfftn half spectrum of a real lattice field."""
    return scipy.fft.rfftn(values)


def from_spectrum(torus: Torus, spectrum: np.ndarray) -> np.ndarray:
    """Real lattice field of a Hermitian half spectrum (inverse of `to_spectrum`)."""
    return scipy.fft.irfftn(spectrum, s=torus.shape)


def complex_hessian(f: GridFunction) -> np.ndarray:
    """Field of mixed second derivatives f_{z_j zbar_k}, Hermitian at every point."""
    torus = f.torus
    n = torus.n
    sym = spectral_symbols(torus)
    F = to_spectrum(f.values)
    H = np.empty(torus.shape + (n, n), dtype=complex)
    for j in range(n):
        H[..., j, j] = from_spectrum(torus, sym.hess_diag[j] * F)
    if n == 2:
        re = from_spectrum(torus, sym.hess_off_re * F)
        im = from_spectrum(torus, sym.hess_off_im * F)
        H[..., 0, 1] = re + 1j * im
        H[..., 1, 0] = re - 1j * im
    return H


def laplacian(f: GridFunction) -> np.ndarray:
    """Full real Laplacian (sum over the 2n real axes)."""
    sym = spectral_symbols(f.torus)
    return from_spectrum(f.torus, 4.0 * sym.quarter_lap * to_spectrum(f.values))


def inverse_quarter_laplacian(torus: Torus, rhs: np.ndarray) -> np.ndarray:
    """Solve (1/4) Lap u = rhs - mean(rhs) spectrally; zero-mean solution."""
    sym = spectral_symbols(torus)
    return from_spectrum(torus, sym.inv_quarter_lap * to_spectrum(rhs))


def gradient_sup_norm(f: GridFunction) -> float:
    """Sup over the lattice of the Euclidean norm of the spectral gradient."""
    torus = f.torus
    sym = spectral_symbols(torus)
    F = to_spectrum(f.values)
    g2 = np.zeros(torus.shape)
    for xi in sym.xi:
        g2 += from_spectrum(torus, 1j * xi * F) ** 2
    return float(np.sqrt(g2).max())


# ---------------------------------------------------------------------------
# integration and metrics
# ---------------------------------------------------------------------------

def integrate(density, metric: HermitianMetric) -> float:
    """Lattice integral of `density` against the metric volume det g dV.

    Rectangle rule, exact for the torus by periodicity.
    """
    values = density.values if isinstance(density, GridFunction) else np.asarray(density)
    return float(np.mean(values * metric.det()) * metric.torus.volume)


def conformal_metric(torus: Torus, amplitude: float) -> HermitianMetric:
    """Conformally perturbed metric g = exp(amplitude cos(2 pi x1)) I.

    K, A, B are coarse lattice sup-bounds, not sharp constants:
      * u = log conformal factor; the Chern curvature of e^u g0 is controlled by
        the mixed Hessian of u, so A = sup ||H(u)||, K = A + sup |grad u|^2;
      * B bounds dd^c omega and d omega ^ d^c omega terms, so
        B = sup ||H(g_11)|| + sup |grad g_11|^2.
    Downstream checks only need upper/lower bounds, so coarse sup-bounds suffice.
    """
    if abs(amplitude) >= 0.5:
        raise PreconditionError("conformal amplitude must satisfy |amplitude| < 0.5")
    n = torus.n
    if amplitude == 0.0:
        return flat_metric(torus)
    u_vals = amplitude * np.cos(2.0 * np.pi * torus.axis_coord(0)) \
        * np.ones(torus.shape)
    factor = np.exp(u_vals)
    g = np.zeros(torus.shape + (n, n), dtype=complex)
    for j in range(n):
        g[..., j, j] = factor
    u = GridFunction(torus, u_vals)
    Hu = complex_hessian(u)
    hu_norm = float(np.abs(Hu).sum(axis=(-1, -2)).max())
    grad_u = gradient_sup_norm(u)
    A = hu_norm
    K = A + grad_u**2
    g11 = GridFunction(torus, factor)
    Hg = complex_hessian(g11)
    B = float(np.abs(Hg).sum(axis=(-1, -2)).max()) + gradient_sup_norm(g11) ** 2
    return HermitianMetric(torus, g, K=K, A=A, B=B)
