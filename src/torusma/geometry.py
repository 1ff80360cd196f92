"""Discretized flat complex torus C^n/(Z+iZ)^n, Hermitian metrics and spectral calculus.

Conventions fixed once for the whole package:
  * the torus has unit periods in every real axis, lattice shape (N,)*(2n),
    axis order (x1, y1, x2, y2);
  * d^c = (i/2)(dbar - d), so dd^c = i d dbar and, for n=1, f_{z zbar} = Lap(f)/4;
  * all derivatives are spectral (FFT), exact on band-limited data.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import PreconditionError


def _load_pocketfft():
    """scipy's compiled pocketfft module, loaded from its file without
    importing the scipy.fft package, whose start-up (scipy.special, the
    array-API layer) costs ~0.3 s and ~26 MB. It is loaded under its own
    name, so a later `import scipy.fft` returns this same module object."""
    scipy = importlib.util.find_spec("scipy")  # locates, does not import
    if scipy is None:
        raise ImportError("scipy is not installed")
    folder = Path(scipy.submodule_search_locations[0]) / "fft" / "_pocketfft"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"pypocketfft{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no pypocketfft extension module in {folder}")
    spec = importlib.util.spec_from_file_location(
        "scipy.fft._pocketfft.pypocketfft", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_pocketfft = _load_pocketfft()


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

    def periodic_distance(self) -> np.ndarray:
        """Euclidean distance on the torus from each lattice point to 0."""
        d2 = np.zeros(self.shape)
        for a in range(self.ndim_real):
            x = self.axis_coord(a)  # in [0, 1)
            d2 = d2 + np.minimum(x, 1.0 - x) ** 2
        return np.sqrt(d2)


@dataclass(frozen=True)
class GridFunction:
    """Real scalar field sampled on the lattice of a Torus."""

    torus: Torus
    values: np.ndarray

    def __post_init__(self):
        """Adopt `values` and freeze it in place when it is a C-contiguous
        float64 array owning its data; copy anything else (views, lists,
        other dtypes)."""
        v = self.values
        adopt = (isinstance(v, np.ndarray) and v.dtype == np.float64
                 and v.flags.owndata and v.flags.c_contiguous)
        if not adopt:
            v = np.array(v, dtype=float, order="C")
        if v.shape != self.torus.shape:
            raise PreconditionError(
                f"values shape {v.shape} does not match lattice {self.torus.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise PreconditionError("grid function must be finite everywhere")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, torus: Torus, value: float) -> "GridFunction":
        return cls(torus, np.full(torus.shape, float(value)))

    def sup_normalized(self) -> "GridFunction":
        """f - sup f; f itself when its sup is already 0, since it is immutable."""
        top = self.values.max()
        return self if top == 0.0 else GridFunction(self.torus, self.values - top)


@dataclass(frozen=True)
class HermitianMetric:
    """Conformally flat Hermitian metric g = factor * I, with curvature/torsion constants.

    `factor` is a positive float for a constant metric (1.0 for the flat
    metric) or a positive real lattice field e^u. K bounds the curvature
    contribution to mollification monotonicity, A the negative part of the
    Chern curvature, B the dd^c(omega^k) torsion terms. All three vanish for
    the flat metric; for conformal perturbations they are coarse lattice
    sup-bounds (see `conformal_metric`).
    """

    torus: Torus
    factor: float | np.ndarray = 1.0  # or a real field of the lattice shape
    K: float = 0.0
    A: float = 0.0
    B: float = 0.0

    def __post_init__(self):
        if np.ndim(self.factor) == 0:
            factor = float(self.factor)
        else:
            factor = np.array(self.factor, dtype=float)
            if factor.shape != self.torus.shape:
                raise PreconditionError("metric factor shape mismatch")
            factor.setflags(write=False)
        object.__setattr__(self, "factor", factor)
        if not np.all(np.isfinite(factor)):
            raise PreconditionError("metric factor must be finite")
        if min(self.K, self.A, self.B) < 0:
            raise PreconditionError("K, A, B must be nonnegative")
        if self.min_eig() <= 0:
            raise PreconditionError("metric must be positive definite")

    @property
    def is_kahler(self) -> bool:
        """d omega = 0: a constant metric (a scalar factor), or any conformal
        factor at n = 1."""
        return np.ndim(self.factor) == 0 or self.torus.n == 1

    def det(self) -> float | np.ndarray:
        return self.factor ** self.torus.n

    def form(self) -> "HermitianForm":
        """g as a form field: omega + dd^c 0, built without a transform."""
        n = self.torus.n
        parts = np.zeros((n * n,) + self.torus.shape)
        parts[:n] = self.factor
        return HermitianForm(parts)

    def min_eig(self) -> float:
        return float(np.min(self.factor))

    def sup_norm(self) -> float:
        """Sup over the lattice of the largest eigenvalue of g."""
        return float(np.max(self.factor))


def flat_metric(torus: Torus) -> HermitianMetric:
    return HermitianMetric(torus)


# ---------------------------------------------------------------------------
# pointwise Hermitian forms (n <= 2, closed forms)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermitianForm:
    """Field of Hermitian n x n matrices as one stack of real lattice fields.

    `parts` has shape (k, *torus.shape): (a,) at n=1, and (a, d, b_re, b_im)
    at n=2 for [[a, b], [conj(b), d]] with b = b_re + i b_im.
    """

    parts: np.ndarray

    @property
    def n(self) -> int:
        return 1 if len(self.parts) == 1 else 2

    def det(self) -> np.ndarray:
        if self.n == 1:
            return self.parts[0]
        a, d, re, im = self.parts
        return a * d - (re * re + im * im)

    def trace(self) -> np.ndarray:
        return self.parts[0] if self.n == 1 else self.parts[0] + self.parts[1]

    def min_eig(self, det: np.ndarray | None = None) -> np.ndarray:
        """Smallest eigenvalue field; `det`, when given, is `self.det()`
        already computed."""
        if self.n == 1:
            return self.parts[0]
        if det is None:
            det = self.det()
        half_tr = 0.5 * self.trace()
        disc = np.sqrt(np.maximum(half_tr**2 - det, 0.0))
        return half_tr - disc

    def adjugate_weights(self) -> tuple:
        """Weights C with tr(adj(M) H) = sum_k C_k H_k for every form H,
        in the order of `parts`."""
        return self._adjugate_weights(lambda b: -2.0 * b)

    def adjugate_weights_in_place(self) -> tuple:
        """`adjugate_weights` built on the form's own parts: the off-diagonal
        parts are scaled by -2 in place, which is exact, so the form is
        spent and must not be read again."""
        return self._adjugate_weights(lambda b: np.multiply(b, -2.0, out=b))

    def _adjugate_weights(self, off_diagonal) -> tuple:
        if self.n == 1:
            return (1.0,)
        a, d, re, im = self.parts
        return (d, a, off_diagonal(re), off_diagonal(im))


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
    hess: tuple                  # symbols of the HermitianForm parts of the Hessian
    inv_quarter_lap: np.ndarray  # inverse of the symbol of Lap / 4, 0 on the constant mode
    parseval: np.ndarray         # last-axis weights: sum(u v) = sum(parseval Re(conj(U) V))


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
    # d^2/(dz_j dzbar_j), j < n
    hess = [_frozen(-0.25 * (xi_even[2 * j] ** 2 + xi_even[2 * j + 1] ** 2))
            for j in range(torus.n)]
    quarter_lap = sum(hess)
    if torus.n == 2:
        # d^2/(dz_0 dzbar_1) = 0.25 (i x0 + y0)(i x1 - y1), split into real and
        # imaginary parts: products of two odd factors, hence even
        hess.append(_frozen(-0.25 * (xi[0] * xi[2] + xi[1] * xi[3])))
        hess.append(_frozen(0.25 * (xi[1] * xi[2] - xi[0] * xi[3])))
    with np.errstate(divide="ignore"):
        inv = np.where(quarter_lap != 0.0, 1.0 / quarter_lap, 0.0)
    # the half spectrum holds each mode of the full one once, its conjugate
    # partner implied, except on the self-conjugate first and Nyquist columns
    parseval = np.full(N // 2 + 1, 2.0 / torus.npoints)
    parseval[[0, -1]] = 1.0 / torus.npoints
    return SpectralSymbols(
        xi=tuple(xi), hess=tuple(hess), inv_quarter_lap=_frozen(inv),
        parseval=_frozen(parseval),
    )


def to_spectrum(values: np.ndarray) -> np.ndarray:
    """rfftn half spectrum of a real float64 lattice field."""
    # the call scipy.fft.rfftn makes: all axes, forward, unnormalized, one thread
    return _pocketfft.r2c(values, None, True, 0, None, 1)


def from_spectrum(torus: Torus, spectrum: np.ndarray,
                  symbol: np.ndarray | None = None) -> np.ndarray:
    """Real lattice field of the Hermitian half spectrum symbol * spectrum
    (of `spectrum` when `symbol` is None); the inverse of `to_spectrum`.

    The product is the one work array: its leading axes are inverted in
    place, then its halved last axis, so no spectrum-sized buffer is
    allocated beside it (without a symbol, the leading axes are inverted out
    of place into it). That is `irfftn`'s own c2c-then-c2r sequence; only
    the 1/N factors are applied per stage, and they are powers of two, so
    the result is bit-identical. Neither argument is written to. The calls
    are those scipy.fft.ifftn(overwrite_x=True) and irfft make (inverse,
    1/N normalization, one thread), without their dispatch.
    """
    leading = tuple(range(torus.ndim_real - 1))
    if symbol is None:
        work = _pocketfft.c2c(spectrum, leading, False, 2, None, 1)
    else:
        work = symbol * spectrum
        _pocketfft.c2c(work, leading, False, 2, work, 1)
    return _pocketfft.c2r(work, (-1,), torus.N, False, 2, None, 1)


def hessian_of_spectrum(torus: Torus, F: np.ndarray) -> HermitianForm:
    """Form of mixed second derivatives of the field whose half spectrum is F:
    one inverse transform per part, none forward. At n = 1 the one part is
    the inverse transform itself, as a stack of one, not a copy of it."""
    hess = spectral_symbols(torus).hess
    if len(hess) == 1:
        return HermitianForm(from_spectrum(torus, F, hess[0])[np.newaxis])
    parts = np.empty((len(hess),) + torus.shape)
    for part, s in zip(parts, hess):
        part[...] = from_spectrum(torus, F, s)
    return HermitianForm(parts)


def complex_hessian(f: GridFunction) -> HermitianForm:
    """Form of mixed second derivatives f_{z_j zbar_k}."""
    return hessian_of_spectrum(f.torus, to_spectrum(f.values))


def omega_form(f: GridFunction | np.ndarray, metric: HermitianMetric) -> HermitianForm:
    """omega + dd^c f, that is g + H(f) with g = factor * I; f is a lattice
    function or the rfftn half spectrum of one."""
    if isinstance(f, GridFunction):
        M = complex_hessian(f)
    else:
        M = hessian_of_spectrum(metric.torus, f)
    M.parts[:metric.torus.n] += metric.factor
    return M


def inverse_quarter_laplacian(torus: Torus, rhs: np.ndarray) -> np.ndarray:
    """Solve (1/4) Lap u = rhs - mean(rhs) spectrally; zero-mean solution."""
    sym = spectral_symbols(torus)
    return from_spectrum(torus, to_spectrum(rhs), sym.inv_quarter_lap)


def gradient_sup_norm(f: GridFunction) -> float:
    """Sup over the lattice of the Euclidean norm of the spectral gradient."""
    torus = f.torus
    sym = spectral_symbols(torus)
    F = to_spectrum(f.values)
    g2 = np.zeros(torus.shape)
    for xi in sym.xi:
        g2 += from_spectrum(torus, F, 1j * xi) ** 2
    return float(np.sqrt(g2).max())


# ---------------------------------------------------------------------------
# integration and metrics
# ---------------------------------------------------------------------------

def integrate(density, metric: HermitianMetric) -> float:
    """Lattice integral of `density` against the metric volume det g dV.

    Rectangle rule, exact for the torus by periodicity. A det g of 1.0 (the
    flat metric) is not multiplied in: x * 1.0 = x, and the product would be
    a fresh lattice field.
    """
    values = density.values if isinstance(density, GridFunction) else np.asarray(density)
    det = metric.det()
    if np.ndim(det) != 0 or det != 1.0:
        values = values * det
    return float(np.mean(values) * metric.torus.volume)


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
    if amplitude == 0.0:
        return flat_metric(torus)
    u_vals = amplitude * np.cos(2.0 * np.pi * torus.axis_coord(0)) \
        * np.ones(torus.shape)
    factor = np.exp(u_vals)
    u = GridFunction(torus, u_vals)
    g11 = GridFunction(torus, factor)

    def entry_sum_sup(f):
        """Sup over the lattice of |a| + |d| + 2 |b|, the entry sum of H(f)."""
        p = complex_hessian(f).parts
        total = np.abs(p[:torus.n]).sum(axis=0)
        if torus.n == 2:
            total += 2.0 * np.hypot(p[2], p[3])
        return float(total.max())

    A = entry_sum_sup(u)
    K = A + gradient_sup_norm(u) ** 2
    B = entry_sum_sup(g11) + gradient_sup_norm(g11) ** 2
    return HermitianMetric(torus, factor, K=K, A=A, B=B)
