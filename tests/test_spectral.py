"""The real-FFT spectral core against full complex-FFT reference operators.

Every reference below is built here from complex `np.fft.fftn`/`ifftn` and
the textbook Fourier multipliers, so the package's half-spectrum symbols and
real transforms are checked against an independent implementation.
"""

import numpy as np
import pytest

from torusma.capacity import _ascent_gradient
from torusma.geometry import (
    Torus, GridFunction, flat_metric, conformal_metric, complex_hessian,
    laplacian, inverse_quarter_laplacian, gradient_sup_norm, adjugate_field,
    spectral_symbols,
)
from torusma.regularize import build_kernel, kernel_profile_raw, mollify
from torusma.solver import _linearization

REL = 1e-12


def rel_err(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


# ---------------------------------------------------------------------------
# complex-FFT reference operators
# ---------------------------------------------------------------------------

def ref_xi(torus, axis, zero_nyquist):
    xi = 2.0 * np.pi * np.fft.fftfreq(torus.N, d=1.0 / torus.N)
    if zero_nyquist:
        xi[torus.N // 2] = 0.0
    shape = [1] * torus.ndim_real
    shape[axis] = torus.N
    return xi.reshape(shape)


def ref_multiplier(torus, j, k):
    """Fourier multiplier of d^2/(dz_j dzbar_k) on the full spectrum."""
    if j == k:
        x, y = ref_xi(torus, 2 * j, False), ref_xi(torus, 2 * j + 1, False)
        return -0.25 * (x**2 + y**2)
    xj, yj = ref_xi(torus, 2 * j, True), ref_xi(torus, 2 * j + 1, True)
    xk, yk = ref_xi(torus, 2 * k, True), ref_xi(torus, 2 * k + 1, True)
    return 0.25 * (1j * xj + yj) * (1j * xk - yk)


def ref_hessian(values, torus):
    n = torus.n
    F = np.fft.fftn(values)
    H = np.empty(torus.shape + (n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            H[..., j, k] = np.fft.ifftn(ref_multiplier(torus, j, k) * F)
        H[..., j, j] = H[..., j, j].real
    return H


def ref_laplacian_symbol(torus):
    return sum(-ref_xi(torus, a, False) ** 2 for a in range(torus.ndim_real))


def ref_laplacian(values, torus):
    return np.fft.ifftn(ref_laplacian_symbol(torus) * np.fft.fftn(values)).real


def ref_inverse_quarter_laplacian(values, torus):
    mult = 0.25 * ref_laplacian_symbol(torus)
    R = np.fft.fftn(values)
    U = np.where(mult != 0.0, R / np.where(mult != 0.0, mult, 1.0), 0.0)
    return np.fft.ifftn(U).real


def ref_gradient_sup_norm(values, torus):
    F = np.fft.fftn(values)
    g2 = sum(np.fft.ifftn(1j * ref_xi(torus, a, True) * F).real ** 2
             for a in range(torus.ndim_real))
    return float(np.sqrt(g2).max())


def ref_newton_matvec(phi, metric, psi):
    torus = phi.torus
    n = torus.n
    adj = adjugate_field(metric.g + ref_hessian(phi.values, torus))
    P = np.fft.fftn(psi)
    out = np.zeros(torus.shape)
    for j in range(n):
        for k in range(n):
            h = np.fft.ifftn(ref_multiplier(torus, j, k) * P)
            out += (adj[..., k, j] * h).real
    out = out / metric.det()
    return out - out.mean()


def ref_ascent_gradient(mask, v, metric):
    torus = v.torus
    n = torus.n
    w = mask[..., None, None] * adjugate_field(metric.g + ref_hessian(v.values, torus))
    grad = np.zeros(torus.shape)
    for j in range(n):
        for k in range(n):
            W = np.fft.fftn(w[..., k, j])
            grad += np.fft.ifftn(ref_multiplier(torus, j, k) * W).real
    return grad


def ref_kernel_values(torus, delta):
    d2 = torus.periodic_distance((0.0,) * torus.ndim_real) ** 2
    raw = kernel_profile_raw(d2 / delta**2)
    return raw / raw.sum()


def ref_mollify(values, torus, delta):
    K = np.fft.fftn(ref_kernel_values(torus, delta))
    return np.fft.ifftn(np.fft.fftn(values) * K).real


# ---------------------------------------------------------------------------
# cases: random fields at n=1 N=32 and n=2 N=8, flat and conformal metric
# ---------------------------------------------------------------------------

CASES = [(1, 32, "flat"), (1, 32, "conformal"), (2, 8, "flat"), (2, 8, "conformal")]


def make_case(n, N, kind, seed=0):
    torus = Torus(n, N)
    metric = flat_metric(torus) if kind == "flat" else conformal_metric(torus, 0.3)
    rng = np.random.default_rng(seed + 10 * n)
    phi = GridFunction(torus, 0.01 * rng.standard_normal(torus.shape))
    psi = rng.standard_normal(torus.shape)
    mask = rng.random(torus.shape) < 0.5
    return torus, metric, phi, psi, mask


@pytest.mark.parametrize("n,N,kind", CASES)
class TestRealFFTMatchesComplexReference:
    def test_complex_hessian(self, n, N, kind):
        torus, _, _, psi, _ = make_case(n, N, kind)
        H = complex_hessian(GridFunction(torus, psi))
        assert rel_err(H, ref_hessian(psi, torus)) <= REL

    def test_laplacian(self, n, N, kind):
        torus, _, _, psi, _ = make_case(n, N, kind)
        got = laplacian(GridFunction(torus, psi))
        assert rel_err(got, ref_laplacian(psi, torus)) <= REL

    def test_inverse_quarter_laplacian(self, n, N, kind):
        torus, _, _, psi, _ = make_case(n, N, kind)
        got = inverse_quarter_laplacian(torus, psi)
        assert rel_err(got, ref_inverse_quarter_laplacian(psi, torus)) <= REL

    def test_gradient_sup_norm(self, n, N, kind):
        torus, _, _, psi, _ = make_case(n, N, kind)
        got = gradient_sup_norm(GridFunction(torus, psi))
        assert got == pytest.approx(ref_gradient_sup_norm(psi, torus), rel=REL)

    def test_newton_matvec(self, n, N, kind):
        _, metric, phi, psi, _ = make_case(n, N, kind)
        got = _linearization(phi, metric)(psi.ravel()).reshape(psi.shape)
        assert rel_err(got, ref_newton_matvec(phi, metric, psi)) <= REL

    def test_ascent_gradient(self, n, N, kind):
        _, metric, phi, _, mask = make_case(n, N, kind)
        got = _ascent_gradient(mask, phi, metric)
        assert rel_err(got, ref_ascent_gradient(mask, phi, metric)) <= REL

    def test_mollify(self, n, N, kind):
        torus, _, _, psi, _ = make_case(n, N, kind)
        for delta in (0.25, 0.125, 0.0625):
            if delta < 2.0 * torus.spacing:
                continue
            got = mollify(GridFunction(torus, psi), delta).values
            assert rel_err(got, ref_mollify(psi, torus, delta)) <= REL


@pytest.mark.parametrize("n,N,delta", [
    (1, 32, 0.25), (1, 32, 0.125), (1, 32, 0.0625), (1, 1024, 2.0 / 1024),
    (1, 1024, 0.125), (2, 8, 0.25), (2, 16, 0.125), (2, 16, 0.25),
])
def test_kernel_spectrum_is_real(n, N, delta):
    """The kernel is even, so its spectrum is real and storing only the real
    half spectrum loses nothing."""
    torus = Torus(n, N)
    full = np.fft.fftn(ref_kernel_values(torus, delta))
    scale = np.abs(full).max()
    assert np.abs(full.imag).max() <= 1e-14 * scale
    cached = build_kernel(torus, delta).spectrum
    assert np.isrealobj(cached)
    half = full[..., : N // 2 + 1].real
    assert np.abs(cached - half).max() <= 1e-14 * scale


def test_symbols_cached_per_torus():
    assert spectral_symbols(Torus(2, 8)) is spectral_symbols(Torus(2, 8))
    sym = spectral_symbols(Torus(1, 32))
    assert sym.hess_off_re is None and sym.hess_off_im is None
    assert not sym.inv_quarter_lap.flags.writeable
