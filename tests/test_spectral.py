"""The real-FFT spectral core against full complex-FFT reference operators.

Every reference below is built here from complex `np.fft.fftn`/`ifftn` and
the textbook Fourier multipliers, so the package's half-spectrum symbols and
real transforms are checked against an independent implementation.
"""

import numpy as np
import pytest
import scipy.fft

from torusma.capacity import _ascent_gradient
from torusma.geometry import (
    Torus, GridFunction, flat_metric, conformal_metric, complex_hessian,
    inverse_quarter_laplacian, gradient_sup_norm, omega_form,
    spectral_symbols, to_spectrum, from_spectrum,
)
from torusma.regularize import build_kernel, kernel_eta, kernel_profile_raw, mollify
from torusma.solver import _linearization

REL = 1e-12


def rel_err(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def as_matrix(form):
    """The form as a complex (..., n, n) matrix field."""
    p = form.parts
    if len(p) == 1:
        return p[0][..., None, None].astype(complex)
    b = p[2] + 1j * p[3]
    return np.stack([np.stack([p[0], b], -1), np.stack([b.conj(), p[1]], -1)], -2)


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


def ref_adjugate(M):
    """Adjugate of each 1x1 or 2x2 matrix, M adj(M) = det(M) I."""
    if M.shape[-1] == 1:
        return np.ones_like(M)
    adj = -M
    adj[..., 0, 0], adj[..., 1, 1] = M[..., 1, 1], M[..., 0, 0]
    return adj


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


def ref_metric(metric):
    """The metric as a full matrix field, g = factor I."""
    torus = metric.torus
    factor = np.broadcast_to(metric.factor, torus.shape)
    return factor[..., None, None] * np.eye(torus.n)


def ref_newton_matvec(phi, metric, psi):
    torus = phi.torus
    n = torus.n
    adj = ref_adjugate(ref_metric(metric) + ref_hessian(phi.values, torus))
    P = np.fft.fftn(psi)
    out = np.zeros(torus.shape)
    for j in range(n):
        for k in range(n):
            h = np.fft.ifftn(ref_multiplier(torus, j, k) * P)
            out += (adj[..., k, j] * h).real
    return out - out.mean()


def ref_ascent_gradient(mask, v, metric):
    torus = v.torus
    n = torus.n
    w = mask[..., None, None] * ref_adjugate(ref_metric(metric) + ref_hessian(v.values, torus))
    grad = np.zeros(torus.shape)
    for j in range(n):
        for k in range(n):
            W = np.fft.fftn(w[..., k, j])
            grad += np.fft.ifftn(ref_multiplier(torus, j, k) * W).real
    return grad


def ref_kernel_values(torus, delta):
    d2 = torus.periodic_distance() ** 2
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
        H = as_matrix(complex_hessian(GridFunction(torus, psi)))
        assert rel_err(H, ref_hessian(psi, torus)) <= REL

    def test_laplacian(self, n, N, kind):
        torus, _, _, psi, _ = make_case(n, N, kind)
        got = 4.0 * complex_hessian(GridFunction(torus, psi)).trace()
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
        apply_L = _linearization(omega_form(phi, metric), metric, 1.0)
        got = apply_L(to_spectrum(psi))
        assert rel_err(got, ref_newton_matvec(phi, metric, psi)) <= REL

    def test_ascent_gradient(self, n, N, kind):
        _, metric, phi, _, mask = make_case(n, N, kind)
        got = _ascent_gradient(mask, omega_form(phi, metric), metric)
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
    assert len(sym.hess) == 1
    assert not sym.inv_quarter_lap.flags.writeable


# ---------------------------------------------------------------------------
# in-place synthesis and support-box kernels: bit for bit the direct forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,N", [(1, 64), (1, 1024), (2, 8), (2, 16)])
def test_from_spectrum_bit_equals_irfftn(n, N):
    """The transforms call pocketfft as scipy.fft does, without its dispatch:
    to_spectrum equals scipy's rfftn bit for bit, and the split inverse
    (leading axes, then the last axis) its multi-axis irfftn, writing to
    neither argument."""
    torus = Torus(n, N)
    rng = np.random.default_rng(N + n)
    values = rng.standard_normal(torus.shape)
    F = to_spectrum(values)
    assert np.array_equal(F, scipy.fft.rfftn(values))
    sym = spectral_symbols(torus)
    symbols = (sym.hess[0], sym.hess[-1], 1j * sym.xi[0], sym.inv_quarter_lap,
               build_kernel(torus, 0.25).spectrum)
    F_before = F.copy()
    got = from_spectrum(torus, F)
    assert np.array_equal(got, scipy.fft.irfftn(F, s=torus.shape))
    assert np.array_equal(F, F_before)
    for s in symbols:
        s_before = s.copy()
        got = from_spectrum(torus, F, s)
        assert np.array_equal(got, scipy.fft.irfftn(s * F, s=torus.shape))
        assert np.array_equal(F, F_before) and np.array_equal(s, s_before)


def full_lattice_kernel(torus, delta):
    """The kernel built on every lattice point: (spectrum, continuum mass)."""
    d2 = torus.periodic_distance() ** 2
    raw = kernel_profile_raw(d2 / delta**2)
    mass = float(kernel_eta(torus.n) * raw.sum() * torus.spacing ** torus.ndim_real
                 / delta ** (2 * torus.n))
    return scipy.fft.rfftn(raw / raw.sum()).real, mass


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 16)])
def test_kernel_box_bit_equals_full_lattice(n, N):
    """Every radius a default certificate builds (the dyadic radii from 1/4
    down to 2/N: the rate ladder and the Kiselman-Legendre t-grids), and one
    radius off the lattice, give the full-lattice kernel bit for bit."""
    torus = Torus(n, N)
    radii = [0.25 / 2**k for k in range(int(np.log2(N / 8)) + 1)] + [0.2]
    assert radii[-2] == 2.0 / N
    for delta in radii:
        spectrum, mass = full_lattice_kernel(torus, delta)
        kernel = build_kernel(torus, delta)
        assert np.array_equal(kernel.spectrum, spectrum), delta
        assert kernel.continuum_mass == mass, delta
