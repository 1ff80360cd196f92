"""Spectral geometry layer: grids, Hessians, determinant fields, integration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusma.errors import PreconditionError
from torusma.geometry import (
    Torus, GridFunction, HermitianForm, HermitianMetric, flat_metric,
    conformal_metric, complex_hessian, hessian_of_spectrum, omega_form,
    inverse_quarter_laplacian, gradient_sup_norm, integrate,
    spectral_symbols, to_spectrum, from_spectrum,
)


def as_matrix(form):
    """The form as a complex (..., n, n) matrix field."""
    p = form.parts
    if len(p) == 1:
        return p[0][..., None, None].astype(complex)
    b = p[2] + 1j * p[3]
    return np.stack([np.stack([p[0], b], -1), np.stack([b.conj(), p[1]], -1)], -2)


def from_matrix(M):
    """The HermitianForm of a Hermitian (..., n, n) matrix field."""
    if M.shape[-1] == 1:
        return HermitianForm(M[..., 0, 0].real[None])
    return HermitianForm(np.stack([M[..., 0, 0].real, M[..., 1, 1].real,
                                   M[..., 0, 1].real, M[..., 0, 1].imag]))


def trig_field(torus, coeffs, max_freq=3):
    """Deterministic band-limited test function from a coefficient list."""
    vals = np.zeros(torus.shape)
    i = 0
    for axis in range(torus.ndim_real):
        x = torus.axis_coord(axis)
        for k in range(1, max_freq + 1):
            a = coeffs[i % len(coeffs)]
            b = coeffs[(i + 1) % len(coeffs)]
            vals = vals + (a * np.cos(2 * np.pi * k * x)
                           + b * np.sin(2 * np.pi * k * x)) * np.ones(torus.shape)
            i += 2
    return GridFunction(torus, vals)


class TestTorus:
    def test_basic_attributes(self):
        t = Torus(2, 16)
        assert t.shape == (16, 16, 16, 16)
        assert t.ndim_real == 4
        assert t.spacing == 1 / 16
        assert t.volume == 1.0

    def test_invalid_dimension(self):
        with pytest.raises(PreconditionError):
            Torus(3, 16)

    def test_invalid_lattice(self):
        with pytest.raises(PreconditionError):
            Torus(1, 48)  # not a power of two

    def test_periodic_distance_wraps(self):
        t = Torus(1, 64)
        d = t.periodic_distance()
        assert d.max() == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert d.min() == 0.0


class TestComplexHessian:
    def test_cosine_diagonal_entry(self):
        # f = a cos(2 pi x1): f_{z z-bar} = Lap f / 4 = -a pi^2 cos(2 pi x1)
        t = Torus(1, 64)
        a = 0.3
        x = t.axis_coord(0)
        f = GridFunction(t, a * np.cos(2 * np.pi * x) * np.ones(t.shape))
        H = as_matrix(complex_hessian(f))
        expected = -a * np.pi**2 * np.cos(2 * np.pi * x) * np.ones(t.shape)
        assert np.allclose(H[..., 0, 0].real, expected, atol=1e-12)
        assert np.abs(H[..., 0, 0].imag).max() < 1e-12

    def test_cross_entry_analytic(self):
        # f = cos(2 pi x1) cos(2 pi y2): 4 f_{z1 z2-bar}
        #   = (d_x1 - i d_y1)(d_x2 + i d_y2) f = i d_x1 d_y2 f
        t = Torus(2, 16)
        x1, y2 = t.axis_coord(0), t.axis_coord(3)
        f = GridFunction(t, np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y2)
                         * np.ones(t.shape))
        H = as_matrix(complex_hessian(f))
        expected = 1j * np.pi**2 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * y2) \
            * np.ones(t.shape)
        assert np.allclose(H[..., 0, 1], expected, atol=1e-12)

    def test_hermitian_symmetry(self):
        t = Torus(2, 16)
        f = trig_field(t, [0.4, -0.2, 0.1, 0.3])
        H = as_matrix(complex_hessian(f))
        assert np.allclose(H, np.conj(np.swapaxes(H, -1, -2)), atol=1e-13)

    @given(a=st.floats(-1, 1), b=st.floats(-1, 1))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b):
        t = Torus(1, 32)
        f = trig_field(t, [0.5, -0.3])
        g = trig_field(t, [-0.2, 0.7, 0.1])
        lhs = complex_hessian(GridFunction(t, a * f.values + b * g.values)).parts
        rhs = a * complex_hessian(f).parts + b * complex_hessian(g).parts
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_trace_is_quarter_laplacian(self):
        t = Torus(2, 16)
        f = trig_field(t, [0.3, 0.2, -0.4])
        H = complex_hessian(f)
        hess = spectral_symbols(t).hess
        quarter_lap = from_spectrum(
            t, sum(hess[:t.n]) * to_spectrum(f.values))
        assert np.allclose(H.trace(), quarter_lap, atol=1e-11)

    def test_constant_has_zero_hessian(self):
        t = Torus(1, 32)
        H = complex_hessian(GridFunction.constant(t, 3.7))
        assert np.abs(H.parts).max() == 0.0

    def test_n1_part_is_the_inverse_transform(self):
        # no stack is copied at n = 1: the peak is the work half spectrum
        # and the one part, about 2 fields (3 with a copy into a stack)
        import tracemalloc
        t = Torus(1, 256)
        F = to_spectrum(trig_field(t, [0.3, -0.1]).values)
        want = from_spectrum(t, F, spectral_symbols(t).hess[0])
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            M = hessian_of_spectrum(t, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.n == 1 and M.parts.shape == (1,) + t.shape
        assert M.parts.tobytes() == want.tobytes()
        assert (peak - entry) / want.nbytes < 2.5


def random_hermitian_psd(rng, shape, n):
    R = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    return R @ np.conj(np.swapaxes(R, -1, -2))


class TestMatrixFields:
    @pytest.mark.parametrize("n", [1, 2])
    def test_det_adj_eig_against_numpy(self, n):
        rng = np.random.default_rng(0)
        M = random_hermitian_psd(rng, (50,), n)
        form = from_matrix(M)
        assert np.allclose(form.det(), np.linalg.det(M).real, atol=1e-10)
        eigs = np.linalg.eigvalsh(M)
        assert np.allclose(form.min_eig(), eigs[..., 0], atol=1e-10)
        # adjugate weights: tr(adj(M) H) = sum_k C_k H_k, adj(M) = det(M) M^-1
        H = random_hermitian_psd(rng, (50,), n) - random_hermitian_psd(rng, (50,), n)
        adj = np.linalg.det(M)[..., None, None] * np.linalg.inv(M)
        want = np.trace(adj @ H, axis1=-2, axis2=-1).real
        got = sum(c * h for c, h in zip(form.adjugate_weights(), from_matrix(H).parts))
        assert np.allclose(got, want, atol=1e-8)

    @pytest.mark.parametrize("n", [1, 2])
    def test_adjugate_weights_in_place(self, n):
        # byte for byte the pure weights, each a view of the form's own parts
        form = from_matrix(random_hermitian_psd(np.random.default_rng(1), (50,), n))
        pure = form.adjugate_weights()
        spent = form.adjugate_weights_in_place()
        for c, w in zip(pure, spent):
            assert np.asarray(c).tobytes() == np.asarray(w).tobytes()
            if n == 2:
                assert np.shares_memory(w, form.parts)


class TestPoissonInverse:
    def test_roundtrip(self):
        t = Torus(1, 64)
        f = trig_field(t, [0.2, -0.5, 0.3])
        u = inverse_quarter_laplacian(t, complex_hessian(f).trace())
        assert np.allclose(u, f.values - f.values.mean(), atol=1e-11)

    def test_output_has_zero_mean(self):
        t = Torus(2, 16)
        rng = np.random.default_rng(2)
        u = inverse_quarter_laplacian(t, rng.normal(size=t.shape))
        assert abs(u.mean()) < 1e-13


class TestIntegration:
    def test_constant_density_unit_volume(self):
        m = flat_metric(Torus(2, 8))
        assert integrate(np.ones(m.torus.shape), m) == pytest.approx(1.0)

    @pytest.mark.parametrize("amplitude", [0.0, 0.2])
    @pytest.mark.parametrize("n, N", [(1, 64), (2, 8)])
    def test_bit_equal_to_the_det_g_product(self, n, N, amplitude):
        m = conformal_metric(Torus(n, N), amplitude)
        values = np.random.default_rng(n).random(m.torus.shape)
        expected = float(np.mean(values * m.det()))
        assert integrate(values, m) == expected
        assert integrate(GridFunction(m.torus, values), m) == expected

    def test_flat_metric_allocates_no_field(self):
        import tracemalloc
        m = flat_metric(Torus(1, 256))
        values = np.random.default_rng(0).random(m.torus.shape)
        tracemalloc.start()
        try:
            integrate(values, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 2

    def test_gradient_sup_norm_sine(self):
        t = Torus(1, 128)
        a = 0.07
        f = GridFunction(t, a * np.sin(2 * np.pi * t.axis_coord(0))
                         * np.ones(t.shape))
        assert gradient_sup_norm(f) == pytest.approx(2 * np.pi * a, rel=1e-3)


class TestMetrics:
    def test_flat_metric_constants(self):
        m = flat_metric(Torus(1, 32))
        assert m.factor == 1.0 and m.is_kahler
        assert m.K == 0.0 and m.A == 0.0 and m.B == 0.0
        assert m.min_eig() == pytest.approx(1.0)

    def test_conformal_zero_amplitude_is_flat(self):
        m = conformal_metric(Torus(1, 32), 0.0)
        assert m.K == 0.0 and m.A == 0.0 and m.B == 0.0

    def test_conformal_amplitude_bound(self):
        with pytest.raises(PreconditionError):
            conformal_metric(Torus(1, 32), 0.6)

    def test_conformal_has_positive_curvature_bounds(self):
        m = conformal_metric(Torus(1, 64), 0.2)
        assert np.ndim(m.factor) == 2
        assert m.K > 0.0 and m.B > 0.0
        assert m.min_eig() > 0.0

    def test_flat_factor_is_the_float_one(self):
        for n, N in [(1, 32), (2, 8)]:
            m = flat_metric(Torus(n, N))
            assert type(m.factor) is float and m.factor == 1.0
            assert m.det() == 1.0 and m.sup_norm() == 1.0

    @pytest.mark.parametrize("factor", [
        0.0, -1.0, np.zeros((32, 32)), np.full((32, 32), np.nan),
        np.ones((32, 16)), np.ones((32, 32, 1, 1)),
    ])
    def test_bad_factor_rejected(self, factor):
        with pytest.raises(PreconditionError):
            HermitianMetric(Torus(1, 32), factor)

    def test_negative_constants_rejected(self):
        with pytest.raises(PreconditionError):
            HermitianMetric(Torus(1, 32), 1.0, K=-1.0)

    @pytest.mark.parametrize("n,N,K,A,B", [
        (1, 64, 3.5530575843921985, 1.9739208802178885, 4.053274242140163),
        (2, 16, 3.553057584392181, 1.9739208802178771, 3.9900891116591506),
    ])
    def test_conformal_constants_frozen(self, n, N, K, A, B):
        # values of the full n x n metric field implementation, amplitude 0.2
        m = conformal_metric(Torus(n, N), 0.2)
        assert (m.K, m.A, m.B) == (K, A, B)


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
@pytest.mark.parametrize("kind", ["flat", "conformal"])
def test_omega_form_is_factor_identity_plus_hessian(n, N, kind):
    t = Torus(n, N)
    m = flat_metric(t) if kind == "flat" else conformal_metric(t, 0.3)
    f = GridFunction(t, 0.01 * np.random.default_rng(n).standard_normal(t.shape))
    M = omega_form(f, m)
    assert M.parts.dtype == np.float64 and M.parts.shape == (n * n,) + t.shape
    g = np.zeros(M.parts.shape)
    g[:n] = m.factor
    assert np.array_equal(M.parts, g + complex_hessian(f).parts)
    assert np.array_equal(omega_form(to_spectrum(f.values), m).parts, M.parts)
    # the form of f = 0 is g, built without a transform
    zero = GridFunction.constant(t, 0.0)
    assert np.array_equal(m.form().parts, omega_form(zero, m).parts)


def test_sup_normalized_keeps_a_normalized_function():
    t = Torus(1, 32)
    f = GridFunction(t, np.random.default_rng(0).standard_normal(t.shape))
    g = f.sup_normalized()
    assert np.array_equal(g.values, f.values - f.values.max())
    assert g.sup_normalized() is g


def test_grid_function_adopts_an_owned_array():
    """An owned C-contiguous float64 array is frozen in place, not copied."""
    t = Torus(1, 8)
    arr = np.random.default_rng(0).standard_normal(t.shape)
    f = GridFunction(t, arr)
    assert f.values is arr
    with pytest.raises(ValueError):
        arr[0, 0] = 1.0


@pytest.mark.parametrize("make", [
    lambda a: a[:, ::-1],                              # a view
    lambda a: np.asfortranarray(a),                    # not C-contiguous
    lambda a: a.astype(np.float32),                    # converted
    lambda a: a.tolist(),                              # not an array
])
def test_grid_function_copies_what_it_does_not_own(make):
    t = Torus(1, 8)
    base = np.random.default_rng(1).standard_normal(t.shape)
    src = make(base)
    f = GridFunction(t, src)
    assert not np.shares_memory(f.values, base)
    assert f.values.flags.c_contiguous and not f.values.flags.writeable
    assert np.array_equal(f.values, np.asarray(src, dtype=float))
    base[0, 0] = 5.0  # the caller's array stays writable
