"""Mollification kernel, psh repair, Legendre-type transform, rate estimation."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from torusma.errors import PreconditionError
from torusma.geometry import (
    Torus, GridFunction, HermitianForm, flat_metric, conformal_metric,
    inverse_quarter_laplacian, omega_form, spectral_symbols, to_spectrum, from_spectrum,
)
from torusma.pluripotential import ma_measure, psh_defect, psh_tolerance, is_omega_psh
from torusma.regularize import (
    kernel_profile_raw, kernel_eta, kernel_second_moment, build_kernel,
    Mollifications, mollify, psh_repair, kiselman_legendre,
    l1_rate, rate_deltas, discrete_mass_convergence,
)


def riemann_kernel_mass(n, eta, M=4000):
    """Independent mass oracle: midpoint Riemann sum of eta rho(|w|^2) over
    the ball |w| < 1 in R^(2n), reduced to a radial integral."""
    r = (np.arange(M) + 0.5) / M
    surf = 2 * np.pi if n == 1 else 2 * np.pi**2  # |S^(2n-1)|
    vals = eta * kernel_profile_raw(r**2) * r ** (2 * n - 1)
    return surf * vals.sum() / M


class TestKernelNormalization:
    # normalization constants frozen from adaptive quadrature
    def test_eta_frozen_values(self):
        assert kernel_eta(1) == pytest.approx(0.8652559794322656, abs=1e-12)
        assert kernel_eta(2) == pytest.approx(0.6823181781198966, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_continuum_mass_independent_oracle(self, n):
        assert riemann_kernel_mass(n, kernel_eta(n)) == pytest.approx(1.0, abs=1e-6)

    def test_second_moment_frozen_values(self):
        assert kernel_second_moment(1) == pytest.approx(0.4036526376768057, abs=1e-12)
        assert kernel_second_moment(2) == pytest.approx(0.522622406841117, abs=1e-12)

    def test_profile_support(self):
        assert kernel_profile_raw(np.array([1.0, 1.5])).max() == 0.0
        assert kernel_profile_raw(np.array([0.0]))[0] > 0.0

    def test_discrete_mass_first_order_rate(self):
        errs = discrete_mass_convergence(1, 0.125, [64, 128, 256])
        slope = np.polyfit(np.log([64, 128, 256]), np.log(errs), 1)[0]
        assert slope <= -1.0

    def test_build_kernel_resolution_guards(self):
        t = Torus(1, 64)
        with pytest.raises(PreconditionError):
            build_kernel(t, 0.01)       # below two spacings
        with pytest.raises(PreconditionError):
            build_kernel(t, 0.3)        # beyond a quarter period
        k = build_kernel(t, 0.125)
        assert k.continuum_mass == pytest.approx(1.0, abs=5e-3)


class TestMollify:
    def test_constant_fixed_point(self):
        t = Torus(1, 64)
        f = GridFunction.constant(t, 2.5)
        assert np.allclose(mollify(f, 0.125).values, 2.5, atol=1e-12)

    @given(a=st.floats(-1, 1), b=st.floats(-1, 1))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b):
        t = Torus(1, 64)
        x = t.axis_coord(0)
        f = GridFunction(t, np.cos(2 * np.pi * x) * np.ones(t.shape))
        g = GridFunction(t, np.sin(4 * np.pi * x) * np.ones(t.shape))
        lhs = mollify(GridFunction(t, a * f.values + b * g.values), 0.125)
        rhs = a * mollify(f, 0.125).values + b * mollify(g, 0.125).values
        assert np.allclose(lhs.values, rhs, atol=1e-11)

    def test_smoothing_shrinks_oscillation(self):
        t = Torus(1, 128)
        x = t.axis_coord(0)
        f = GridFunction(t, np.cos(8 * np.pi * x) * np.ones(t.shape))
        g = mollify(f, 0.125)
        assert g.values.max() - g.values.min() < 0.5 * (f.values.max()
                                                        - f.values.min())

    def test_preserves_psh_on_flat_torus(self):
        t = Torus(1, 64)
        m = flat_metric(t)
        x = t.axis_coord(0)
        f = GridFunction(t, 0.02 * np.cos(2 * np.pi * x) * np.ones(t.shape))
        assert is_omega_psh(f, m)
        assert is_omega_psh(mollify(f, 0.0625), m)


class TestMollifications:
    @pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
    def test_family_equals_mollify(self, n, N):
        t = Torus(n, N)
        f = GridFunction(t, np.random.default_rng(n).standard_normal(t.shape))
        family = Mollifications(f)
        for delta in (0.25, 2 * t.spacing, 0.125):
            assert np.array_equal(family(delta).values, mollify(f, delta).values)

    def test_repeated_radius_costs_no_transform(self, inverse_transforms):
        t = Torus(1, 64)
        x = t.axis_coord(0)
        family = Mollifications(GridFunction(t, np.cos(2 * np.pi * x)
                                             * np.ones(t.shape)))
        first = family(0.125)
        inverse_transforms.clear()
        assert family(1 / 8) is first
        assert inverse_transforms == []
        family(1 / 16)
        assert len(inverse_transforms) == 1

    def test_new_radius_after_spectrum_released_raises(self, inverse_transforms):
        # a radius convolved before the release is still read; one never
        # convolved raises instead of transforming again
        t = Torus(1, 64)
        family = Mollifications(GridFunction(t, np.cos(2 * np.pi * t.axis_coord(0))
                                             * np.ones(t.shape)))
        first = family(0.125)
        family.release_spectrum()
        inverse_transforms.clear()
        assert family(0.125) is first
        with pytest.raises(RuntimeError, match="never convolved"):
            family(1 / 16)
        assert inverse_transforms == []


class TestPshRepair:
    def test_psh_input_unchanged(self):
        t = Torus(1, 64)
        m = flat_metric(t)
        x = t.axis_coord(0)
        f = GridFunction(t, 0.02 * np.cos(2 * np.pi * x) * np.ones(t.shape))
        g, M = psh_repair(f, m)
        assert np.abs(g.values - f.values).max() < 1e-9
        assert g is f
        # the form it was verified on, bit for bit the form of f
        assert np.array_equal(M.parts, omega_form(f, m).parts)

    def test_repairs_cusp_into_cone(self):
        t = Torus(1, 128)
        m = flat_metric(t)
        x = t.axis_coord(0)
        f = GridFunction(t, 0.05 * np.abs(np.sin(np.pi * x)) ** 0.5
                         * np.ones(t.shape))
        assert not is_omega_psh(f, m)
        g, M = psh_repair(f, m, rounds=8)
        assert M is None  # repaired: no form of the result
        assert psh_defect(g, m) >= -psh_tolerance(m)

    def test_repairs_two_dim(self):
        t = Torus(2, 16)
        m = flat_metric(t)
        x = t.axis_coord(0)
        f = GridFunction(t, 0.2 * np.cos(2 * np.pi * x) * np.ones(t.shape))
        g, M = psh_repair(f, m, rounds=8)
        assert M is None  # repaired: no form of the result
        assert psh_defect(g, m) >= -psh_tolerance(m)


def as_matrix(form):
    """The form as a complex (..., n, n) matrix field."""
    p = form.parts
    if len(p) == 1:
        return p[0][..., None, None].astype(complex)
    b = p[2] + 1j * p[3]
    return np.stack([np.stack([p[0], b], -1), np.stack([b.conj(), p[1]], -1)], -2)


def ref_clamp_eigs(M, floor):
    """Clamped matrix field: the smallest eigenvalue of each M raised to
    `floor` by a rank-one correction along its eigenvector."""
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
    lam1 = half_tr - np.sqrt(np.maximum(half_tr**2 - det, 0.0))
    deficit = np.maximum(floor - lam1, 0.0)
    # when b == 0 the eigenvector is the basis vector of the smaller diagonal entry
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


def ref_psh_repair(f, metric, rounds=5, lattice_round=False):
    """psh repair that rebuilds f from the trace of the whole clamped field,
    carrying the half spectrum of the iterate as `psh_repair` does at n = 2.
    With `lattice_round` (n = 1) each next form is g + (T - mean T), formed
    on the lattice as `psh_repair` forms it at n = 1, and only the last
    round's spectrum is synthesized."""
    tol = psh_tolerance(metric)
    torus = f.torus
    inv_quarter_lap = spectral_symbols(torus).inv_quarter_lap
    F = to_spectrum(f.values)
    origin = (0,) * torus.ndim_real
    mean_mode = F[origin]
    M = omega_form(F, metric)
    for _ in range(rounds):
        if float(M.min_eig().min()) >= -tol:
            break
        clamped = ref_clamp_eigs(as_matrix(M), 0.0)
        target_trace = sum(clamped[..., j, j].real - metric.factor
                           for j in range(torus.n))
        F = inv_quarter_lap * to_spectrum(target_trace)
        F[origin] = mean_mode
        if lattice_round:
            M = HermitianForm(((target_trace - target_trace.mean())
                               + metric.factor)[np.newaxis])
        else:
            M = omega_form(F, metric)
    current = GridFunction(torus, from_spectrum(torus, F))
    defect = float(M.min_eig().min())
    if defect >= -tol:
        return current
    lam = metric.min_eig()
    theta = lam / (lam - defect + tol)
    return GridFunction(torus, theta * current.values)


def lattice_psh_repair(f, metric, rounds=5):
    """The psh repair that rebuilds the lattice values of every iterate: one
    Hessian and one Poisson solve per round, the mean of the iterate added."""
    tol = psh_tolerance(metric)
    current = f
    for k in range(rounds + 1):
        M = omega_form(current, metric)
        lam = M.min_eig()
        defect = float(lam.min())
        if defect >= -tol:
            return current
        if k == rounds:
            break
        # sum the clamped diagonal before subtracting g: at n = 1 this is
        # max(M_00, 0) - factor bit for bit
        target_trace = (M.trace() + np.maximum(-lam, 0.0)
                        - f.torus.n * metric.factor)
        mean = float(current.values.mean())
        rebuilt = inverse_quarter_laplacian(f.torus, target_trace) + mean
        current = GridFunction(f.torus, rebuilt)
    lam = metric.min_eig()
    theta = lam / (lam - defect + tol)
    return GridFunction(f.torus, theta * current.values)


def cusp_with_noise(t):
    """A function outside the cone that the repair needs every round for."""
    x = t.axis_coord(0)
    rng = np.random.default_rng(t.n * 1000 + t.N)
    return GridFunction(t, 0.05 * np.abs(np.sin(np.pi * x)) ** 0.5 * np.ones(t.shape)
                        + 0.003 * rng.standard_normal(t.shape))


@pytest.mark.parametrize("n,N", [(1, 64), (1, 128), (2, 8), (2, 16)])
@pytest.mark.parametrize("kind", ["flat", "conformal"])
@pytest.mark.parametrize("rounds", [1, 5, 8])
def test_trace_repair_matches_clamped_field(n, N, kind, rounds):
    """Raising lambda_min to 0 adds max(-lambda_min, 0) to the trace, so the
    repair from the trace reproduces the repair from the clamped field: at
    n = 1 bit for bit with the lattice round, and to rounding with the
    spectral round; at n = 2 to rounding."""
    t = Torus(n, N)
    m = flat_metric(t) if kind == "flat" else conformal_metric(t, 0.2)
    f = cusp_with_noise(t)
    vals = f.values
    assert not is_omega_psh(f, m)
    got = psh_repair(f, m, rounds=rounds)[0].values
    want = ref_psh_repair(f, m, rounds=rounds).values
    assert not np.array_equal(want, vals)
    if n == 1:
        lattice = ref_psh_repair(f, m, rounds=rounds, lattice_round=True).values
        assert np.array_equal(got, lattice)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n,N", [(1, 64), (1, 128), (2, 8), (2, 16)])
@pytest.mark.parametrize("kind", ["flat", "conformal"])
@pytest.mark.parametrize("rounds", [1, 5, 8])
def test_spectral_repair_matches_lattice_repair(n, N, kind, rounds,
                                                inverse_transforms,
                                                forward_transforms):
    """Carrying the half spectrum instead of lattice values changes the
    repair only by rounding, with fewer transforms."""
    t = Torus(n, N)
    m = flat_metric(t) if kind == "flat" else conformal_metric(t, 0.2)
    f = cusp_with_noise(t)
    inverse_transforms.clear()
    forward_transforms.clear()
    got = psh_repair(f, m, rounds=rounds)[0].values
    spectral_work = (len(inverse_transforms), len(forward_transforms))
    inverse_transforms.clear()
    forward_transforms.clear()
    want = lattice_psh_repair(f, m, rounds=rounds).values
    lattice_work = (len(inverse_transforms), len(forward_transforms))
    assert not np.array_equal(want, f.values)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert spectral_work[0] <= lattice_work[0]
    assert spectral_work[1] < lattice_work[1]


def psh_repair_with_temporaries(f, metric, rounds=5):
    """`psh_repair` as it was before its rounds were formed in place: the
    target trace built from fresh temporaries, the spectrum scaled into a
    new array and the contraction multiplied into a new field. At n = 1 the
    next form is g + (T - mean T) on the lattice, and every round's T is
    transformed where `psh_repair` transforms only the last. Kept as the
    byte-level reference of the in-place rounds."""
    tol = psh_tolerance(metric)
    torus = f.torus
    inv_quarter_lap = spectral_symbols(torus).inv_quarter_lap
    F = to_spectrum(f.values)
    origin = (0,) * torus.ndim_real
    mean_mode = F[origin]
    M = omega_form(F, metric)
    for k in range(rounds + 1):
        lam = M.min_eig()
        defect = float(lam.min())
        if defect >= -tol:
            if k == 0:
                return f, M
            return GridFunction(torus, from_spectrum(torus, F)), None
        if k == rounds:
            break
        target_trace = M.trace() + np.maximum(-lam, 0.0) - torus.n * metric.factor
        F = inv_quarter_lap * to_spectrum(target_trace)
        F[origin] = mean_mode
        if torus.n == 1:
            M = HermitianForm(((target_trace - target_trace.mean())
                               + metric.factor)[np.newaxis])
        else:
            M = omega_form(F, metric)
    lam = metric.min_eig()
    theta = lam / (lam - defect + tol)
    return GridFunction(torus, theta * from_spectrum(torus, F)), None


@pytest.mark.parametrize("n,N", [(1, 64), (2, 8)])
@pytest.mark.parametrize("kind", ["flat", "conformal"])
@pytest.mark.parametrize("rounds", [1, 5, 8])
@pytest.mark.parametrize("inside", [False, True])
def test_repair_bytes_match_the_reference(n, N, kind, rounds, inside):
    """g, and M when the repair returns it, byte for byte as the reference
    forms them: on a function outside the cone (repaired, or contracted
    when the rounds run out) and on one inside it (returned with its
    form)."""
    t = Torus(n, N)
    m = flat_metric(t) if kind == "flat" else conformal_metric(t, 0.2)
    if inside:
        x = t.axis_coord(0)
        f = GridFunction(t, 0.002 * np.cos(2 * np.pi * x) * np.ones(t.shape))
    else:
        f = cusp_with_noise(t)
    g, M = psh_repair(f, m, rounds=rounds)
    want_g, want_M = psh_repair_with_temporaries(f, m, rounds=rounds)
    assert (M is None) == (want_M is None) == (not inside)
    assert g.values.tobytes() == want_g.values.tobytes()
    if inside:
        assert M.parts.tobytes() == want_M.parts.tobytes()
    else:
        assert g.values.tobytes() != f.values.tobytes()
        if n == 1:  # the lattice round moves the spectral one's g at rounding
            spectral = ref_psh_repair(f, m, rounds=rounds).values
            assert np.abs(g.values - spectral).max() <= 1e-12 * np.abs(spectral).max()


class TestPshRepairTransforms:
    """f is transformed forward once, and its form costs one inverse
    transform per part. At n = 2 each round costs one inverse transform per
    form part and one forward transform, and the result one inverse
    transform. At n = 1 a round costs none: only the last round's target is
    transformed forward, and the result inverted."""

    def test_one_dim_five_rounds(self, inverse_transforms, forward_transforms):
        t = Torus(1, 64)
        psh_repair(cusp_with_noise(t), flat_metric(t), rounds=5)
        assert len(inverse_transforms) == 2
        assert len(forward_transforms) == 2

    def test_two_dim_five_rounds(self, inverse_transforms, forward_transforms):
        t = Torus(2, 8)
        psh_repair(cusp_with_noise(t), flat_metric(t))
        assert len(inverse_transforms) == 4 * 6 + 1
        assert len(forward_transforms) == 6


@pytest.mark.parametrize("kind, fields", [("flat", 3.1), ("conformal", 3.1)])
def test_one_dim_repair_peak(kind, fields):
    # tracemalloc peak above entry of one n = 1 N = 256 repair, in lattice
    # fields: the half spectrum of f beside its form's inverse transform
    # (3.02 flat and conformal: at n = 1 the trace of g is the metric's own
    # factor, not a fresh field). A round holds the form and its clamp, or T
    # and the next form; the previous round's T and the spectrum of f are
    # gone by then (4.02 and 5.02 when every round was transformed)
    import tracemalloc
    t = Torus(1, 256)
    m = flat_metric(t) if kind == "flat" else conformal_metric(t, 0.2)
    f = cusp_with_noise(t)
    psh_repair(f, m)  # symbol tables and FFT plans cached
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        g, M = psh_repair(f, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M is None and g.values.tobytes() != f.values.tobytes()
    assert (peak - entry) / (8 * t.npoints) <= fields


@given(seed=st.integers(0, 2**32 - 1), cusp=st.floats(0.02, 0.2),
       noise=st.floats(0.0, 0.01), kind=st.sampled_from(["flat", "conformal"]))
@settings(max_examples=25, deadline=None)
def test_one_dim_round_identity(seed, cusp, noise, kind):
    """At n = 1 a round maps the form M to g + (T - mean T), T = max(M, 0) - g.
    Its minimum is -mean max(-M, 0), minus the mean negative part of M, and
    it is the form of the iterate the round synthesizes. One round of
    `psh_repair` contracts that iterate by the defect the identity gives."""
    t = Torus(1, 32)
    m = flat_metric(t) if kind == "flat" else conformal_metric(t, 0.2)
    x = t.axis_coord(0)
    rng = np.random.default_rng(seed)
    f = GridFunction(t, cusp * np.abs(np.sin(np.pi * x)) ** 0.5 * np.ones(t.shape)
                     + noise * rng.standard_normal(t.shape))
    M = omega_form(f, m).parts[0]
    target = np.maximum(M, 0.0) - m.factor
    lattice = (target - target.mean()) + m.factor
    negative = float(np.maximum(-M, 0.0).mean())
    scale = 1e-12 * np.abs(M).max()
    assert abs(lattice.min() + negative) <= scale
    # the synthesized iterate: (1/4) Lap f1 = T - mean T, with the sum of f
    F = to_spectrum(target) * spectral_symbols(t).inv_quarter_lap
    F[0, 0] = to_spectrum(f.values)[0, 0]
    f1 = from_spectrum(t, F)
    assert np.abs(omega_form(GridFunction(t, f1), m).parts[0] - lattice).max() <= scale
    tol = psh_tolerance(m)
    assert negative > 2.0 * tol  # the cusp keeps one round short of the cone
    g, _ = psh_repair(f, m, rounds=1)
    lam = m.min_eig()
    theta = lam / (lam + negative + tol)
    assert np.abs(g.values - theta * f1).max() <= 1e-12 * np.abs(f1).max()


class TestKiselmanLegendre:
    @pytest.fixture
    def phi64(self):
        t = Torus(1, 64)
        m = flat_metric(t)
        x = t.axis_coord(0)
        return GridFunction(t, 0.04 * np.cos(2 * np.pi * x)
                            * np.ones(t.shape)), m

    @staticmethod
    def cusp(phi):
        """phi plus a square-root cusp, so that small levels move the
        minimizer below delta at some points."""
        t = phi.torus
        return GridFunction(t, phi.values + 0.01 * np.abs(
            np.sin(np.pi * t.axis_coord(1))) ** 0.5 * np.ones(t.shape))

    def test_upper_bounded_by_t_equals_delta(self, phi64):
        phi, m = phi64
        delta, b, K = 0.125, 0.01, 0.5
        [T] = kiselman_legendre(Mollifications(phi), [(delta, b)], K)
        upper = mollify(phi, delta).values + K * delta**2 + K * delta
        assert np.all(T.value.values <= upper + 1e-12)

    def test_t_opt_within_grid(self, phi64, kl_reference):
        # the pointwise minimizer t_opt of the per-row reference lies on the
        # grid, and t0_min is its minimum
        phi, m = phi64
        [T] = kiselman_legendre(Mollifications(phi), [(0.125, 0.01)], 0.5)
        _, t_opt, t_grid = kl_reference(phi, 0.125, 0.01, 0.5)
        assert T.t_grid == t_grid
        assert set(np.unique(t_opt)) <= set(T.t_grid)
        assert T.t0_min == t_opt.min()
        assert max(T.t_grid) == 0.125
        assert min(T.t_grid) >= 2 * phi.torus.spacing

    @pytest.mark.parametrize("b, K", [(0.003, 0.05), (1e-4, 0.0), (1.0, 0.5)])
    def test_matches_pointwise_minimum_over_grid(self, phi64, b, K):
        # reference: one mollify per t and a pointwise np.where minimum; the
        # transform must agree bit for bit (at b = 0.003 every t wins somewhere)
        phi, m = phi64
        phi = self.cusp(phi)
        delta = 0.125
        [T] = kiselman_legendre(Mollifications(phi), [(delta, b)], K)
        best = best_t = None
        for t in T.t_grid:
            cand = mollify(phi, t).values + K * t * t + K * t - b * math.log(t / delta)
            if best is None:
                best, best_t = cand, np.full(phi.torus.shape, t)
            else:
                best_t = np.where(cand < best, t, best_t)
                best = np.where(cand < best, cand, best)
        assert np.array_equal(T.value.values, best)
        assert T.t0_min == best_t.min()
        assert T.modulus == float((mollify(phi, T.t0_min).values - phi.values).max())
        if b == 0.003:
            assert set(np.unique(best_t)) == set(T.t_grid)

    def test_one_pass_equals_rows_one_at_a_time(self, phi64, kl_reference,
                                                inverse_transforms):
        # overlapping dyadic grids, a non-dyadic grid and a repeated delta:
        # every row equals its own per-row loop bit for bit, and each
        # distinct radius is convolved once
        phi, m = phi64
        phi = self.cusp(phi)
        levels = [(0.125, 0.003), (0.0625, 1e-4), (0.1, 0.01), (0.125, 1.0)]
        inverse_transforms.clear()
        transforms = list(kiselman_legendre(Mollifications(phi), levels, 0.05))
        radii = {t for T in transforms for t in T.t_grid}
        assert len(inverse_transforms) == len(radii) == 5
        assert any(T.t0_min < delta for (delta, _), T in zip(levels, transforms))
        for (delta, b), T in zip(levels, transforms):
            value, t_opt, t_grid = kl_reference(phi, delta, b, 0.05)
            assert T.t_grid == t_grid
            assert np.array_equal(T.value.values, value)
            assert T.t0_min == t_opt.min()
            assert T.modulus == float(
                (mollify(phi, T.t0_min).values - phi.values).max())

    def test_pass_keeps_the_radii_it_convolved(self, phi64, inverse_transforms):
        # after both rows the family still holds every radius they read:
        # the rows' deltas, and 1/32, which is no row's delta
        phi, m = phi64
        family = Mollifications(phi)
        first = family(0.125)
        inverse_transforms.clear()
        list(kiselman_legendre(family, [(0.125, 0.01), (0.0625, 0.01)], 0.5))
        assert len(inverse_transforms) == 2
        assert family(0.125) is first
        family(0.0625)
        family(1 / 32)
        assert len(inverse_transforms) == 2

    # kl_reference is a pure function, so hypothesis may share it across examples
    @given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.01, 1.0),
           shift=st.floats(-5.0, 5.0).filter(lambda c: abs(c) > 1e-3),
           K=st.floats(0.0, 1.0), cuts=st.tuples(st.floats(0.3, 2.9),
                                                 st.floats(2.1, 6.0),
                                                 st.floats(0.3, 6.0)))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_pruned_pass_equals_full_grid_rows(self, kl_reference, seed, amplitude,
                                               shift, K, cuts):
        # a band-limited phi with sup phi != 0; each row's level puts its cut
        # near k = cuts[i]: the delta = 1/4 row (grid k = 0..3) always loses
        # its smallest radius, the delta = 1/8 row (k = 0..2) keeps all, and
        # the delta = 0.1 row falls on either side
        t = Torus(1, 64)
        rng = np.random.default_rng(seed)
        x, y = t.axis_coord(0), t.axis_coord(1)
        values = np.zeros(t.shape)
        for j in range(4):
            for k in range(4):
                a, c = rng.standard_normal(2)
                arg = 2 * np.pi * (j * x + k * y)
                values += a * np.cos(arg) + c * np.sin(arg)
        values *= amplitude / np.abs(values).max()
        phi = GridFunction(t, values + shift)
        osc = float(values.max() - values.min())
        levels = [(delta, (osc + K * delta * (1 + delta)) / (cut * math.log(2)))
                  for delta, cut in zip((0.25, 0.125, 0.1), cuts)]
        transforms = kiselman_legendre(Mollifications(phi), levels, K)
        for (delta, b), T in zip(levels, transforms):
            value, t_opt, t_grid = kl_reference(phi, delta, b, K)
            assert T.t_grid == t_grid
            assert np.array_equal(T.value.values, value)
            assert T.t0_min == t_opt.min()
            assert T.modulus == float(
                (mollify(phi, T.t0_min).values - phi.values).max())

    def test_pruned_radius_is_never_convolved(self, phi64, inverse_transforms):
        # osc phi = 0.08, K = 0.05 and delta = 1/4 give the reach
        # 0.08 + 0.05 (1/4) (5/4) = 0.0956; at b = 0.05, k b ln 2 = 0.0347 k,
        # so k <= 2 is kept and t = 1/32 (k = 3) is skipped
        phi, m = phi64
        family = Mollifications(phi)
        inverse_transforms.clear()
        [T] = kiselman_legendre(family, [(0.25, 0.05)], 0.05)
        assert T.t_grid == (0.25, 0.125, 0.0625, 0.03125)
        assert len(inverse_transforms) == 3
        # never convolved, and the spectrum is gone: a read raises
        with pytest.raises(RuntimeError, match="never convolved"):
            family(1 / 32)
        assert len(inverse_transforms) == 3

    def test_rows_are_formed_one_at_a_time(self, phi64, inverse_transforms):
        # the union of the cut grids is convolved before the first row, and
        # a row is formed when asked for; the rows release nothing, so 1/32,
        # which both rows read, is still there after the second
        phi, m = phi64
        family = Mollifications(phi)
        inverse_transforms.clear()
        rows = kiselman_legendre(family, [(0.125, 0.01), (0.0625, 0.01)], 0.5)
        assert len(inverse_transforms) == 3
        assert family.spectrum is None
        first = next(rows)
        assert first.t_grid[0] == 0.125
        second = next(rows)
        assert second.t_grid[0] == 0.0625
        family(1 / 32)
        assert len(inverse_transforms) == 3

    def test_negative_K_rejected(self, phi64, inverse_transforms):
        phi, m = phi64
        with pytest.raises(PreconditionError, match="K must be nonnegative"):
            kiselman_legendre(Mollifications(phi), [(0.125, 0.01)], -0.1)
        assert inverse_transforms == []  # raised before any convolution

    def test_level_must_be_positive(self, phi64, inverse_transforms):
        phi, m = phi64
        with pytest.raises(PreconditionError):
            kiselman_legendre(Mollifications(phi), [(0.125, 0.0)], 0.5)
        assert inverse_transforms == []  # raised before any convolution

    def test_under_resolved_delta_rejected(self, phi64, inverse_transforms):
        phi, m = phi64
        with pytest.raises(PreconditionError):
            kiselman_legendre(Mollifications(phi), [(0.01, 0.01)], 0.5)
        assert inverse_transforms == []  # raised before any convolution


class TestL1Rate:
    def test_smooth_function_rate_near_two(self):
        t = Torus(1, 64)
        m = flat_metric(t)
        x = t.axis_coord(0)
        phi = GridFunction(t, 0.05 * np.cos(2 * np.pi * x) * np.ones(t.shape))
        mu = ma_measure(phi, m)
        rate, C = l1_rate(Mollifications(phi), mu, (1 / 4, 1 / 8, 1 / 16, 1 / 32), m)
        assert rate == pytest.approx(2.0, abs=0.1)
        assert C > 0.0

    def test_sqrt_cusp_fixture_frozen_rate(self):
        # repaired |sin(pi x)|^(1/2) fixture at N=64; value frozen from a
        # direct run of this pipeline (regression oracle)
        t = Torus(1, 64)
        m = flat_metric(t)
        x = t.axis_coord(0)
        raw = GridFunction(t, 0.05 * np.abs(np.sin(np.pi * x)) ** 0.5
                           * np.ones(t.shape))
        u = psh_repair(raw, m, rounds=8)[0]
        mu = ma_measure(u, m)
        rate, _ = l1_rate(Mollifications(u), mu, (1 / 4, 1 / 8, 1 / 16, 1 / 32), m)
        assert rate == pytest.approx(1.2344584974855304, abs=1e-9)

    def test_constant_reports_unit_rate(self):
        t = Torus(1, 64)
        m = flat_metric(t)
        phi = GridFunction.constant(t, 0.0)
        mu = ma_measure(phi, m)
        assert l1_rate(Mollifications(phi), mu, (1 / 4, 1 / 8, 1 / 16, 1 / 32), m) == (1.0, 0.0)

    def test_needs_enough_deltas(self):
        t = Torus(1, 64)
        m = flat_metric(t)
        phi = GridFunction.constant(t, 0.0)
        mu = ma_measure(phi, m)
        with pytest.raises(PreconditionError):
            l1_rate(Mollifications(phi), mu, (1 / 4, 1 / 8), m)
        with pytest.raises(PreconditionError):
            l1_rate(Mollifications(phi), mu, (1 / 4, 1 / 5, 1 / 6, 1 / 7), m)


class TestRateDeltas:
    def test_extends_up_then_down(self):
        t = Torus(1, 64)
        assert rate_deltas((1 / 8, 1 / 16, 1 / 32), t) == [1 / 32, 1 / 16, 1 / 8, 1 / 4]
        assert rate_deltas((1 / 4,), t) == [1 / 32, 1 / 16, 1 / 8, 1 / 4]

    def test_long_ladder_kept(self):
        deltas = (1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64)
        assert rate_deltas(deltas, Torus(1, 128)) == sorted(deltas)

    @pytest.mark.parametrize("deltas", [(1 / 8, 1 / 16, 1 / 32), (0.3, 0.125)])
    def test_delta_outside_range_rejected(self, deltas):
        with pytest.raises(PreconditionError, match=r"\[2/N, 1/4\]"):
            rate_deltas(deltas, Torus(2, 16))

    def test_short_ladder_rejected(self):
        # at N=16 the floor 2/N = 1/8 leaves only two dyadic radii
        with pytest.raises(PreconditionError, match="fewer than 4"):
            rate_deltas((1 / 4, 1 / 8), Torus(2, 16))

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError, match="nonempty"):
            rate_deltas((), Torus(1, 64))
