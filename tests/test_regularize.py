"""Mollification kernel, psh repair, Legendre-type transform, rate estimation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusma.errors import PreconditionError
from torusma.geometry import Torus, GridFunction, flat_metric
from torusma.pluripotential import ma_measure, psh_defect, psh_tolerance, is_omega_psh
from torusma.regularize import (
    kernel_profile_raw, kernel_eta, kernel_second_moment, build_kernel,
    mollify, psh_repair, kiselman_legendre, hessian_lower_bound_check,
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


class TestPshRepair:
    def test_psh_input_unchanged(self):
        t = Torus(1, 64)
        m = flat_metric(t)
        x = t.axis_coord(0)
        f = GridFunction(t, 0.02 * np.cos(2 * np.pi * x) * np.ones(t.shape))
        g = psh_repair(f, m)
        assert np.abs(g.values - f.values).max() < 1e-9

    def test_repairs_cusp_into_cone(self):
        t = Torus(1, 128)
        m = flat_metric(t)
        x = t.axis_coord(0)
        f = GridFunction(t, 0.05 * np.abs(np.sin(np.pi * x)) ** 0.5
                         * np.ones(t.shape))
        assert not is_omega_psh(f, m)
        g = psh_repair(f, m, rounds=8)
        assert psh_defect(g, m) >= -psh_tolerance(m)

    def test_repairs_two_dim(self):
        t = Torus(2, 16)
        m = flat_metric(t)
        x = t.axis_coord(0)
        f = GridFunction(t, 0.2 * np.cos(2 * np.pi * x) * np.ones(t.shape))
        g = psh_repair(f, m, rounds=8)
        assert psh_defect(g, m) >= -psh_tolerance(m)


class TestKiselmanLegendre:
    @pytest.fixture
    def phi64(self):
        t = Torus(1, 64)
        m = flat_metric(t)
        x = t.axis_coord(0)
        return GridFunction(t, 0.04 * np.cos(2 * np.pi * x)
                            * np.ones(t.shape)), m

    def test_upper_bounded_by_t_equals_delta(self, phi64):
        phi, m = phi64
        delta, b, K = 0.125, 0.01, 0.5
        T = kiselman_legendre(phi, delta, b, K)
        upper = mollify(phi, delta).values + K * delta**2 + K * delta
        assert np.all(T.value.values <= upper + 1e-12)

    def test_t_opt_within_grid(self, phi64):
        phi, m = phi64
        T = kiselman_legendre(phi, 0.125, 0.01, 0.5)
        assert set(np.unique(T.t_opt.values)) <= set(T.t_grid)
        assert max(T.t_grid) == 0.125
        assert min(T.t_grid) >= 2 * phi.torus.spacing

    def test_level_must_be_positive(self, phi64):
        phi, m = phi64
        with pytest.raises(PreconditionError):
            kiselman_legendre(phi, 0.125, 0.0, 0.5)

    def test_under_resolved_delta_rejected(self, phi64):
        phi, m = phi64
        with pytest.raises(PreconditionError):
            kiselman_legendre(phi, 0.01, 0.01, 0.5)

    def test_hessian_lower_bound_flat(self, phi64):
        # flat case: Phi stays omega-psh up to the diagnostic slack
        phi, m = phi64
        sigma = kernel_second_moment(1)
        T = kiselman_legendre(phi, 0.125, 0.01, sigma)
        assert hessian_lower_bound_check(T, m, 0.0) >= -1e-3


class TestL1Rate:
    def test_smooth_function_rate_near_two(self):
        t = Torus(1, 64)
        m = flat_metric(t)
        x = t.axis_coord(0)
        phi = GridFunction(t, 0.05 * np.cos(2 * np.pi * x) * np.ones(t.shape))
        mu = ma_measure(phi, m)
        rate, C = l1_rate(phi, mu, (1 / 4, 1 / 8, 1 / 16, 1 / 32), m)
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
        u = psh_repair(raw, m, rounds=8)
        mu = ma_measure(u, m)
        rate, _ = l1_rate(u, mu, (1 / 4, 1 / 8, 1 / 16, 1 / 32), m)
        assert rate == pytest.approx(1.2344584974855304, abs=1e-9)

    def test_constant_reports_unit_rate(self):
        t = Torus(1, 64)
        m = flat_metric(t)
        phi = GridFunction.constant(t, 0.0)
        mu = ma_measure(phi, m)
        assert l1_rate(phi, mu, (1 / 4, 1 / 8, 1 / 16, 1 / 32), m) == (1.0, 0.0)

    def test_needs_enough_deltas(self):
        t = Torus(1, 64)
        m = flat_metric(t)
        phi = GridFunction.constant(t, 0.0)
        mu = ma_measure(phi, m)
        with pytest.raises(PreconditionError):
            l1_rate(phi, mu, (1 / 4, 1 / 8), m)
        with pytest.raises(PreconditionError):
            l1_rate(phi, mu, (1 / 4, 1 / 5, 1 / 6, 1 / 7), m)


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
