"""Quasi-psh cone membership, Monge-Ampere measures, sublevel sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusma.errors import NotOmegaPshError, PreconditionError
from torusma.fixtures import cos_datum, manufactured_cos
from torusma.geometry import Torus, GridFunction, conformal_metric, flat_metric
from torusma.pluripotential import (
    MeasureField, psh_tolerance, psh_defect, is_omega_psh, ma_measure, sublevel,
)


@pytest.fixture
def flat64():
    return flat_metric(Torus(1, 64))


def cos_fn(torus, a, axis=0):
    x = torus.axis_coord(axis)
    return GridFunction(torus, a * np.cos(2 * np.pi * x) * np.ones(torus.shape))


class TestManufacturedCos:
    def test_one_form_for_check_and_measure(self, monkeypatch):
        # the density reads one Hessian of phi* (the psh check is closed
        # form), also when it is taken on a conformal metric
        import torusma.geometry
        calls = []
        hessian = torusma.geometry.hessian_of_spectrum

        def counted(torus, F):
            calls.append(1)
            return hessian(torus, F)

        conformal = conformal_metric(Torus(2, 8), 0.2)
        monkeypatch.setattr(torusma.geometry, "hessian_of_spectrum", counted)
        manufactured_cos(2, 8)
        assert len(calls) == 1
        cos_datum(conformal, 0.05)
        assert len(calls) == 2

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 8)])
    def test_measure_is_ma_measure(self, n, N):
        phi, mu, m = manufactured_cos(n, N)
        ref = ma_measure(phi, m)
        assert np.array_equal(mu.density.values, ref.density.values)
        assert mu.mass == ref.mass

    def test_conformal_measure_is_ma_measure(self):
        metric = conformal_metric(Torus(2, 8), 0.2)
        phi, mu = cos_datum(metric, 0.05)
        ref = ma_measure(phi, metric)
        assert np.array_equal(mu.density.values, ref.density.values)
        assert mu.mass == ref.mass

    def test_non_psh_amplitude_rejected(self):
        # 1 - amplitude pi^2 < 0 at the top of the cosine
        with pytest.raises(PreconditionError, match="too large for psh fixture"):
            manufactured_cos(1, 64, 0.2)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 8)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_psh_bound_is_amplitude_pi_squared(self, n, N, sign):
        # H(phi*) is diagonal with entries -pi^2 a cos(2 pi x_j), so phi* is
        # psh for the flat metric exactly when pi^2 |a| <= 1
        metric = flat_metric(Torus(n, N))
        phi, _ = cos_datum(metric, sign * (1 - 1e-6) / np.pi**2)
        assert psh_defect(phi, metric) > 0.0
        with pytest.raises(PreconditionError, match="too large for psh fixture"):
            cos_datum(metric, sign * (1 + 1e-6) / np.pi**2)


class TestPshCone:
    def test_constant_defect_is_metric_floor(self, flat64):
        f = GridFunction.constant(flat64.torus, -2.0)
        assert psh_defect(f, flat64) == pytest.approx(1.0)

    def test_cosine_defect_closed_form(self, flat64):
        # g + H = 1 - a pi^2 cos(2 pi x); min eig = 1 - a pi^2
        a = 0.05
        f = cos_fn(flat64.torus, a)
        assert psh_defect(f, flat64) == pytest.approx(1 - a * np.pi**2, abs=1e-12)

    def test_membership_threshold(self, flat64):
        assert is_omega_psh(cos_fn(flat64.torus, 0.05), flat64)
        assert not is_omega_psh(cos_fn(flat64.torus, 0.2), flat64)

    def test_tolerance_scales_with_metric(self, flat64):
        assert psh_tolerance(flat64) == pytest.approx(1e-8)


class TestMAMeasure:
    def test_flat_constant_gives_unit_density(self, flat64):
        mu = ma_measure(GridFunction.constant(flat64.torus, 0.0), flat64)
        assert np.allclose(mu.density.values, 1.0)
        assert mu.mass == pytest.approx(1.0)

    @given(a=st.floats(-0.08, 0.08), b=st.floats(-0.04, 0.04))
    @settings(max_examples=25, deadline=None)
    def test_mass_conservation(self, a, b):
        # integral of det(g + H f) dV equals integral of det g dV on the
        # flat torus, for any smooth f (divergence structure of det H)
        t = Torus(2, 8)
        m = flat_metric(t)
        x1, y2 = t.axis_coord(0), t.axis_coord(3)
        f = GridFunction(t, (a * np.cos(2 * np.pi * x1)
                             + b * np.sin(2 * np.pi * y2)
                             + a * b * np.cos(2 * np.pi * x1)
                             * np.cos(2 * np.pi * y2)) * np.ones(t.shape))
        if not is_omega_psh(f, m):
            return
        assert ma_measure(f, m).mass == pytest.approx(1.0, abs=1e-10)

    def test_shift_invariance(self, flat64):
        f = cos_fn(flat64.torus, 0.03)
        d1 = ma_measure(f, flat64).density.values
        d2 = ma_measure(GridFunction(f.torus, f.values + 5.0), flat64).density.values
        assert np.allclose(d1, d2, atol=1e-13)

    def test_rejects_strongly_concave_input(self, flat64):
        with pytest.raises(NotOmegaPshError):
            ma_measure(cos_fn(flat64.torus, 2.0), flat64)

    def test_density_clamped_nonnegative(self, flat64):
        f = cos_fn(flat64.torus, 0.05)
        assert ma_measure(f, flat64).density.values.min() >= 0.0


class TestSublevelSets:
    def test_mask_monotone_in_s(self, flat64):
        phi = cos_fn(flat64.torus, 0.05).sup_normalized()
        psi = GridFunction.constant(flat64.torus, 0.0)
        prev = None
        for s in [0.01, 0.02, 0.05, 0.1]:
            E = sublevel(phi, psi, 0.3, s)
            assert E.dtype == bool and E.shape == phi.values.shape
            if prev is not None:
                assert np.all(prev <= E)
            prev = E

    def test_small_s_near_argmin(self, flat64):
        phi = cos_fn(flat64.torus, 0.05).sup_normalized()
        psi = GridFunction.constant(flat64.torus, 0.0)
        E = sublevel(phi, psi, 0.3, 1e-6)
        assert 0 < E.sum() < phi.values.size
        assert phi.values[E].max() < phi.values.mean()

    def test_parameter_validation(self, flat64):
        phi = cos_fn(flat64.torus, 0.05)
        zero = GridFunction.constant(flat64.torus, 0.0)
        with pytest.raises(PreconditionError):
            sublevel(phi, zero, 0.0, 0.1)
        with pytest.raises(PreconditionError):
            sublevel(phi, zero, 0.3, -1.0)


class TestMeasureField:
    def test_from_density_rejects_negative(self, flat64):
        dens = GridFunction.constant(flat64.torus, -1.0)
        with pytest.raises(PreconditionError):
            MeasureField.from_density(dens, flat64)

    def test_scaled_mass(self, flat64):
        mu = MeasureField.from_density(
            GridFunction.constant(flat64.torus, 1.0), flat64)
        assert mu.scaled(0.25, flat64).mass == pytest.approx(0.25)

    def test_mass_on_splits_total(self, flat64):
        mu = MeasureField.from_density(
            GridFunction.constant(flat64.torus, 1.0), flat64)
        mask = flat64.torus.axis_coord(0) * np.ones(flat64.torus.shape) < 0.5
        assert mu.mass_on(mask, flat64) + mu.mass_on(~mask, flat64) \
            == pytest.approx(mu.mass)
