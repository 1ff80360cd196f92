"""Damped Newton solver and mollified continuation."""

import numpy as np
import pytest

from torusma.errors import DominationError, PreconditionError
from torusma.geometry import Torus, GridFunction, flat_metric, integrate
from torusma.pluripotential import MeasureField, ma_measure
from torusma.solver import (
    ContinuationSchedule, solve_ma, decompose_subsolution, continuation_solve,
)
from torusma.fixtures import manufactured_cos, holder_subsolution


class TestSolveMA:
    def test_manufactured_recovery_1d(self):
        phi_star, mu, m = manufactured_cos(1, 64)
        rep = solve_ma(mu, m, tol=1e-12)
        assert rep.converged
        assert np.abs(rep.phi.values - phi_star.values).max() < 1e-10
        assert rep.c == pytest.approx(1.0, abs=1e-12)

    def test_manufactured_recovery_2d(self):
        phi_star, mu, m = manufactured_cos(2, 16)
        rep = solve_ma(mu, m, tol=1e-12)
        assert rep.converged
        assert np.abs(rep.phi.values - phi_star.values).max() < 1e-8

    def test_uniform_datum_gives_constant(self):
        m = flat_metric(Torus(1, 64))
        mu = MeasureField.from_density(
            GridFunction.constant(m.torus, 1.0), m)
        rep = solve_ma(mu, m)
        assert np.abs(rep.phi.values).max() < 1e-12
        assert rep.c == pytest.approx(1.0)

    def test_c_equals_mass_ratio(self):
        # scaling mu by k rescales c by 1/k: c = total MA mass / mu mass
        phi_star, mu, m = manufactured_cos(1, 64)
        rep = solve_ma(mu.scaled(2.0, m), m)
        assert rep.c == pytest.approx(0.5, abs=1e-12)
        assert np.abs(rep.phi.values - phi_star.values).max() < 1e-9

    def test_solution_sup_normalized(self):
        phi_star, mu, m = manufactured_cos(1, 64)
        rep = solve_ma(mu, m)
        assert rep.phi.values.max() == pytest.approx(0.0, abs=1e-14)

    def test_residual_history_monotone_tail(self):
        phi_star, mu, m = manufactured_cos(2, 16)
        rep = solve_ma(mu, m, tol=1e-12)
        assert rep.residual_history[-1] < rep.residual_history[0]

    def test_singular_density_converges(self):
        from torusma.fixtures import singular_density
        mu, m = singular_density(1, 64, s=0.5, p=2.0)
        rep = solve_ma(mu, m, tol=1e-10)
        assert rep.converged
        model = ma_measure(rep.phi, m).scaled(1.0 / rep.c, m)
        assert np.abs(model.density.values - mu.density.values).max() < 1e-8


class TestDecomposeSubsolution:
    def test_standard_fixture_decomposes(self):
        sched, m = holder_subsolution(N=64, delta_range=(3, 6))
        assert sched.C0 >= 1.0
        assert np.all(sched.h.values >= -1e-12)
        # recompose: mu = C0 h omega_u^n must be dominated by C0 omega_u^n
        dens_u = ma_measure(sched.u, m).density.values
        assert np.all(sched.C0 * dens_u * sched.h.values
                      <= sched.C0 * dens_u + 1e-12)

    def test_undominated_measure_rejected(self):
        # mass where omega_u^n vanishes cannot be decomposed
        m = flat_metric(Torus(1, 64))
        x = m.torus.axis_coord(0)
        u = GridFunction.constant(m.torus, 0.0)
        # u = 0 has unit density; build a u with a degenerate point instead
        from torusma.regularize import psh_repair
        raw = GridFunction(m.torus, 0.1 * np.abs(np.sin(np.pi * x))
                           * np.ones(m.torus.shape))
        u = psh_repair(raw, m, rounds=8)
        dens = ma_measure(u, m).density.values
        if dens.min() > 1e-10:
            pytest.skip("fixture density did not degenerate on this lattice")
        mask = dens <= 1e-10
        mu = MeasureField.from_density(
            GridFunction(m.torus, mask.astype(float)), m)
        with pytest.raises(DominationError):
            decompose_subsolution(mu, u, m)


@pytest.fixture(scope="module")
def report():
    sched, m = holder_subsolution(N=256)
    return continuation_solve(sched, m, tol=1e-10), sched, m


class TestContinuation:
    def test_all_stages_converge(self, report):
        rep, sched, m = report
        assert rep.converged
        assert len(rep.c_trace) == len(sched.delta_list)

    def test_c_trace_is_mass_ratio(self, report):
        # each stage normalizes by total-mass conservation: c_j = vol / mass_j
        from torusma.regularize import mollify, psh_repair
        rep, sched, m = report
        for c_j, d in zip(rep.c_trace, sched.delta_list):
            u_j = psh_repair(mollify(sched.u, d), m)
            dens = ma_measure(u_j, m).density.values * sched.h.values * sched.C0
            mass_j = integrate(dens, m)
            assert c_j == pytest.approx(m.torus.volume / mass_j, abs=1e-9)

    def test_c_trace_spread_bounded(self, report):
        rep, _, _ = report
        assert max(rep.c_trace) / min(rep.c_trace) < 10.0

    def test_cauchy_differences_decrease(self, report):
        rep, _, _ = report
        diffs = rep.cauchy_diffs
        assert len(diffs) >= 2
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_under_resolved_schedule_rejected(self):
        sched, m = holder_subsolution(N=64, delta_range=(3, 6))
        bad = ContinuationSchedule(u=sched.u, C0=sched.C0, h=sched.h,
                                   delta_list=(2.0 ** -8,))
        with pytest.raises(PreconditionError):
            continuation_solve(bad, m)


class TestInnerSolveFlag:
    def test_unconverged_inner_solves_counted(self, monkeypatch):
        import torusma.solver as solver
        lgmres = solver.lgmres

        def flagged(*args, **kwargs):
            x, _ = lgmres(*args, **kwargs)
            return x, 1

        monkeypatch.setattr(solver, "lgmres", flagged)
        _, mu, m = manufactured_cos(1, 64)
        rep = solve_ma(mu, m, tol=1e-12)
        # the flag is reported; Newton acceptance is unchanged
        assert rep.converged and rep.iterations >= 1
        assert rep.krylov_unconverged == rep.iterations

    def test_converged_inner_solves_not_counted(self):
        _, mu, m = manufactured_cos(1, 64)
        rep = solve_ma(mu, m, tol=1e-12)
        assert rep.iterations >= 1
        assert rep.krylov_unconverged == 0
