"""Damped Newton solver and mollified continuation."""

import hashlib

import numpy as np
import pytest

import torusma.solver as solver
from torusma.errors import DominationError, PreconditionError
from torusma.geometry import (
    Torus, GridFunction, conformal_metric, flat_metric, integrate,
    from_spectrum, inverse_quarter_laplacian, omega_form, to_spectrum,
)
from torusma.pluripotential import MeasureField, ma_measure
from torusma.solver import (
    ContinuationSchedule, solve_ma, decompose_subsolution, continuation_solve,
)
from torusma.fixtures import (
    holder_subsolution, lp_density_fixture, manufactured_cos,
)


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

    def test_each_form_built_once(self, monkeypatch):
        # the Newton step linearizes at the form the line search verified
        # instead of transforming the accepted iterate again
        import torusma.geometry

        seen = []  # one digest per spectrum a form is built from
        hessian = torusma.geometry.hessian_of_spectrum

        def hashing_hessian(torus, F):
            seen.append(hashlib.sha256(F.tobytes()).hexdigest())
            return hessian(torus, F)

        _, mu, m = manufactured_cos(2, 16)
        monkeypatch.setattr(torusma.geometry, "hessian_of_spectrum", hashing_hessian)
        rep = solve_ma(mu, m, tol=1e-12)
        # five full Newton steps take one line-search trial form each; the
        # solve builds no form of the phi it returns
        assert rep.converged and rep.iterations == 5
        assert len(seen) == 5
        assert len(set(seen)) == len(seen)

    def test_flat_n2_peak_under_14_fields(self):
        # tracemalloc peak above entry, in lattice fields: the Newton step's
        # adjugate weights are built on the form's own four parts (13.6
        # fields; 15.6 when two weights were new fields beside them)
        import tracemalloc
        _, mu, m = manufactured_cos(2, 16)
        solve_ma(mu, m, tol=1e-10)  # symbol tables and FFT plans cached
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            rep = solve_ma(mu, m, tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged and rep.iterations == 5
        assert (peak - entry) / (8 * m.torus.npoints) <= 14.0

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

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
    def test_singular_density_converges(self, n, N):
        # rough data: at flat n=2 the Newton step's CG runs on a linearization
        # that is symmetric only on band-limited iterates
        m = flat_metric(Torus(n, N))
        mu = lp_density_fixture(2.0, 0.5, m)
        rep = solve_ma(mu, m, tol=1e-10)
        assert rep.converged
        assert rep.krylov_unconverged == 0
        model = ma_measure(rep.phi, m).scaled(1.0 / rep.c, m)
        assert np.abs(model.density.values - mu.density.values).max() < 1e-8


class TestDecomposeSubsolution:
    def test_standard_fixture_decomposes(self):
        sched, m = holder_subsolution(N=64)
        assert sched.C0 >= 1.0
        assert np.all(sched.h.values >= -1e-12)
        # recompose: mu = C0 h omega_u^n must be dominated by C0 omega_u^n
        dens_u = ma_measure(sched.u, m).density.values
        assert np.all(sched.C0 * dens_u * sched.h.values
                      <= sched.C0 * dens_u + 1e-12)

    def test_one_form_for_check_and_measure(self, complex_hessians):
        phi, mu, m = manufactured_cos(1, 64)
        complex_hessians.clear()
        decompose_subsolution(mu, phi, m)
        assert len(complex_hessians) == 1

    def test_undominated_measure_rejected(self):
        # mass where omega_u^n vanishes cannot be decomposed
        m = flat_metric(Torus(1, 64))
        x = m.torus.axis_coord(0)
        u = GridFunction.constant(m.torus, 0.0)
        # u = 0 has unit density; build a u with a degenerate point instead
        from torusma.regularize import psh_repair
        raw = GridFunction(m.torus, 0.1 * np.abs(np.sin(np.pi * x))
                           * np.ones(m.torus.shape))
        u = psh_repair(raw, m, rounds=8)[0]
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
            u_j = psh_repair(mollify(sched.u, d), m)[0]
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

    def test_final_stage_solved_from_zero(self):
        # the last stage is a fresh solve of its own datum mu_j
        from torusma.regularize import mollify, psh_repair
        sched, m = holder_subsolution(N=64)
        rep = continuation_solve(sched, m, tol=1e-9, max_iter=50)
        u_j = psh_repair(mollify(sched.u, sched.delta_list[-1]), m)[0]
        dens = sched.C0 * sched.h.values * ma_measure(u_j, m).density.values
        mu_j = MeasureField.from_density(GridFunction(m.torus, dens), m)
        fresh = solve_ma(mu_j, m, tol=1e-9, max_iter=50)
        assert np.array_equal(rep.phi.values, fresh.phi.values)
        assert rep.residual_history == fresh.residual_history

    def test_stage_measures_from_the_verified_forms(self, monkeypatch,
                                                    forward_transforms):
        # every stage of holder_subsolution(64) is returned unchanged by the
        # repair, so its measure is that of the form the repair verified:
        # byte-equal to the measure of u_j, one forward transform fewer
        from torusma.regularize import Mollifications, build_kernel, psh_repair
        sched, m = holder_subsolution(N=64)
        for delta in sched.delta_list:
            build_kernel(m.torus, delta)  # cached before anything is counted
        forward_transforms.clear()
        family = Mollifications(sched.u)
        want = []
        for delta in sched.delta_list:
            u_j = psh_repair(family(delta), m)[0]
            dens = sched.C0 * sched.h.values * ma_measure(u_j, m).density.values
            want.append(MeasureField.from_density(GridFunction(m.torus, dens), m))
        before = len(forward_transforms)
        solve = solver.solve_ma
        measures, in_solves = [], []

        def recording(mu, metric, **kwargs):
            measures.append(mu)
            start = len(forward_transforms)
            rep = solve(mu, metric, **kwargs)
            in_solves.append(len(forward_transforms) - start)
            return rep

        monkeypatch.setattr(solver, "solve_ma", recording)
        forward_transforms.clear()
        continuation_solve(sched, m, tol=1e-9)
        staged = len(forward_transforms) - sum(in_solves)
        assert len(sched.delta_list) == len(measures) == 3
        assert staged == before - 3 == 4
        for got, mu in zip(measures, want):
            assert got.density.values.tobytes() == mu.density.values.tobytes()
            assert got.mass == mu.mass

    def test_under_resolved_schedule_rejected(self):
        sched, m = holder_subsolution(N=64)
        bad = ContinuationSchedule(u=sched.u, C0=sched.C0, h=sched.h,
                                   delta_list=(2.0 ** -8,))
        with pytest.raises(PreconditionError):
            continuation_solve(bad, m)


def conformal_case(n, N):
    """manufactured_cos's density as the datum on the conformal metric
    (amplitude 0.2): (mu, metric)."""
    m = conformal_metric(Torus(n, N), 0.2)
    _, mu, _ = manufactured_cos(n, N)
    return MeasureField.from_density(mu.density, m), m


def pinned_case(amplitude, N):
    """A conformal n=2 case pinned for the Hermitian Newton step: the datum
    lp_density_fixture(2, 0.5) at N=16, manufactured_cos(2, N, 0.09)'s
    density otherwise. (mu, metric)."""
    m = conformal_metric(Torus(2, N), amplitude)
    if N == 16:
        return lp_density_fixture(2.0, 0.5, m), m
    _, cos_mu, _ = manufactured_cos(2, N, 0.09)
    return MeasureField.from_density(cos_mu.density, m), m


def lgmres_reference(apply_L, B, torus, rtol):
    """The Newton step's former scipy lgmres on lattice vectors, preconditioned
    by the inverse flat quarter-Laplacian, negated, for the right-hand side
    whose half spectrum is B: (Psi, info, cycles), Psi the half spectrum of
    the mean-zero solution."""
    from scipy.sparse.linalg import LinearOperator, lgmres

    shape, size = torus.shape, torus.npoints

    def apply_A(vec):
        out = apply_L(to_spectrum(vec.reshape(shape)))
        return np.negative(out, out=out).ravel()

    def apply_prec(vec):
        out = inverse_quarter_laplacian(torus, vec.reshape(shape)).ravel()
        return np.negative(out, out=out)

    A = LinearOperator((size, size), matvec=apply_A, dtype=float)
    Mprec = LinearOperator((size, size), matvec=apply_prec, dtype=float)
    starts = []  # lgmres calls back at the start of every cycle and at the end
    psi, info = lgmres(A, from_spectrum(torus, B).ravel(), M=Mprec, rtol=rtol, atol=0.0,
                       maxiter=solver._KRYLOV_MAXITER,
                       callback=lambda x: starts.append(1))
    Psi = to_spectrum(psi.reshape(shape))
    Psi[(0,) * torus.ndim_real] = 0.0
    return Psi, info, len(starts) - (info == 0)


def metric_case(kind, n, N):
    """manufactured_cos's phi* and a metric of the given kind."""
    phi, _, flat = manufactured_cos(n, N)
    return phi, flat if kind == "flat" else conformal_metric(flat.torus, 0.2)


def flag_inner_solves(monkeypatch, used, unused):
    """Make the Krylov function `used` report info=1 after solving, and
    `unused` fail if the step calls it."""
    krylov = getattr(solver, used)

    def flagged(*args, **kwargs):
        x, _ = krylov(*args, **kwargs)
        return x, 1

    def forbidden(*args, **kwargs):
        raise AssertionError(f"the Newton step called {unused}")

    monkeypatch.setattr(solver, used, flagged)
    monkeypatch.setattr(solver, unused, forbidden)


class TestInnerSolveFlag:
    def test_unconverged_inner_solves_counted(self, monkeypatch):
        # the flat metric is Kaehler, so the n=2 step runs CG
        flag_inner_solves(monkeypatch, "_pcg", "_gmres")
        _, mu, m = manufactured_cos(2, 16)
        rep = solve_ma(mu, m, tol=1e-12)
        # the flag is reported; Newton acceptance is unchanged
        assert rep.converged and rep.iterations >= 1
        assert rep.krylov_unconverged == rep.iterations

    def test_unconverged_gmres_solves_counted(self, monkeypatch):
        # conformal n=2 is not Kaehler, so the step runs GMRES
        flag_inner_solves(monkeypatch, "_gmres", "_pcg")
        mu, m = conformal_case(2, 8)
        rep = solve_ma(mu, m, tol=1e-12)
        assert rep.converged and rep.iterations >= 1
        assert rep.krylov_unconverged == rep.iterations

    def test_converged_inner_solves_not_counted(self):
        _, mu, m = manufactured_cos(1, 64)
        rep = solve_ma(mu, m, tol=1e-12)
        assert rep.iterations >= 1
        assert rep.krylov_unconverged == 0


def asymmetry(kind, n, N):
    """|<Lx, y> - <x, Ly>| / (|Lx| |y|) for the linearization at phi* and
    seeded random x, y."""
    phi, m = metric_case(kind, n, N)
    linearization = solver._linearization(omega_form(phi, m), m, 1.0)

    def apply_L(vec):
        return linearization(to_spectrum(vec.reshape(m.torus.shape))).ravel()

    x, y = np.random.default_rng(0).standard_normal((2, m.torus.npoints))
    Lx = apply_L(x)
    return abs(Lx @ y - x @ apply_L(y)) / (np.linalg.norm(Lx) * np.linalg.norm(y))


class TestInnerSolve:
    @pytest.mark.parametrize("kind,n,N", [
        ("flat", 1, 32), ("flat", 2, 8), ("conformal", 1, 32),
    ])
    def test_kaehler_linearization_is_symmetric(self, kind, n, N):
        # det g * L is tr(adj(M) H(psi)) with a divergence-free cofactor field
        assert metric_case(kind, n, N)[1].is_kahler
        assert asymmetry(kind, n, N) <= 1e-12

    def test_conformal_n2_linearization_is_not_symmetric(self):
        # the torsion of the conformal n=2 metric breaks the symmetry, so its
        # step runs GMRES
        assert not metric_case("conformal", 2, 8)[1].is_kahler
        assert asymmetry("conformal", 2, 8) > 1e-6

    def test_constant_metric_is_kaehler_at_n2(self, monkeypatch):
        # a scalar factor is a constant metric, so the step runs CG; a solve
        # keeps no per-iteration c_trace
        from torusma.fixtures import cos_datum
        from torusma.geometry import HermitianMetric

        def no_gmres(*args, **kwargs):
            raise AssertionError("a Kaehler metric's step runs CG")

        m = HermitianMetric(Torus(2, 16), 2.0)
        assert m.is_kahler
        monkeypatch.setattr(solver, "_gmres", no_gmres)
        phi_star, mu = cos_datum(m, 0.05)
        rep = solve_ma(mu, m, tol=1e-10)
        assert rep.converged and rep.iterations == 5
        assert rep.krylov_unconverged == 0
        assert np.abs(rep.phi.values - phi_star.values).max() < 1e-10
        assert rep.c_trace == []

    def test_matvecs_on_reference_solve(self, monkeypatch):
        # solve-n2's reference input, on the flat metric: the step runs PCG
        matvecs = []
        linearization = solver._linearization

        def counted(M, metric, w):
            apply_L = linearization(M, metric, w)

            def apply(vec):
                matvecs.append(1)
                return apply_L(vec)

            return apply

        monkeypatch.setattr(solver, "_linearization", counted)
        _, mu, m = manufactured_cos(2, 16, 0.05)
        rep = solve_ma(mu, m, tol=1e-10)
        assert rep.converged and rep.krylov_unconverged == 0
        assert len(matvecs) <= 30

    def test_forcing_terms_in_bounds(self, monkeypatch):
        rtols = []
        cg = solver._pcg

        def recording(*args, **kwargs):
            rtols.append(kwargs["rtol"])
            return cg(*args, **kwargs)

        monkeypatch.setattr(solver, "_pcg", recording)
        _, mu, m = manufactured_cos(2, 16, 0.07)
        rep = solve_ma(mu, m, tol=1e-10)
        assert rep.converged and len(rtols) == rep.iterations >= 2
        assert rtols[0] == 0.5
        assert all(1e-6 <= r <= 0.5 for r in rtols)

    def test_pcg_holds_three_half_spectra_across_a_matvec(self, monkeypatch):
        # tracemalloc at the entry of every apply_L: the residual (the
        # caller's right-hand side, overwritten), the direction and, from
        # the second matvec on, the iterate; no preconditioned residual or
        # image of the direction survives into a matvec. CG ends after one
        # matvec on the first Newton system, at phi = 0, where the
        # linearization is the quarter-Laplacian the preconditioner
        # inverts; the second of the flat n=2 N=16 solve takes several
        import tracemalloc
        systems = []
        pcg = solver._pcg

        def recording(apply_L, B, torus, rtol):
            systems.append((apply_L, B.copy(), rtol))
            return pcg(apply_L, B, torus, rtol=rtol)

        monkeypatch.setattr(solver, "_pcg", recording)
        _, mu, m = manufactured_cos(2, 16, 0.07)
        solve_ma(mu, m, tol=1e-10)
        linearization, B, rtol = systems[1]
        held = []

        def apply_L(P):
            held.append(tracemalloc.get_traced_memory()[0] - entry)
            return linearization(P)

        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0] - B.nbytes
            _, info = pcg(apply_L, B, m.torus, rtol=1e-6)
        finally:
            tracemalloc.stop()
        assert info == 0 and len(held) >= 3
        spectra = [h / B.nbytes for h in held]
        assert spectra[0] <= 2.05
        assert max(spectra) <= 3.05

    def test_forcing_rule(self):
        # Eisenstat-Walker choice 2 with its safeguard, clipped to [1e-6, 0.5]
        assert solver._forcing(0.3, 1.0, 10.0) == pytest.approx(0.9 * 0.01)
        # 0.9 * 0.5^2 > 0.1, so the previous term bounds the next from below
        assert solver._forcing(0.5, 1.0, 10.0) == pytest.approx(0.9 * 0.25)
        assert solver._forcing(0.5, 1.0, 1.0) == 0.5
        assert solver._forcing(0.01, 1e-9, 1.0) == 1e-6

    def test_conformal_n2_converges_quadratically(self):
        # the oblique projection of the linearization carries dc/dphi, so the
        # Newton step solves with the exact Jacobian
        phi_star, _, flat = manufactured_cos(2, 16)
        m = conformal_metric(flat.torus, 0.2)
        rep = solve_ma(ma_measure(phi_star, m), m, tol=1e-10)
        assert rep.converged
        assert rep.iterations <= 5

    @pytest.mark.parametrize("amplitude, N", [(0.3, 16), (0.45, 8), (-0.45, 8)])
    def test_hermitian_steps_converge(self, amplitude, N):
        # conformal n=2 cases on which _gmres, like scipy's lgmres before
        # it, takes 8, 8 and 9 Newton steps. CG alone stalls on the first
        # with residual 0.58, and leaves inner solves unconverged on the
        # others. Right-preconditioned GMRES(20) and BiCGSTAB that stop on
        # the lattice residual raise DivergenceError at +-0.45; _gmres
        # preconditions on the left and tightens each cycle's tolerance on
        # the preconditioned residual, as lgmres does
        mu, m = pinned_case(amplitude, N)
        assert not m.is_kahler
        rep = solve_ma(mu, m, tol=1e-10)
        assert rep.converged and rep.krylov_unconverged == 0
        steps = {(0.3, 16): 8, (0.45, 8): 8, (-0.45, 8): 9}
        assert rep.iterations == steps[amplitude, N]

    @pytest.mark.parametrize("amplitude, N, step, cycles", [
        (0.3, 16, 1, 1), (0.45, 8, 1, 1), (-0.45, 8, 6, 3)])
    def test_gmres_matches_scipy_lgmres(self, monkeypatch, amplitude, N, step,
                                        cycles):
        # the same iteration as lgmres, one matvec fewer (none at x = 0);
        # over every Newton system of the three pinned cases Psi agreed to
        # 1.4e-14 of its sup
        systems = []
        gmres = solver._gmres

        def recording(apply_L, B, torus, rtol):
            systems.append((apply_L, B, rtol))
            return gmres(apply_L, B, torus, rtol=rtol)

        monkeypatch.setattr(solver, "_gmres", recording)
        mu, m = pinned_case(amplitude, N)
        solve_ma(mu, m, tol=1e-10)
        linearization, B, rtol = systems[step - 1]
        matvecs = []

        def apply_L(P):
            matvecs.append(1)
            return linearization(P)

        Psi, info = gmres(apply_L, B, m.torus, rtol=rtol)
        gmres_matvecs = len(matvecs)
        ref, ref_info, ref_cycles = lgmres_reference(apply_L, B, m.torus, rtol)
        lgmres_matvecs = len(matvecs) - gmres_matvecs
        assert ref_cycles == cycles
        assert info == ref_info == 0
        assert gmres_matvecs == lgmres_matvecs - 1
        assert np.abs(Psi - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_non_finite_step_ends_solve(self, monkeypatch):
        # a NaN at one lattice point of every matvec: the GMRES step reports
        # its failure and returns no step, and the line search stalls
        linearization = solver._linearization

        def poisoned(M, metric, w):
            apply_L = linearization(M, metric, w)

            def apply(P):
                out = apply_L(P)
                out[(0,) * out.ndim] = np.nan
                return out

            return apply

        monkeypatch.setattr(solver, "_linearization", poisoned)
        mu, m = conformal_case(2, 8)
        rep = solve_ma(mu, m, tol=1e-12)
        assert not rep.converged
        assert rep.krylov_unconverged == 1

    @pytest.mark.parametrize("kind", ["flat", "conformal"])
    def test_n1_step_runs_no_krylov_solve(self, monkeypatch, kind):
        # at n=1 det g * L is exactly Lap/4, so the step is
        # Psi = -B (Lap/4)^-1: no linearization is built and neither Krylov
        # method is called
        def forbidden(*args, **kwargs):
            raise AssertionError("an n=1 Newton step built a Krylov solve")

        for name in ("_pcg", "_gmres", "_linearization"):
            monkeypatch.setattr(solver, name, forbidden)
        if kind == "flat":
            _, mu, m = manufactured_cos(1, 64)
        else:
            mu, m = conformal_case(1, 64)
        rep = solve_ma(mu, m, tol=1e-10)
        assert rep.converged and rep.iterations == 1
        assert rep.residual_history[-1] <= 1e-10
        assert rep.krylov_unconverged == 0
