"""Stability estimate, Hoelder-modulus certificate, mixture experiments."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from torusma.errors import DominationError, PreconditionError
from torusma.geometry import Torus, GridFunction, flat_metric, conformal_metric
from torusma.pluripotential import ma_measure
from torusma.regularize import Mollifications
from torusma.solver import decompose_subsolution, solve_ma
from torusma.certify import (
    stability_gamma, stability_check, check_solution, hoelder_certificate,
    mixture_measure, mixture_experiment, check_level_formula,
)
from torusma.fixtures import (
    cos_datum, lp_density_fixture, manufactured_cos, stability_pair, mixture_pair,
)


class TestStabilityGamma:
    def test_exact_closed_form(self):
        # gamma = 1 / (1 + (n+2)(n + 1/tau))
        assert Fraction(stability_gamma(2, 1.0)).limit_denominator(100) \
            == Fraction(1, 13)
        assert Fraction(stability_gamma(1, 1.0)).limit_denominator(100) \
            == Fraction(1, 7)
        assert stability_gamma(1, 0.5) == pytest.approx(1 / 10)

    def test_monotone_in_tau(self):
        taus = [0.25, 0.5, 1.0, 2.0]
        gammas = [stability_gamma(1, t) for t in taus]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))

    def test_invalid_tau(self):
        with pytest.raises(PreconditionError):
            stability_gamma(1, 0.0)


class TestCheckSubsolution:
    # C0 is the least constant with mu <= C0 (omega + dd^c u)^n
    def test_accepts_true_subsolution(self):
        phi, mu, m = manufactured_cos(1, 64)
        C0, _ = decompose_subsolution(mu, phi, m)
        assert C0 == pytest.approx(1.0, rel=1e-12)

    def test_rejects_undersized_constant(self):
        phi, mu, m = manufactured_cos(1, 64)
        C0, _ = decompose_subsolution(mu.scaled(3.0, m), phi, m)
        assert C0 == pytest.approx(3.0, rel=1e-12)


class TestStabilityCheck:
    @pytest.fixture(scope="module")
    def chk64(self):
        psi, phi, mu, m = stability_pair(1, 64, 1e-2)
        return stability_check(psi, phi, mu, 1.0, m, budget=6)

    def test_passes_with_frozen_constant(self, chk64):
        assert chk64.passed
        assert chk64.lhs == pytest.approx(0.02, abs=1e-12)
        # regression oracle from a direct run of this pipeline
        assert chk64.C == pytest.approx(0.03741640048745981, abs=1e-10)

    def test_rhs_covers_lhs(self, chk64):
        assert chk64.lhs <= chk64.rhs + 1e-12

    def test_ledger_rows_nonnegative_slack(self, chk64):
        assert len(chk64.ledger) > 0
        assert min(r.slack for r in chk64.ledger) >= -1e-12

    def test_fitted_constants_finite(self, chk64):
        assert np.isfinite(chk64.growth_C) and chk64.growth_C > 0.0

    @pytest.mark.parametrize("n, N, distinct", [(1, 64, 11), (2, 16, 8)])
    def test_each_distinct_set_estimated_once(self, n, N, distinct, monkeypatch):
        import torusma.certify
        masks = []
        estimate = torusma.certify.estimate_capacity

        def counted(mask, *args, **kwargs):
            masks.append(mask.tobytes())
            return estimate(mask, *args, **kwargs)

        monkeypatch.setattr(torusma.certify, "estimate_capacity", counted)
        psi, phi, mu, m = stability_pair(n, N, 1e-2)
        chk = stability_check(psi, phi, mu, 1.0, m, budget=1)
        assert len(chk.ledger) == 75
        assert len(masks) == len(set(masks)) == distinct

    def test_phi_form_built_once(self, complex_hessians, monkeypatch):
        # psi's cone check takes one Hessian; phi's cone check and its
        # measure read one more. The ledger's capacity estimates are stubbed
        import torusma.certify
        monkeypatch.setattr(torusma.certify, "estimate_capacity",
                            lambda *args, **kwargs: SimpleNamespace(lower=1.0))
        psi, phi, mu, m = stability_pair(2, 16, 1e-2)
        complex_hessians.clear()
        stability_check(psi, phi, mu, 1.0, m, budget=1)
        assert len(complex_hessians) == 2

    def test_constant_scales_with_amplitude_law(self):
        # C(a) tracks a^(1-gamma): the sup side is linear in a while the
        # L1 side enters through the gamma power
        psi1, phi1, mu1, m1 = stability_pair(1, 64, 1e-2)
        psi2, phi2, mu2, m2 = stability_pair(1, 64, 1e-3)
        C1 = stability_check(psi1, phi1, mu1, 1.0, m1, budget=4).C
        C2 = stability_check(psi2, phi2, mu2, 1.0, m2, budget=4).C
        gamma = stability_gamma(1, 1.0)
        assert C1 / C2 == pytest.approx(10.0 ** (1 - gamma), rel=0.05)

    def test_positive_psi_rejected(self):
        psi, phi, mu, m = stability_pair(1, 64, 1e-2)
        bad = GridFunction(psi.torus, psi.values + 0.5)
        with pytest.raises(PreconditionError):
            stability_check(bad, phi, mu, 1.0, m, budget=4)

    def test_mismatched_measure_rejected(self):
        psi, phi, mu, m = stability_pair(1, 64, 1e-2)
        with pytest.raises(PreconditionError):
            stability_check(psi, phi, mu.scaled(1.01, m), 1.0, m, budget=4)


class TestHoelderCertificate:
    @pytest.fixture(scope="module")
    def cert_l2(self):
        m = flat_metric(Torus(1, 64))
        mu = lp_density_fixture(2.0, 0.5, m)
        rep = solve_ma(mu, m, tol=1e-10)
        family = Mollifications(rep.phi)
        check_solution(family, mu, m)
        cert = hoelder_certificate(family, mu, 1.0, m, (1 / 8, 1 / 16, 1 / 32))
        return cert, rep, mu, m

    def test_certificate_passes(self, cert_l2):
        cert, _, _, _ = cert_l2
        assert cert.passed and not cert.trivial

    def test_exponents_consistent(self, cert_l2):
        cert, _, _, _ = cert_l2
        assert cert.alpha == pytest.approx(min(cert.gamma, cert.alpha1))
        assert cert.measured_exponent >= cert.alpha * cert.alpha1 - 0.05

    def test_rows_sandwich_and_curvature(self, cert_l2):
        cert, _, _, _ = cert_l2
        assert len(cert.rows) == 3
        assert all(r.sandwich_ok and r.diff2_ok for r in cert.rows)
        assert all(r.gap >= 0.0 for r in cert.rows)

    def test_kappa_hat_stable(self, cert_l2):
        cert, _, _, _ = cert_l2
        kh = [r.kappa_hat for r in cert.rows]
        assert max(kh) / min(kh) < 2.0

    def test_flat_metric_kappa_is_one(self, cert_l2):
        cert, _, _, _ = cert_l2
        assert cert.kappa == 1.0  # A = 0 on the flat torus

    def test_trivial_pass_for_constant(self):
        m = flat_metric(Torus(1, 64))
        phi = GridFunction.constant(m.torus, 0.0)
        mu = ma_measure(phi, m)
        family = Mollifications(phi)
        check_solution(family, mu, m)
        cert = hoelder_certificate(family, mu, 1.0, m, (1 / 8, 1 / 16))
        assert cert.passed and cert.trivial

    def test_mismatched_measure_rejected(self, cert_l2):
        _, rep, mu, m = cert_l2
        other = lp_density_fixture(2.0, 0.3, m)
        with pytest.raises(PreconditionError, match="does not solve"):
            check_solution(Mollifications(rep.phi), other, m)

    def test_chain_rejects_mismatched_measure(self, cert_l2, inverse_transforms,
                                              monkeypatch):
        # the chain checks its own solution first: no earlier check_solution
        # call, one inverse transform (the check's n=1 Hessian) and no kernel
        import torusma.regularize
        _, rep, _, m = cert_l2
        other = lp_density_fixture(2.0, 0.3, m)
        family = Mollifications(rep.phi)
        kernels = []
        monkeypatch.setattr(torusma.regularize, "build_kernel",
                            lambda *args: kernels.append(args))
        inverse_transforms.clear()
        with pytest.raises(PreconditionError, match="does not solve"):
            hoelder_certificate(family, other, 1.0, m, (1 / 8, 1 / 16))
        assert len(inverse_transforms) == 1
        assert kernels == []

    def test_unnormalized_phi_rejected(self, cert_l2):
        # the family of phi - 0.1 has the same measure, but sup 0 is required
        _, rep, mu, m = cert_l2
        lowered = GridFunction(m.torus, rep.phi.values - 0.1)
        with pytest.raises(PreconditionError, match="sup-normalized"):
            hoelder_certificate(Mollifications(lowered), mu, 1.0, m,
                                (1 / 8, 1 / 16))

    def test_check_transforms_nothing_forward(self, forward_transforms):
        # the model measure is built from the family's half spectrum of phi
        phi, mu, m = manufactured_cos(1, 64)
        family = Mollifications(phi)
        forward_transforms.clear()
        check_solution(family, mu, m)
        assert forward_transforms == []

    def test_one_inverse_transform_per_radius(self, inverse_transforms):
        # N=128, deltas 1/8, 1/16, 1/32: the rate ladder adds 1/4, and the
        # nominal Kiselman-Legendre t-grids reach 2/N = 1/64. The pass skips
        # t = delta/2 and below: osc phi = 0.1, K_eff = sigma_1 = 0.4037, and
        # the levels b = delta^(1/7) are 0.743, 0.673, 0.610, so
        # k b ln 2 >= 0.42 at k = 1 exceeds osc phi + K_eff delta (1 + delta)
        # <= 0.157 on every row. That leaves 4 distinct radii, and the model
        # measure's n=1 Hessian in the chain's check_solution makes one more
        # inverse transform
        phi, mu, m = manufactured_cos(1, 128)
        inverse_transforms.clear()
        family = Mollifications(phi)
        cert = hoelder_certificate(family, mu, 1.0, m, (1 / 8, 1 / 16, 1 / 32))
        assert cert.passed and not cert.trivial
        assert len(inverse_transforms) == 4 + 1


def cusp_potential(t):
    """A sup-normalized potential with a square-root cusp, so that small
    levels move the Kiselman-Legendre minimizer below delta."""
    return GridFunction(t, 0.05 * np.abs(np.sin(np.pi * t.axis_coord(0))) ** 0.5
                        + 0.01 * np.cos(2 * np.pi * t.axis_coord(1)) - 0.1)


@pytest.mark.parametrize("b", [1e-5, 0.05])
def test_modulus_radius_is_kl_minimizer(b):
    # small levels move the KL minimizer below delta (kappa_hat < 1); the
    # modulus is rho_r phi - phi at r = max(kappa_hat delta, 2/N) = t0_min
    from torusma.certify import _certificate_row
    from torusma.regularize import kiselman_legendre, mollify
    t = Torus(1, 64)
    phi = cusp_potential(t)
    family = Mollifications(phi)
    levels = [(d, b) for d in (0.25, 0.1, 0.0625)]
    rows = [_certificate_row(family, d, b, T, 0.2, 0.3, 0.1, 1e-6)
            for (d, b), T in zip(levels, kiselman_legendre(family, levels, 0.3))]
    for row in rows:
        r = max(row.kappa_hat * row.delta, 2.0 * t.spacing)
        assert r == row.t0_min
        assert row.modulus == float((mollify(phi, r).values - phi.values).max())
    assert min(row.kappa_hat for row in rows) < 1.0


def lattice_certificate_row(phi, d, b, value, t0_min, modulus, alpha, K_eff,
                            C4, scale):
    """The checks of one chain row, evaluated on whole lattice fields: the
    reference for `_certificate_row`, which evaluates them on slabs."""
    from torusma.certify import CertificateRow
    from torusma.regularize import mollify
    upper = mollify(phi, d).values + K_eff * d
    upper += K_eff * d * d
    phi = phi.values
    sandwich_ok = bool(np.all(value >= phi - scale)
                       and np.all(value <= upper + scale))
    Phi_d = (1.0 - d**alpha) * value
    diff1_ok = bool(Phi_d.max() <= C4 * d**alpha + scale)
    diff2_rhs = C4 * d**alpha + (1.0 - d**alpha) * (upper - phi)
    gap_field = Phi_d - phi
    diff2_ok = bool(np.all(gap_field <= diff2_rhs + scale))
    return CertificateRow(
        delta=d, b=float(b), gap=float(gap_field.max()), t0_min=t0_min,
        kappa_hat=float(t0_min / d), modulus=modulus, sandwich_ok=sandwich_ok,
        diff2_ok=diff2_ok and diff1_ok)


class TestOnePassChain:
    """The chain's rows, formed and checked one at a time, against rows
    built from the per-row Kiselman-Legendre reference and checked on whole
    lattice fields, at n=1 N=256, where the rows' t-grids overlap (1/8,
    1/16 and 1/32 all reach down to 2/N = 1/128)."""

    @staticmethod
    def reference_row(phi, d, b, K_eff, alpha, C4, scale, kl_reference):
        from torusma.regularize import mollify
        value, t_opt, t_grid = kl_reference(phi, d, b, K_eff)
        t0_min = float(t_opt.min())
        modulus = float((mollify(phi, t0_min).values - phi.values).max())
        return lattice_certificate_row(phi, d, b, value, t0_min, modulus, alpha,
                                       K_eff, C4, scale)

    def test_certificate_rows_match_reference(self, kl_reference):
        from torusma.regularize import kernel_second_moment
        phi, mu, m = manufactured_cos(1, 256)
        cert = hoelder_certificate(Mollifications(phi), mu, 1.0, m,
                                   (1 / 8, 1 / 16, 1 / 32))
        assert cert.passed and len(cert.rows) == 3
        K_eff = m.K + kernel_second_moment(1)
        span = -float(phi.values.min())
        for row in cert.rows:
            want = self.reference_row(phi, row.delta, row.b, K_eff, cert.alpha,
                                      cert.C4, 1e-6 * (1.0 + span), kl_reference)
            assert row == want

    @pytest.mark.parametrize("b", [1e-5, 3e-3])
    def test_small_level_rows_match_reference(self, b, kl_reference):
        # small levels: the infimum drops below delta, so t0_min < delta
        from torusma.certify import _certificate_row
        from torusma.regularize import kiselman_legendre
        phi = cusp_potential(Torus(1, 256))
        family = Mollifications(phi)
        levels = [(d, b) for d in (1 / 8, 1 / 16, 1 / 32)]
        transforms = list(kiselman_legendre(family, levels, 0.3))
        rows = [_certificate_row(family, d, b, T, 0.2, 0.3, 0.1, 1e-6)
                for (d, b), T in zip(levels, transforms)]
        assert min(row.kappa_hat for row in rows) < 1.0
        for (d, b), T, row in zip(levels, transforms, rows):
            value, _, _ = kl_reference(phi, d, b, 0.3)
            assert np.array_equal(T.value.values, value)
            assert row == self.reference_row(phi, d, b, 0.3, 0.2, 0.1, 1e-6,
                                             kl_reference)


@pytest.mark.parametrize("amplitude, deltas, bound", [
    (0.0, (1 / 8, 1 / 16, 1 / 32), 5.5),
    (0.2, (1 / 16, 1 / 32, 1 / 64), 6.5),
], ids=["flat", "conformal"])
def test_chain_peak_memory_in_fields(amplitude, deltas, bound):
    # tracemalloc peak of the chain above its entry, in N^2 float64 fields,
    # at n=1 N=256; a first call builds the kernels, so the count is of
    # lattice fields only. Flat, with the default deltas: run row by row,
    # keeping every radius and a t_opt field per row, the chain peaked at
    # 10.1 fields; one pass that drops each radius after its last reader
    # peaked at 9.1, and skipping the radii that cannot lower the infimum
    # brought it to 8.1. Reading the rate ladder from the top down,
    # releasing the spectrum after the last convolution and forming,
    # checking and dropping one row at a time bring it to 5.1. Conformal,
    # with deltas 1/16, 1/32, 1/64: the rows' grids overlap and 1/128,
    # which is no row's delta, is read by two rows; it peaks at 6.1
    import tracemalloc
    m = conformal_metric(Torus(1, 256), amplitude)
    phi, mu = cos_datum(m, 0.05)
    hoelder_certificate(Mollifications(phi), mu, 1.0, m, deltas)
    family = Mollifications(phi)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        hoelder_certificate(family, mu, 1.0, m, deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = (peak - entry) / phi.values.nbytes
    assert fields <= bound


def test_run_certificate_peak_memory_in_fields(tmp_path):
    # tracemalloc live peak of the whole `certificate` command, solve
    # included, in N^2 float64 fields at n=1 N=256, on a first call that
    # builds the symbols and kernels and on a later one that finds them
    # cached; both are counted. Holding every row's infimum, four half
    # spectra in CG and the lattice right-hand side, it peaked at 14.7
    import tracemalloc
    from torusma.cli import load_config, run_certificate
    from torusma.geometry import spectral_symbols
    from torusma.regularize import _kernel
    cfg = load_config(None, [("torus", "N", 256)])
    spectral_symbols.cache_clear()
    _kernel.cache_clear()
    peaks = []
    tracemalloc.start()
    try:
        for call in range(2):
            run_certificate(cfg, str(tmp_path), False, None)
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * 256**2))
            tracemalloc.reset_peak()
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 11.5


def test_warm_run_certificate_peak_above_entry(tmp_path):
    # tracemalloc peak of a warm `certificate` command above its entry, in
    # N^2 float64 fields at flat n=1 N=256. With one CG iteration per Newton
    # step and the rate fit's integrand held across its convolutions it
    # read 8.02; the direct n = 1 step and an integrand allocated after
    # each convolution bring it to 7.03
    import tracemalloc
    from torusma.cli import load_config, run_certificate
    cfg = load_config(None, [("torus", "N", 256)])
    run_certificate(cfg, str(tmp_path), False, None)  # symbols and kernels
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        code, _ = run_certificate(cfg, str(tmp_path), False, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (peak - entry) / (8 * 256**2) <= 7.1


def test_level_formula_checked_at_gamma():
    # conformal n=1 N=64 at tau = 1: delta^gamma = 0.743 <= 2 K_eff delta = 0.989
    # at delta = 1/8, while the ladder from 1/16 down keeps b positive
    m = conformal_metric(Torus(1, 64), 0.2)
    with pytest.raises(PreconditionError, match="delta 0.125 too large"):
        check_level_formula(m, 1.0, (1 / 32, 1 / 8, 1 / 16))
    check_level_formula(m, 1.0, (1 / 16, 1 / 32, 1 / 64))
    check_level_formula(flat_metric(m.torus), 1.0, (1 / 4, 1 / 8))


class TestMixture:
    def test_domination_slack_nonnegative_random(self):
        rng = np.random.default_rng(11)
        for n, N in [(1, 64), (1, 64), (2, 16)]:
            phi1, phi2, c1, c2, m = mixture_pair(n, N, rng)
            assert mixture_measure(phi1, phi2, c1, c2, m)[1] >= -1e-10

    def test_experiment_end_to_end(self):
        rng = np.random.default_rng(7)
        phi1, phi2, c1, c2, m = mixture_pair(1, 64, rng)
        res = mixture_experiment(phi1, phi2, c1, c2, m)
        assert res.domination_slack >= -1e-10
        assert res.report.converged
        assert res.certificate.passed

    def test_densities_built_once_before_the_solve(self, complex_hessians,
                                                   monkeypatch):
        # omega_{phi1}^n, omega_{phi2}^n and the average's: three Hessians
        import torusma.certify
        rng = np.random.default_rng(7)
        phi1, phi2, c1, c2, m = mixture_pair(1, 64, rng)

        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(torusma.certify, "solve_ma", stop)
        complex_hessians.clear()
        with pytest.raises(Stop):
            mixture_experiment(phi1, phi2, c1, c2, m)
        assert len(complex_hessians) == 3

    def test_violated_domination_raises_before_the_solve(self, violated_domination,
                                                         monkeypatch):
        import torusma.certify

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_ma called on a violated domination")

        monkeypatch.setattr(torusma.certify, "solve_ma", no_solve)
        rng = np.random.default_rng(7)
        phi1, phi2, c1, c2, m = mixture_pair(1, 64, rng)
        with pytest.raises(DominationError, match="domination violated"):
            mixture_experiment(phi1, phi2, c1, c2, m)

    def test_nonpositive_weight_rejected(self):
        rng = np.random.default_rng(3)
        phi1, phi2, _, _, m = mixture_pair(1, 64, rng)
        with pytest.raises(PreconditionError):
            mixture_experiment(phi1, phi2, 0.0, 1.0, m)


class TestLpFixture:
    def test_unit_mass(self):
        m = flat_metric(Torus(1, 64))
        mu = lp_density_fixture(2.0, 0.5, m)
        assert mu.mass == pytest.approx(1.0, abs=1e-12)

    def test_singularity_is_finite_on_lattice(self):
        m = flat_metric(Torus(2, 16))
        mu = lp_density_fixture(2.0, 0.75, m)
        assert np.isfinite(mu.density.values).all()
        assert mu.density.values.max() == mu.density.values[0, 0, 0, 0]

    def test_integrability_guard(self):
        m = flat_metric(Torus(1, 64))
        with pytest.raises(PreconditionError):
            lp_density_fixture(2.0, 1.0, m)   # s p = 2 = 2n
        with pytest.raises(PreconditionError):
            lp_density_fixture(0.5, 0.5, m)
