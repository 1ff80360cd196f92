"""Capacity lower bounds and volume-capacity decay fits."""

import numpy as np
import pytest

from torusma.geometry import Torus, GridFunction, conformal_metric, flat_metric, omega_form
from torusma.errors import PreconditionError
from torusma.pluripotential import ma_measure, sublevel
from torusma.capacity import estimate_capacity, fit_volume_capacity, fit_htau
from torusma.fixtures import lp_density_fixture


@pytest.fixture(scope="module")
def setup32():
    t = Torus(1, 32)
    m = flat_metric(t)
    x = t.axis_coord(0)
    phi = GridFunction(t, 0.05 * np.cos(2 * np.pi * x)
                       * np.ones(t.shape)).sup_normalized()
    zero = GridFunction.constant(t, 0.0)
    return t, m, phi, zero


def nested_sets(phi, zero, count=8):
    osc = float(phi.values.max() - phi.values.min())
    return [sublevel(phi, zero, 0.3, 1.9 * osc * 2.0 ** (-k))
            for k in range(count)]


class TestEstimateCapacity:
    def test_no_field_transformed_twice_at_n1(self, monkeypatch):
        # each candidate's form is built once: on the form psh_repair
        # verified when the repair returned its input, no seed repeats the
        # zero function, and the gradient reads the mask's spectrum from
        # the seeds' family. (At n=2 the gradient still transforms equal
        # weighted masks, the zero off-diagonal weights among them.)
        import hashlib
        from torusma.geometry import _pocketfft
        r2c = _pocketfft.r2c
        digests = []

        def hashed(x, *args):
            digests.append(hashlib.sha1(np.ascontiguousarray(x)).hexdigest())
            return r2c(x, *args)

        t = Torus(1, 32)
        m = flat_metric(t)
        x = t.axis_coord(0)
        phi = GridFunction(t, 0.05 * np.cos(2 * np.pi * x)
                           * np.ones(t.shape)).sup_normalized()
        sets = nested_sets(phi, GridFunction.constant(t, 0.0))
        monkeypatch.setattr(_pocketfft, "r2c", hashed)
        for E in sets:
            digests.clear()
            estimate_capacity(E, m, budget=10)
            assert len(set(digests)) == len(digests)

    def test_zero_candidate_lower_bound(self, setup32):
        # v = 0 is always feasible, so cap(E) >= omega^n(E)
        t, m, phi, zero = setup32
        E = sublevel(phi, zero, 0.3, 0.05)
        base = ma_measure(zero, m).mass_on(E, m)
        cap = estimate_capacity(E, m, budget=5)
        assert cap.lower >= base - 1e-12

    def test_bounded_by_total_volume(self, setup32):
        t, m, phi, zero = setup32
        E = sublevel(phi, zero, 0.3, 0.2)
        cap = estimate_capacity(E, m, budget=20)
        assert cap.lower <= t.volume + 1e-9

    def test_frozen_regression_value(self, setup32):
        t, m, phi, zero = setup32
        E = sublevel(phi, zero, 0.3, 0.05)
        cap = estimate_capacity(E, m, budget=20)
        assert cap.lower == pytest.approx(0.9999999972734639, abs=1e-9)

    def test_candidate_is_feasible(self, setup32):
        t, m, phi, zero = setup32
        E = sublevel(phi, zero, 0.3, 0.05)
        cap = estimate_capacity(E, m, budget=20)
        v = cap.candidate.values
        assert v.min() >= -1e-12 and v.max() <= 1.0 + 1e-12

    def test_nested_monotone_with_seeding(self, setup32):
        t, m, phi, zero = setup32
        sets = nested_sets(phi, zero)
        prev = None
        for E in reversed(sets):  # smallest first
            extra = () if prev is None else (prev,)
            cap = estimate_capacity(E, m, budget=10, extra_candidates=extra)
            if prev is not None:
                assert cap.lower >= prev.lower - 1e-12
            prev = cap

    def test_empty_set_zero_capacity(self, setup32):
        t, m, phi, zero = setup32
        cap = estimate_capacity(np.zeros(t.shape, dtype=bool), m, budget=3)
        assert cap.lower == 0.0
        assert cap.iterations == 0


def cosine_sets(t, amplitude=0.05):
    """The nested sublevel sets of a cosine in x1 and the metric of `amplitude`."""
    m = conformal_metric(t, amplitude)
    x = t.axis_coord(0)
    phi = GridFunction(t, 0.05 * np.cos(2 * np.pi * x)
                       * np.ones(t.shape)).sup_normalized()
    return m, nested_sets(phi, GridFunction.constant(t, 0.0))


class TestEachFormBuiltOnce:
    """The forms capacity no longer transforms a second time, byte for byte
    the forms it did transform."""

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 8)])
    @pytest.mark.parametrize("amplitude", [0.0, 0.2])
    def test_zero_form_is_the_metrics_form(self, n, N, amplitude):
        # omega + dd^c 0 has the values of the transformed zero function; at
        # n = 2 the transform leaves zeros of either sign in b_re, which
        # metric.form() holds as +0
        m = conformal_metric(Torus(n, N), amplitude)
        built = m.form().parts
        transformed = omega_form(GridFunction.constant(m.torus, 0.0), m).parts
        assert np.array_equal(built, transformed)
        if n == 1:
            assert built.tobytes() == transformed.tobytes()
        else:
            assert built[2].tobytes() != transformed[2].tobytes()

    @pytest.mark.parametrize("n, N", [(1, 32), (2, 8)])
    @pytest.mark.parametrize("amplitude", [0.0, 0.2])
    def test_estimate_carries_its_candidates_form(self, n, N, amplitude):
        # the form an extra candidate joins with is the form the next
        # estimate built of it: metric.form() for the zero function, the
        # transformed candidate for every other
        m, sets = cosine_sets(Torus(n, N), amplitude)
        prev = None
        for E in reversed(sets):
            cap = estimate_capacity(E, m, budget=5,
                                    extra_candidates=() if prev is None else (prev,))
            v = cap.candidate.values
            assert v.min() >= 0.0 and v.max() <= 1.0
            expected = m.form() if not v.any() else omega_form(cap.candidate, m)
            assert cap.form.parts.tobytes() == expected.parts.tobytes()
            prev = cap

    @pytest.mark.parametrize("N", [8, 16])
    @pytest.mark.parametrize("amplitude", [0.0, 0.2])
    def test_zero_seed_form_leaves_estimates_unchanged_at_n2(self, monkeypatch,
                                                             N, amplitude):
        # the nested estimates on metric.form() and on the transformed zero
        # function, the form the zero seed once joined with, agree byte for
        # byte: det and min_eig read b_re and b_im squared, and the gradient
        # reads their signed zeros only where it is 0 itself (at N = 8 some
        # ascents start from the zero seed)
        import torusma.capacity
        m, sets = cosine_sets(Torus(2, N), amplitude)

        def nested():
            prev, caps = None, []
            for E in reversed(sets):
                prev = estimate_capacity(E, m, budget=5,
                                         extra_candidates=() if prev is None else (prev,))
                caps.append(prev)
            return caps

        seeds = torusma.capacity._seed_candidates

        def transformed_zero_seed(indicator, metric):
            candidates = seeds(indicator, metric)
            zero, _ = next(candidates)
            yield zero, None  # consider transforms it
            yield from candidates

        built = nested()
        monkeypatch.setattr(torusma.capacity, "_seed_candidates",
                            transformed_zero_seed)
        reference = nested()
        for a, b in zip(built, reference):
            assert a.lower == b.lower
            assert a.candidate.values.tobytes() == b.candidate.values.tobytes()
            assert a.iterations == b.iterations

    def test_carried_form_adds_no_peak_at_n2(self):
        # tracemalloc peak above entry of the nested estimates, in lattice
        # fields: the earlier estimate's form is held through the next one's
        # seeds, so a seed the estimate does not keep must be freed before
        # the next is built (24.3 fields; 25.3 when it is not, 24.4 when only
        # the candidate was carried)
        import tracemalloc
        m, sets = cosine_sets(Torus(2, 16), 0.2)

        def nested():
            prev = None
            for E in reversed(sets[-3:]):
                prev = estimate_capacity(E, m, budget=5,
                                         extra_candidates=() if prev is None else (prev,))

        nested()  # symbol tables and FFT plans cached
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            nested()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / (8 * m.torus.npoints) <= 24.5


@pytest.fixture(scope="module")
def sample(setup32):
    """(caps, masses, n) over the nested sets: the arrays the fits consume."""
    t, m, phi, zero = setup32
    mu = lp_density_fixture(2.0, 0.5, m)
    sets = nested_sets(phi, zero)
    caps = np.array([estimate_capacity(E, m, budget=10).lower for E in sets])
    masses = np.array([mu.mass_on(E, m) for E in sets])
    return caps, masses, t.n


def _old_alpha_scan(caps, masses, n):
    """The exponential fit as a scan over the alpha grid, kept as a reference."""
    best = None
    for alpha1 in [round(0.1 * k, 1) for k in range(1, 11)]:
        bound_log = -alpha1 / np.where(caps > 0.0, caps, np.inf) ** (1.0 / n)
        active = masses > 0.0
        if np.any(active & (caps <= 0.0)):
            continue
        C = float(np.max(masses[active] / np.exp(bound_log[active])))
        best = (C, alpha1, float(np.max(masses - C * np.exp(bound_log))))
    return best


class TestDecayFits:
    def test_volume_capacity_fit(self, sample):
        caps, masses, n = sample
        fit = fit_volume_capacity(caps, masses, n)
        assert np.isfinite(fit.C) and fit.C > 0.0
        assert 0.1 <= fit.exponent <= 1.0
        assert fit.residual <= 1e-12

    def test_htau_fit(self, sample):
        caps, masses, n = sample
        fit = fit_htau(caps, masses, 1.0)
        assert np.isfinite(fit.C) and fit.C > 0.0
        assert fit.exponent == 1.0
        assert fit.residual <= 1e-12

    def test_fit_is_tight_somewhere(self, sample):
        # the fitted constant is the max ratio, so some sample attains it
        caps, masses, n = sample
        fit = fit_htau(caps, masses, 1.0)
        ratios = [mass / cap ** 2.0 for mass, cap in zip(masses, caps)
                  if cap > 0.0]
        assert max(ratios) == pytest.approx(fit.C, rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("empty_set", [False, True])
    def test_alpha_rule_matches_grid_scan(self, sample, n, empty_set):
        caps, masses, _ = sample
        if empty_set:  # a massless zero-capacity sample admits every alpha
            caps, masses = np.append(caps, 0.0), np.append(masses, 0.0)
        fit = fit_volume_capacity(caps, masses, n)
        assert (fit.C, fit.exponent, fit.residual) == _old_alpha_scan(caps, masses, n)
        assert fit.exponent == 1.0


def _fit_vc(caps, masses):
    return fit_volume_capacity(caps, masses, 1)


def _fit_h(caps, masses):
    return fit_htau(caps, masses, 1.0)


@pytest.mark.parametrize("fit", [_fit_vc, _fit_h])
class TestFitPreconditions:
    def test_fewer_than_five_samples(self, fit):
        with pytest.raises(PreconditionError, match="at least 5"):
            fit([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4])

    def test_all_caps_equal(self, fit):
        with pytest.raises(PreconditionError, match="degenerate"):
            fit([0.5] * 6, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])

    def test_mass_on_zero_capacity_sample(self, fit):
        with pytest.raises(PreconditionError, match="zero-capacity"):
            fit([0.0, 0.2, 0.4, 0.6, 0.8], [0.01, 0.2, 0.3, 0.4, 0.5])


def test_volume_capacity_needs_positive_mass():
    with pytest.raises(PreconditionError, match="positive mass"):
        fit_volume_capacity([0.2, 0.4, 0.6, 0.8, 1.0], [0.0] * 5, 1)
