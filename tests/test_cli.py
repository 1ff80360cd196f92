"""Command-line runner: configs, exit codes, CSV/CMAG artifacts, determinism."""

import csv

import numpy as np
import pytest

from torusma.cli import main, load_config
from torusma.errors import ConfigError
from torusma.gridio import read_grid
from torusma.pluripotential import MeasureField, ma_measure
from torusma.geometry import flat_metric


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["torus"]["N"] == 64
        assert cfg["metric"] == {"amplitude": 0.0}  # the flat metric

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[torus]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(p)

    def test_bad_value_reports_key(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[torus]\nN = pony\n")
        with pytest.raises(ConfigError, match="N"):
            load_config(p)

    @pytest.mark.parametrize("N", [4, 12, 48])
    def test_N_rejected_like_torus(self, tmp_path, N):
        p = tmp_path / "c.ini"
        p.write_text(f"[torus]\nN = {N}\n")
        with pytest.raises(ConfigError, match="N must be a power of two"):
            load_config(p)
        # rejected before the run creates its output directory
        assert main(["capacity", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_bad_sweep_size_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[sweep]\ncommand = solve\nN = 32,12\n")
        with pytest.raises(ConfigError, match="sweep"):
            load_config(p)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.ini")

    def test_range_validation(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[torus]\nn = 3\n")
        with pytest.raises(ConfigError):
            load_config(p)

    @pytest.mark.parametrize("text, key", [
        ("[certificate]\ntau = 0\n", "tau"),
        ("[certificate]\ntau = -0.5\n", "tau"),
        ("[certificate]\ntau = nan\n", "tau"),
        ("[sweep]\ncommand = stability\ntau = 0.5,0\n", "tau"),
        ("[solver]\ntol = 0\n", "tol"),
        ("[solver]\ntol = -1\n", "tol"),
        ("[solver]\nmax_iter = 0\n", "max_iter"),
        ("[stability]\nbudget = 0\n", "budget"),
    ], ids=["tau-0", "tau-negative", "tau-nan", "sweep-tau-0", "tol-0",
            "tol-negative", "max_iter-0", "budget-0"])
    def test_bad_numeric_setting_rejected(self, tmp_path, text, key):
        p = tmp_path / "c.ini"
        p.write_text(text)
        with pytest.raises(ConfigError, match=key):
            load_config(p)

    @pytest.mark.parametrize("command, text", [
        ("capacity", "[certificate]\ntau = 0\n"),
        ("solve", "[solver]\ntol = -1\n"),
    ], ids=["capacity-tau-0", "solve-tol-negative"])
    def test_bad_numeric_setting_exits_before_work(self, tmp_path, capsys,
                                                   monkeypatch, command, text):
        # rejected before any capacity estimate or solve; unchecked, tau = 0
        # raises only in the fit after all eight estimates, and tol = -1
        # stalls the solve, which exits 2 as a checked FAIL would
        import torusma.cli

        def refused(*args, **kwargs):
            raise AssertionError("work started on a rejected config")

        monkeypatch.setattr(torusma.cli, "estimate_capacity", refused)
        monkeypatch.setattr(torusma.cli, "solve_ma", refused)
        p = tmp_path / "c.ini"
        p.write_text(text)
        assert main([command, "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 1
        assert "must be positive" in capsys.readouterr().err


class TestSolveCommand:
    def test_uniform_datum_summary(self, tmp_path, capsys):
        out = tmp_path / "o"
        ini = tmp_path / "c.ini"
        ini.write_text("[fixture]\nname = manufactured_cos\namplitude = 0.0\n")
        code = main(["solve", "--config", str(ini), "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("solve PASS")
        assert "c=1 " in line or "c=1\n" in line + "\n"

    def test_csv_rederivable_from_artifacts(self, tmp_path, capsys):
        # round-trip: the c column must be recomputable from the dumped grids
        out = tmp_path / "o"
        code = main(["solve", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "solve.csv")
        phi = read_grid(out / "phi.cmag")
        mu_dens = read_grid(out / "mu_density.cmag")
        m = flat_metric(phi.torus)
        mu = MeasureField.from_density(mu_dens, m)
        c_expected = ma_measure(phi, m).mass / mu.mass
        assert float(rows[-1]["c"]) == pytest.approx(c_expected, abs=1e-9)

    @pytest.mark.parametrize("command", ["solve", "certificate", "mixture"])
    def test_unconverged_inner_solves_reach_summary(self, tmp_path, capsys,
                                                    monkeypatch, command):
        # every inner CG solve reports failure but returns its real step, so
        # the Newton iteration is unchanged and every step counts. Only n=2
        # runs inner solves; certificate and mixture run at n=1, since n=2
        # N=16 is below the delta ladder, and their steps call neither
        # Krylov method
        import torusma.solver
        pcg = torusma.solver._pcg
        calls = []

        def flagged(*args, **kwargs):
            calls.append(1)
            return pcg(*args, **kwargs)[0], 1

        def forbidden(*args, **kwargs):
            raise AssertionError("an n=1 Newton step called GMRES")

        monkeypatch.setattr(torusma.solver, "_pcg", flagged)
        monkeypatch.setattr(torusma.solver, "_gmres", forbidden)
        argv = [command, "--out", str(tmp_path / "o")]
        if command == "solve":
            ini = tmp_path / "c.ini"
            ini.write_text("[torus]\nn = 2\nN = 16\n")
            argv += ["--config", str(ini)]
        assert main(argv) == 0
        summary = dict(part.split("=") for part in
                       capsys.readouterr().out.split()[2:])
        if command == "solve":
            assert calls and int(summary["iterations"]) == len(calls)
            assert int(summary["krylov_unconverged"]) == len(calls)
        else:
            assert not calls and summary["krylov_unconverged"] == "0"


class TestCapacityCommand:
    def test_summary_rederivable_from_csv(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["capacity", "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("capacity PASS")
        summary = dict(part.split("=") for part in line.split()[2:])
        rows = read_csv(out / "capacity.csv")
        caps = np.array([float(r["cap_lower"]) for r in rows])
        masses = np.array([float(r["mu_mass"]) for r in rows])
        n, tau = 1, 1.0  # the default config
        alpha1 = float(summary["alpha1"])
        assert alpha1 == 1.0  # the largest exponent on the fit's grid
        active = masses > 0.0
        C = np.max(masses[active] * np.exp(alpha1 / caps[active] ** (1.0 / n)))
        C_tau = np.max(masses[active] / caps[active] ** (1.0 + tau))
        assert float(summary["C"]) == pytest.approx(C, rel=1e-12)
        assert float(summary["C_tau"]) == pytest.approx(C_tau, rel=1e-12)


class TestRegularizeCommand:
    def test_l1_rate_weighs_a_measure_of_the_configured_metric(self, tmp_path,
                                                               capsys):
        from torusma.fixtures import cos_datum
        from torusma.geometry import Torus, conformal_metric
        from torusma.regularize import Mollifications, l1_rate, rate_deltas
        ini = tmp_path / "c.ini"
        ini.write_text("[metric]\namplitude = 0.2\n")
        out = tmp_path / "o"
        assert main(["regularize", "--config", str(ini), "--out", str(out)]) == 0
        rows = {r["quantity"]: float(r["value"])
                for r in read_csv(out / "regularize.csv")}
        metric = conformal_metric(Torus(1, 64), 0.2)
        phi, mu = cos_datum(metric, 0.05)
        deltas = rate_deltas((1 / 8, 1 / 16, 1 / 32), metric.torus)
        rate, rate_C = l1_rate(Mollifications(phi), mu, deltas, metric)
        assert (rows["l1_rate"], rows["l1_rate_C"]) == (rate, rate_C)


class TestErrorPaths:
    def test_corrupted_mu_exits_one(self, tmp_path, capsys, monkeypatch):
        import torusma.fixtures
        pair = torusma.fixtures.stability_pair

        def corrupted(*args):
            psi, phi, mu, metric = pair(*args)
            return psi, phi, mu.scaled(1.01, metric), metric

        monkeypatch.setattr(torusma.fixtures, "stability_pair", corrupted)
        ini = tmp_path / "c.ini"
        ini.write_text("[stability]\nbudget = 4\n[torus]\nN = 32\n")
        code = main(["stability", "--config", str(ini),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[torus]\nwhat = 1\n")
        code = main(["solve", "--config", str(ini),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_empty_sweep_grid_exits_one(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[sweep]\ncommand = solve\nN =\n")
        code = main(["sweep", "--config", str(ini),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "empty" in capsys.readouterr().err


class TestDeltaLadder:
    @pytest.mark.parametrize("command", ["certificate", "mixture", "regularize"])
    def test_unresolvable_deltas_fail_before_solving(self, tmp_path, capsys,
                                                     monkeypatch, command):
        import torusma.certify
        import torusma.cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_ma called before the delta check")

        monkeypatch.setattr(torusma.cli, "solve_ma", no_solve)
        monkeypatch.setattr(torusma.certify, "solve_ma", no_solve)
        ini = tmp_path / "c.ini"
        ini.write_text("[torus]\nn = 2\nN = 16\n")  # default delta_list
        code = main([command, "--config", str(ini),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "delta_list" in capsys.readouterr().err


@pytest.fixture
def no_solver(monkeypatch):
    """Make every solve, fit and fixture build a command could start fail."""
    import torusma.certify
    import torusma.cli
    import torusma.fixtures
    import torusma.solver

    def no_solve(*args, **kwargs):
        raise AssertionError("solver called before the config check")

    for module, name in [(torusma.cli, "solve_ma"),
                         (torusma.cli, "continuation_solve"),
                         (torusma.solver, "solve_ma"),
                         (torusma.certify, "solve_ma"),
                         (torusma.certify, "estimate_capacity"),
                         (torusma.cli, "l1_rate"),
                         (torusma.fixtures, "stability_pair"),
                         (torusma.fixtures, "mixture_pair"),
                         (torusma.fixtures, "manufactured_cos"),
                         (torusma.fixtures, "cos_datum")]:
        monkeypatch.setattr(module, name, no_solve)


def run_rejected(tmp_path, capsys, command, text):
    """Run `command` on the config `text`; assert it exits 1, return stderr."""
    ini = tmp_path / "c.ini"
    ini.write_text(text)
    assert main([command, "--config", str(ini),
                 "--out", str(tmp_path / "o")]) == 1
    return capsys.readouterr().err


class TestIgnoredConfigRejected:
    """Settings a pipeline would silently ignore fail before any solve."""

    @pytest.mark.parametrize("command,text", [
        ("solve", "[fixture]\nname = holder_subsolution\n[torus]\nn = 2\nN = 16\n"),
        ("solve", "[fixture]\nname = holder_subsolution\n"
                  "[metric]\namplitude = 0.2\n"),
        ("stability", "[metric]\namplitude = 0.2\n"),
        ("mixture", "[metric]\namplitude = 0.2\n"),
        ("stability", "[fixture]\nname = singular_density\n"),
        ("stability", "[fixture]\nname = holder_subsolution\n"),
        ("mixture", "[fixture]\nname = singular_density\n"),
        ("mixture", "[fixture]\nname = holder_subsolution\n"),
        ("regularize", "[fixture]\nname = singular_density\n"),
        ("regularize", "[fixture]\nname = holder_subsolution\n"),
        ("stability", "[fixture]\namplitude = 0.01\n"),
        ("mixture", "[fixture]\ns = 0.3\n"),
        ("regularize", "[fixture]\np = 3.0\n"),
        ("solve", "[fixture]\nname = singular_density\namplitude = 0.01\n"),
        ("solve", "[fixture]\nname = holder_subsolution\np = 3.0\n"),
        ("certificate", "[fixture]\ns = 0.3\n"),
        ("capacity", "[fixture]\np = 3.0\n"),
        ("certificate", "[torus]\nn = 1\nN = 64\n"
                        "[metric]\namplitude = 0.2\n"),
    ])
    def test_exits_one_before_solving(self, tmp_path, capsys, no_solver,
                                      command, text):
        err = run_rejected(tmp_path, capsys, command, text)
        assert ("builds its own metric" in err or "n = 1 only" in err
                or "builds its own fixture" in err or "level formula" in err)

    @pytest.mark.parametrize("command,text,message", [
        # one key per setting: the retired keys are unknown, not aliases
        ("solve", "[metric]\nkind = conformal\n",
         "unknown key 'kind' in section [metric]"),
        ("stability", "[stability]\ntau = 0.5\n",
         "unknown key 'tau' in section [stability]"),
        ("stability", "[metric]\namplitude = 0.2\n",
         "stability builds its own metric; [metric] amplitude = 0.2 "
         "is not supported"),
        ("solve", "[metric]\namplitude = 0.6\n", "|amplitude| < 0.5"),
        ("certificate", "[metric]\namplitude = -0.6\n", "|amplitude| < 0.5"),
    ])
    def test_one_key_per_setting(self, tmp_path, capsys, no_solver, command,
                                 text, message):
        assert message in run_rejected(tmp_path, capsys, command, text)

    @pytest.mark.parametrize("command", ["solve", "regularize"])
    def test_tau_axis_over_a_command_that_ignores_tau(self, tmp_path, capsys,
                                                      no_solver, command):
        # solve and regularize never read [certificate] tau: a tau axis
        # would write identical cells, so the sweep exits 1 before any cell
        err = run_rejected(tmp_path, capsys, "sweep",
                           f"[sweep]\ncommand = {command}\ntau = 0.5,1.0\n")
        assert (f"{command} does not read [certificate] tau; "
                "[sweep] tau is not supported") in err
        assert not list((tmp_path / "o").glob("cell_*"))

    @pytest.mark.parametrize("name", ["stability_pair", "mixture_pair"])
    def test_unread_fixture_names_rejected(self, tmp_path, name):
        p = tmp_path / "c.ini"
        p.write_text(f"[fixture]\nname = {name}\n")
        with pytest.raises(ConfigError, match="unknown fixture"):
            load_config(p)


class TestMixtureCommand:
    def test_certificate_tau_reaches_the_certificate(self, tmp_path, capsys):
        # gamma = 1 / (1 + (n+2)(n + 1/tau)) is 0.1 at n = 1, tau = 0.5
        ini = tmp_path / "c.ini"
        ini.write_text("[certificate]\ntau = 0.5\n")
        assert main(["mixture", "--config", str(ini),
                     "--out", str(tmp_path / "o")]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("mixture PASS")
        summary = dict(part.split("=") for part in line.split()[2:])
        assert float(summary["alpha"]) == 0.1

    def test_violated_domination_exits_one(self, tmp_path, capsys,
                                           violated_domination):
        assert main(["mixture", "--out", str(tmp_path / "o")]) == 1
        assert "domination violated" in capsys.readouterr().err


class TestLatticeRoundOffFloor:
    """n=1 N=1024 runs that stalled at 1.55e-10 against the default tol 1e-10
    while the solve carried phi on the lattice, whose round-off the Hessian
    symbol amplifies by up to (pi N)^2; each now converges and passes."""

    def test_mixture_seed_13(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[torus]\nN = 1024\n")
        assert main(["mixture", "--config", str(ini), "--seed", "13",
                     "--out", str(tmp_path / "o")]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("mixture PASS") and "converged=true" in line.split()

    def test_singular_density_certificate(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[torus]\nN = 1024\n[fixture]\nname = singular_density\n")
        out = tmp_path / "o"
        assert main(["certificate", "--config", str(ini), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("certificate PASS")
        rows = read_csv(out / "certificate.csv")
        assert rows and all(r["sandwich_ok"] == r["diff2_ok"] == "true" for r in rows)


class TestCertificateCommand:
    def test_dump_stages_transforms_nothing_more(self, tmp_path, capsys,
                                                 forward_transforms,
                                                 inverse_transforms):
        # the mollified grids are read from the certificate's own family
        from torusma.regularize import _kernel
        ini = tmp_path / "c.ini"
        ini.write_text("[torus]\nN = 256\n")
        counts = []
        for flags in ([], ["--dump-stages"]):
            out = tmp_path / f"o{len(counts)}"
            _kernel.cache_clear()  # each run builds its kernels
            forward_transforms.clear()
            inverse_transforms.clear()
            assert main(["certificate", "--config", str(ini),
                         "--out", str(out)] + flags) == 0
            counts.append((len(forward_transforms), len(inverse_transforms)))
        assert counts[1] == counts[0]
        assert sorted(p.name for p in out.glob("mollified_*.cmag")) == [
            "mollified_0.03125.cmag", "mollified_0.0625.cmag",
            "mollified_0.125.cmag"]


    @pytest.mark.parametrize("command", ["certificate", "mixture"])
    def test_no_forward_transform_repeats(self, tmp_path, capsys, monkeypatch,
                                          command):
        # the solution check reads phi's half spectrum from the family that
        # the certificate convolves, so no field is transformed forward twice
        import hashlib
        from torusma.geometry import _pocketfft
        from torusma.regularize import _kernel
        r2c = _pocketfft.r2c
        digests = []

        def hashed(x, *args):
            digests.append(hashlib.sha1(np.ascontiguousarray(x)).hexdigest())
            return r2c(x, *args)

        monkeypatch.setattr(_pocketfft, "r2c", hashed)
        _kernel.cache_clear()  # the run builds its kernels
        assert main([command, "--out", str(tmp_path / "o")]) == 0
        assert digests and len(set(digests)) == len(digests)

    @pytest.mark.parametrize("text, amplitude", [
        ("[torus]\nN = 256\n", 0.0),
        ("[torus]\nN = 256\n[metric]\namplitude = 0.2\n"
         "[certificate]\ndelta_list = 0.0625,0.03125,0.015625\n", 0.2)],
        ids=["flat", "conformal"])
    def test_summary_rederivable_from_artifacts(self, tmp_path, capsys, text,
                                                amplitude):
        # every value of the summary follows from certificate.csv and the
        # dumped phi and mu; alpha1 is the L1 rate over the rate_deltas ladder
        import math
        from torusma.certify import stability_gamma
        from torusma.geometry import conformal_metric
        from torusma.regularize import Mollifications, l1_rate, rate_deltas
        ini = tmp_path / "c.ini"
        ini.write_text(text)
        out = tmp_path / "o"
        assert main(["certificate", "--config", str(ini), "--out", str(out)]) == 0
        summary = {k: float(v) for k, v in (
            part.split("=") for part in capsys.readouterr().out.split()[2:])}
        rows = read_csv(out / "certificate.csv")
        deltas = [float(r["delta"]) for r in rows]
        gaps = [float(r["gap"]) for r in rows]
        moduli = [float(r["modulus"]) for r in rows]
        phi = read_grid(out / "phi.cmag")
        metric = conformal_metric(phi.torus, amplitude)
        mu = MeasureField.from_density(read_grid(out / "mu_density.cmag"), metric)
        tau = 1.0  # the default config
        gamma = stability_gamma(phi.torus.n, tau)
        alpha1 = l1_rate(Mollifications(phi), mu,
                         rate_deltas(deltas, phi.torus), metric)[0]
        alpha = min(gamma, alpha1)
        power = alpha * alpha1
        C6 = max(max(g, 0.0) / d ** power for d, g in zip(deltas, gaps))
        C7 = max(max(m, 0.0) / d ** power for d, m in zip(deltas, moduli))
        kappa = (1.0 if metric.A == 0.0
                 else math.exp(-2.0 * metric.A * C6 / (1.0 - max(deltas) ** alpha)))
        fit = [(math.log(d), math.log(m)) for d, m in zip(deltas, moduli) if m > 0.0]
        measured = float(np.polyfit(*zip(*fit), 1)[0])
        assert summary == {
            "alpha": alpha, "alpha1": alpha1, "gamma": gamma, "kappa": kappa,
            "C4": -phi.values.min(), "C6": C6, "C7": C7,
            "measured_exponent": measured,
            "krylov_unconverged": summary["krylov_unconverged"]}


class TestStabilityCommand:
    def test_passes_and_writes_ledger(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[stability]\nbudget = 4\n[torus]\nN = 32\n")
        out = tmp_path / "o"
        code = main(["stability", "--config", str(ini), "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "stability.csv")
        assert len(rows) > 0
        assert min(float(r["slack"]) for r in rows) >= -1e-12

    def test_reads_the_certificate_tau(self, tmp_path, capsys):
        # gamma = 1 / (1 + (n+2)(n + 1/tau)) is 0.1 at n = 1, tau = 0.5
        ini = tmp_path / "c.ini"
        ini.write_text("[certificate]\ntau = 0.5\n"
                       "[stability]\nbudget = 4\n[torus]\nN = 32\n")
        assert main(["stability", "--config", str(ini),
                     "--out", str(tmp_path / "o")]) == 0
        summary = dict(part.split("=") for part in
                       capsys.readouterr().out.split()[2:])
        assert float(summary["gamma"]) == 0.1


class TestSweep:
    def _cfg(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text("[sweep]\ncommand = stability\nN = 32\ntau = 0.5,1.0\n"
                       "[stability]\nbudget = 4\n")
        return ini

    def test_rows_per_cell(self, tmp_path, capsys):
        ini = self._cfg(tmp_path)
        out = tmp_path / "o"
        code = main(["sweep", "--config", str(ini), "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2
        assert all(r["exit"] == "0" for r in rows)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        ini = self._cfg(tmp_path)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sweep", "--config", str(ini), "--out", str(o1),
                     "--seed", "9"]) == 0
        assert main(["sweep", "--config", str(ini), "--out", str(o2),
                     "--seed", "9"]) == 0
        assert (o1 / "sweep.csv").read_bytes() == (o2 / "sweep.csv").read_bytes()

    def test_single_cell_matches_direct_run(self, tmp_path, capsys):
        ini = tmp_path / "one.ini"
        ini.write_text("[sweep]\ncommand = stability\nN = 32\ntau = 1.0\n"
                       "[stability]\nbudget = 4\n[torus]\nN = 32\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(ini), "--out", str(out)]) == 0
        sweep_rows = read_csv(out / "sweep.csv")
        assert len(sweep_rows) == 1
        direct_out = tmp_path / "d"
        assert main(["stability", "--config", str(ini),
                     "--out", str(direct_out)]) == 0
        direct_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert sweep_rows[0]["summary"] == direct_line


class TestTransformSeam:
    """Every lattice transform is a call on geometry's pocketfft binding."""

    @pytest.mark.parametrize("command", ["capacity", "solve", "certificate"])
    def test_no_transform_goes_through_scipy_fft(self, tmp_path, monkeypatch,
                                                 command):
        import scipy.fft

        def refused(*args, **kwargs):
            raise AssertionError("scipy.fft transform called")

        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft",
                     "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2"):
            monkeypatch.setattr(scipy.fft, name, refused)
        assert main([command, "--out", str(tmp_path / "o")]) == 0

    # the bench's three inputs at their reference amplitude; a pipeline that
    # transforms more than this must say why
    @pytest.mark.parametrize("command, n, N, forward, inverse", [
        ("capacity", 1, 128, 442, 458),
        ("solve", 2, 16, 32, 129),
        ("certificate", 1, 1024, 3, 8)])
    def test_transforms_per_warm_call(self, tmp_path, forward_transforms,
                                      inverse_transforms, command, n, N,
                                      forward, inverse):
        import torusma.cli
        cfg = load_config(None, [("torus", "n", n), ("torus", "N", N),
                                 ("fixture", "amplitude", 0.05)])
        run = getattr(torusma.cli, "run_" + command)
        for k in range(2):  # the first call fills the kernel caches
            forward_transforms.clear()
            inverse_transforms.clear()
            out = tmp_path / str(k)
            out.mkdir()
            code, _ = run(cfg, str(out), False,
                          np.random.default_rng(cfg["run"]["seed"]))
            assert code == 0
        assert (len(forward_transforms), len(inverse_transforms)) == (
            forward, inverse)
