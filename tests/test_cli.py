"""Command-line runner: configs, exit codes, CSV/CMAG artifacts, determinism."""

import csv

import numpy as np
import pytest

from torusma.cli import main, load_config
from torusma.errors import ConfigError
from torusma.gridio import read_grid
from torusma.pluripotential import MeasureField, ma_measure
from torusma.geometry import flat_metric, integrate


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["torus"]["N"] == 64
        assert cfg["metric"]["kind"] == "flat"

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


class TestErrorPaths:
    def test_corrupted_mu_exits_one(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[stability]\ncorrupt_mu = true\nbudget = 4\n"
                       "[torus]\nN = 32\n")
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


class TestSweep:
    def _cfg(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text("[sweep]\ncommand = stability\nN = 32\ntau = 0.5,1.0\n"
                       "[stability]\nbudget = 4\n")
        return ini

    def test_rows_per_cell(self, tmp_path, capsys):
        ini = self._cfg(tmp_path)
        out = tmp_path / "o"
        code = main(["sweep", "--config", str(ini), "--out", str(out),
                     "--threads", "2"])
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
                     "--seed", "9", "--threads", "2"]) == 0
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
