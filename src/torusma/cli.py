"""Experiment runner.

Subcommands: solve, capacity, regularize, stability, certificate, mixture,
sweep.  Each run reads an INI-style config (flat sections, one level), writes
CSV tables plus CMAG grid artifacts into the output directory, and prints a
single summary line.  Exit status: 0 on PASS/converged, 2 on a checked FAIL
(an inequality the pipeline verifies was violated), 1 on error.
"""

import argparse
import configparser
import csv
import os
import sys

import numpy as np

from .errors import TorusMAError, ConfigError, PreconditionError
from .geometry import Torus, GridFunction, conformal_metric
from .pluripotential import ma_measure, sublevel
from .capacity import estimate_capacity, fit_volume_capacity, fit_htau
from .regularize import (Mollifications, kernel_eta, build_kernel, l1_rate,
                         rate_deltas, discrete_mass_convergence)
from .solver import solve_ma, continuation_solve
from .certify import (check_level_formula, stability_check,
                      hoelder_certificate, mixture_experiment)
from .gridio import write_grid
from . import fixtures

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _checked(parse, ok, why):
    """`parse`, raising ValueError(`why`) on the values where `ok` fails."""
    def checked(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(why)
        return value
    return checked


def _list(parse):
    """A comma-separated list of distinct values, each read by `parse`."""
    return _checked(lambda text: tuple(parse(p) for p in text.split(",")
                                       if p.strip()),
                    lambda v: len(set(v)) == len(v), "repeated value")


_POSITIVE = _checked(float, lambda v: v > 0.0, "must be positive")  # not NaN
_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "must be at least 1")

# the [fixture] keys a fixture adds to the reads of [fixture] name's readers
_FIXTURE_READS = {"manufactured_cos": ("amplitude",),
                  "singular_density": ("s", "p"),
                  "holder_subsolution": ()}
_FIXTURE_NAME = _checked(str, _FIXTURE_READS.__contains__,
                         f"unknown fixture; choose from {tuple(_FIXTURE_READS)}")
_CERTIFY = ("certificate", "mixture")  # run the Hoelder chain
_FIXTURED = ("solve", "capacity", "certificate")  # build the named fixture

# section -> {key: (parser, default, readers)}; readers names the commands
# that read the key, None all of them ([sweep] only when a sweep runs)
_SCHEMA = {
    "torus": {"n": (int, 1, None), "N": (int, 64, None)},
    "metric": {"amplitude": (float, 0.0, _FIXTURED + ("regularize",))},
    "fixture": {"name": (_FIXTURE_NAME, "manufactured_cos", _FIXTURED),
                "amplitude": (float, 0.05, ("capacity", "regularize")),
                "s": (float, 0.5, ()), "p": (float, 2.0, ())},
    "solver": {"tol": (_POSITIVE, 1e-10, ("solve",) + _CERTIFY),
               "max_iter": (_AT_LEAST_ONE, 60, ("solve",) + _CERTIFY)},
    "certificate": {"tau": (_POSITIVE, 1.0,
                            ("capacity", "stability") + _CERTIFY),
                    "delta_list": (_list(float), (1 / 8, 1 / 16, 1 / 32),
                                   ("regularize",) + _CERTIFY)},
    "stability": {"amplitude": (_POSITIVE, 1e-2, ("stability",)),
                  "budget": (_AT_LEAST_ONE, 10, ("stability",))},
    "run": {"seed": (int, 0, None), "out": (str, "out", None)},
    "sweep": {"command": (str, "solve", None), "N": (_list(int), None, None),
              "tau": (_list(_POSITIVE), None, None)},
}


def load_config(path=None, overrides=()):
    """Parse the INI config into a flat {section: {key: value}} dict.

    Unknown sections or keys are rejected.  Each value of the file and of
    `overrides` ((section, key, value) triples; a list as its text) goes
    through its key's parser, which rejects values outside its range.
    """
    cfg = {sec: {k: d for k, (_, d, _) in keys.items()}
           for sec, keys in _SCHEMA.items()}
    given = []
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case ("N" vs "n")
    try:
        if path is not None and not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        for sec in parser.sections():
            if sec not in _SCHEMA:
                raise ConfigError(f"unknown config section [{sec}]")
            given += [(sec, key, raw) for key, raw in parser.items(sec)]
    except configparser.Error as exc:  # a repeated key, no section header
        raise ConfigError("malformed config file: "
                          + " ".join(str(exc).splitlines())) from exc
    for sec, key, raw in given + list(overrides):
        if key not in _SCHEMA[sec]:
            raise ConfigError(f"unknown key '{key}' in section [{sec}]")
        try:
            cfg[sec][key] = _SCHEMA[sec][key][0](raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for [{sec}] {key} = {raw!r}: {exc}") from exc
    # Torus decides which sizes are valid; check every size the run will use
    sizes = [("torus", cfg["torus"]["N"])]
    sizes += [("sweep", N) for N in cfg["sweep"]["N"] or ()]
    for sec, N in sizes:
        try:
            Torus(cfg["torus"]["n"], N)
        except PreconditionError as exc:
            raise ConfigError(f"bad value in [{sec}]: {exc}") from exc
    return cfg


def _check_reads(cfg, command):
    """Reject every setting off its default that `command` does not read."""
    name = cfg["fixture"]["name"]
    for sec, keys in _SCHEMA.items():
        for key, (_, default, readers) in keys.items():
            reads = readers is None or command in readers
            if command in _FIXTURED and sec == "fixture":
                reads = reads or key in _FIXTURE_READS[name]
            if command in _FIXTURED and sec == "metric":
                reads = name != "holder_subsolution"  # builds its own metric
            if not reads and cfg[sec][key] != default:
                raise ConfigError(f"{command} does not read [{sec}] {key}; "
                                  f"[{sec}] {key} = {cfg[sec][key]} "
                                  "is not supported")


def _rate_ladder(cfg, torus):
    """The certificate's delta ladder, checked before any expensive work."""
    try:
        return rate_deltas(cfg["certificate"]["delta_list"], torus)
    except PreconditionError as exc:
        raise ConfigError(f"bad [certificate] delta_list: {exc}") from exc


def _metric_for(cfg):
    """The conformal metric of [metric] amplitude; amplitude 0 is flat."""
    return conformal_metric(Torus(cfg["torus"]["n"], cfg["torus"]["N"]),
                            cfg["metric"]["amplitude"])


# ---------------------------------------------------------------------------
# deterministic CSV / artifact output
# ---------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _summary(command, ok, **kv):
    tag = "PASS" if ok else "FAIL"
    parts = " ".join(f"{k}={_fmt(v)}" for k, v in kv.items())
    return f"{command} {tag} {parts}".rstrip()


# ---------------------------------------------------------------------------
# pipelines: each returns (exit_code, summary_line)
# ---------------------------------------------------------------------------

def _build_measure(cfg, metric):
    """The fixture's measure datum."""
    name = cfg["fixture"]["name"]
    if name == "manufactured_cos":
        return fixtures.cos_datum(metric, cfg["fixture"]["amplitude"])[1]
    if name == "singular_density":
        return fixtures.lp_density_fixture(cfg["fixture"]["p"],
                                           cfg["fixture"]["s"], metric)
    raise ConfigError(f"fixture {name!r} does not define a measure datum")


def run_solve(cfg, out, dump_stages, rng):
    _check_reads(cfg, "solve")
    if cfg["fixture"]["name"] == "holder_subsolution":
        if cfg["torus"]["n"] != 1:
            raise ConfigError("holder_subsolution is defined for [torus] n = 1 only")
        sched, metric = fixtures.holder_subsolution(cfg["torus"]["N"])
        rep = continuation_solve(sched, metric, tol=cfg["solver"]["tol"],
                                 max_iter=cfg["solver"]["max_iter"])
        mu = None
    else:
        metric = _metric_for(cfg)
        mu = _build_measure(cfg, metric)
        rep = solve_ma(mu, metric, tol=cfg["solver"]["tol"],
                       max_iter=cfg["solver"]["max_iter"])
    write_grid(os.path.join(out, "phi.cmag"), rep.phi)
    if mu is not None:
        write_grid(os.path.join(out, "mu_density.cmag"), mu.density)
    if dump_stages:
        write_grid(os.path.join(out, "ma_density.cmag"),
                   ma_measure(rep.phi, metric).density)
    write_csv(os.path.join(out, "solve.csv"),
              ["iteration", "residual", "c"],
              [(i, r, rep.c) for i, r in enumerate(rep.residual_history)])
    ok = rep.converged
    line = _summary("solve", ok, c=rep.c, residual=rep.residual_history[-1],
                    iterations=rep.iterations,
                    krylov_unconverged=rep.krylov_unconverged)
    return (0 if ok else 2), line


def run_capacity(cfg, out, dump_stages, rng):
    _check_reads(cfg, "capacity")
    metric = _metric_for(cfg)
    mu = _build_measure(cfg, metric)
    torus = metric.torus
    # eight nested sublevel sets of the cosine potential
    ref = fixtures.cos_potential(torus, cfg["fixture"]["amplitude"])
    zero = GridFunction.constant(torus, 0.0)
    osc = float(ref.values.max() - ref.values.min())
    rows = []
    prev = None
    monotone = True
    # smallest set first so each maximizer seeds the next (nested) ascent,
    # keeping the certified lower bounds monotone
    for k in reversed(range(8)):
        s = 1.9 * osc * 2.0 ** (-k)
        mask = sublevel(ref, zero, 0.3, s)
        extra = () if prev is None else (prev,)
        cap = estimate_capacity(mask, metric, budget=20, extra_candidates=extra)
        mass = mu.mass_on(mask, metric)
        if prev is not None and cap.lower < prev.lower - 1e-12:
            monotone = False
        prev = cap
        rows.append((s, float(mask.mean()), mass, cap.lower))
    rows.reverse()
    # the fits use exactly the mu_mass and cap_lower columns of capacity.csv
    _, _, masses, caps = zip(*rows)
    fit_vc = fit_volume_capacity(caps, masses, torus.n)
    fit_h = fit_htau(caps, masses, cfg["certificate"]["tau"])
    write_csv(os.path.join(out, "capacity.csv"),
              ["s", "fraction", "mu_mass", "cap_lower"], rows)
    ok = (np.isfinite(fit_vc.C) and np.isfinite(fit_h.C)
          and fit_vc.residual <= 1e-12 and fit_h.residual <= 1e-12 and monotone)
    line = _summary("capacity", ok, C=fit_vc.C, alpha1=fit_vc.exponent,
                    C_tau=fit_h.C, residual=max(fit_vc.residual, fit_h.residual))
    return (0 if ok else 2), line


def run_regularize(cfg, out, dump_stages, rng):
    _check_reads(cfg, "regularize")
    metric = _metric_for(cfg)
    torus = metric.torus
    deltas = _rate_ladder(cfg, torus)
    n = torus.n
    eta = kernel_eta(n)
    kernel = build_kernel(torus, 0.125)
    N_list = [64, 128, 256] if n == 1 else [16, 32, 64]
    errs = discrete_mass_convergence(n, 0.125, N_list)
    phi, mu = fixtures.cos_datum(metric, cfg["fixture"]["amplitude"])
    family = Mollifications(phi)  # shared by the rate fit and the dumps
    rate, rate_C = l1_rate(family, mu, deltas, metric,
                           keep=deltas if dump_stages else ())
    rows = [("eta", n, eta), ("continuum_mass", 0.125, kernel.continuum_mass)]
    rows += [("discrete_mass_err", N, e) for N, e in zip(N_list, errs)]
    rows += [("l1_rate", 0.0, rate), ("l1_rate_C", 0.0, rate_C)]
    write_csv(os.path.join(out, "regularize.csv"), ["quantity", "param", "value"],
              rows)
    if dump_stages:
        for d in deltas:
            write_grid(os.path.join(out, f"mollified_{d:.6g}.cmag"),
                       family(d))
    # the Riemann-sum mass error must decay at the grid rate; the exact
    # quadrature normalization check lives in the test-suite
    ok = all(b <= a for a, b in zip(errs, errs[1:])) and np.isfinite(rate)
    line = _summary("regularize", ok, eta=eta,
                    continuum_mass=kernel.continuum_mass, l1_rate=rate)
    return (0 if ok else 2), line


def run_stability(cfg, out, dump_stages, rng):
    _check_reads(cfg, "stability")
    n, N = cfg["torus"]["n"], cfg["torus"]["N"]
    psi, phi, mu, metric = fixtures.stability_pair(
        n, N, cfg["stability"]["amplitude"])
    chk = stability_check(psi, phi, mu, cfg["certificate"]["tau"], metric,
                          budget=cfg["stability"]["budget"])
    write_csv(os.path.join(out, "stability.csv"),
              ["eps", "s", "t", "cap_lower", "mu_mass", "hbar", "slack"],
              [(r.eps, r.s, r.t, r.cap_lower_s, r.mu_mass_st, r.hbar_s, r.slack)
               for r in chk.ledger])
    write_grid(os.path.join(out, "phi.cmag"), phi)
    write_grid(os.path.join(out, "psi.cmag"), psi)
    line = _summary("stability", chk.passed, gamma=chk.gamma, lhs=chk.lhs,
                    rhs=chk.rhs, C=chk.C, growth_C=chk.growth_C)
    return (0 if chk.passed else 2), line


def _cert_rows(cert):
    return [(r.delta, r.b, r.gap, r.t0_min, r.kappa_hat, r.modulus,
             r.sandwich_ok, r.diff2_ok) for r in cert.rows]


_CERT_HEADER = ["delta", "b", "gap", "t0_min", "kappa_hat", "modulus",
                "sandwich_ok", "diff2_ok"]


def run_certificate(cfg, out, dump_stages, rng):
    _check_reads(cfg, "certificate")
    metric = _metric_for(cfg)
    _rate_ladder(cfg, metric.torus)
    check_level_formula(metric, cfg["certificate"]["tau"],
                        cfg["certificate"]["delta_list"])
    mu = _build_measure(cfg, metric)
    rep = solve_ma(mu, metric, tol=cfg["solver"]["tol"],
                   max_iter=cfg["solver"]["max_iter"])
    family = Mollifications(rep.phi)  # the chain's and the dumps'
    cert = hoelder_certificate(family, mu, cfg["certificate"]["tau"], metric,
                               cfg["certificate"]["delta_list"])
    if dump_stages:
        for d in cfg["certificate"]["delta_list"]:
            write_grid(os.path.join(out, f"mollified_{d:.6g}.cmag"), family(d))
    write_csv(os.path.join(out, "certificate.csv"), _CERT_HEADER,
              _cert_rows(cert))
    write_grid(os.path.join(out, "phi.cmag"), rep.phi)
    write_grid(os.path.join(out, "mu_density.cmag"), mu.density)
    ok = cert.passed and rep.converged
    line = _summary("certificate", ok, alpha=cert.alpha, alpha1=cert.alpha1,
                    gamma=cert.gamma, kappa=cert.kappa, C4=cert.C4, C6=cert.C6,
                    C7=cert.C7, measured_exponent=cert.measured_exponent,
                    krylov_unconverged=rep.krylov_unconverged)
    return (0 if ok else 2), line


def run_mixture(cfg, out, dump_stages, rng):
    _check_reads(cfg, "mixture")
    n, N = cfg["torus"]["n"], cfg["torus"]["N"]
    _rate_ladder(cfg, Torus(n, N))
    phi1, phi2, c1, c2, metric = fixtures.mixture_pair(n, N, rng)
    res = mixture_experiment(phi1, phi2, c1, c2, metric,
                             tol=cfg["solver"]["tol"],
                             tau=cfg["certificate"]["tau"],
                             delta_list=cfg["certificate"]["delta_list"],
                             max_iter=cfg["solver"]["max_iter"])
    write_csv(os.path.join(out, "mixture.csv"), _CERT_HEADER,
              _cert_rows(res.certificate))
    write_grid(os.path.join(out, "phi1.cmag"), phi1)
    write_grid(os.path.join(out, "phi2.cmag"), phi2)
    write_grid(os.path.join(out, "phi.cmag"), res.report.phi)
    ok = res.certificate.passed and res.report.converged
    line = _summary("mixture", ok, slack=res.domination_slack, c=res.report.c,
                    alpha=res.certificate.alpha, converged=res.report.converged,
                    krylov_unconverged=res.report.krylov_unconverged)
    return (0 if ok else 2), line


_COMMANDS = {
    "solve": run_solve,
    "capacity": run_capacity,
    "regularize": run_regularize,
    "stability": run_stability,
    "certificate": run_certificate,
    "mixture": run_mixture,
}


def run_sweep(cfg, out, dump_stages, rng):
    command = cfg["sweep"]["command"]
    if command not in _COMMANDS:
        raise ConfigError(f"sweep command must be one of {sorted(_COMMANDS)}")
    Ns = cfg["sweep"]["N"]
    taus = cfg["sweep"]["tau"]
    if Ns == () or taus == ():
        raise ConfigError("sweep grid is empty")
    _check_reads(cfg, command)  # once, before any cell
    # a tau axis over a command that ignores tau would write identical cells
    if taus is not None and command not in _SCHEMA["certificate"]["tau"][2]:
        raise ConfigError(f"{command} does not read [certificate] tau; "
                          "[sweep] tau is not supported")
    if Ns is None:
        Ns = (cfg["torus"]["N"],)
    if taus is None:
        taus = (cfg["certificate"]["tau"],)
    cells = [(N, tau) for N in Ns for tau in taus]
    seed = cfg["run"]["seed"]

    results = []
    for N, tau in cells:
        sub = {sec: dict(keys) for sec, keys in cfg.items()}
        sub["torus"]["N"] = N
        sub["certificate"]["tau"] = tau
        cell_out = os.path.join(out, f"cell_N{N}_tau{_fmt(tau)}")
        os.makedirs(cell_out, exist_ok=True)
        cell_rng = np.random.default_rng(seed)
        try:
            code, line = _COMMANDS[command](sub, cell_out, dump_stages, cell_rng)
        except TorusMAError as exc:
            code, line = 1, f"{command} ERROR {exc}"
        results.append((N, tau, code, line))
    write_csv(os.path.join(out, "sweep.csv"),
              ["N", "tau", "exit", "summary"], results)
    worst = max(code for _, _, code, _ in results)
    line = _summary("sweep", worst == 0, cells=len(results), worst=worst)
    return worst, line


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="torusma",
        description="Monge-Ampere experiments on discretized complex tori.",
        epilog=("CSV columns -- solve: iteration,residual,c; capacity: "
                "s,fraction,mu_mass,cap_lower; regularize: quantity,param,value; "
                "stability: eps,s,t,cap_lower,mu_mass,hbar,slack; "
                "certificate/mixture: delta,b,gap,t0_min,kappa_hat,modulus,"
                "sandwich_ok,diff2_ok; sweep: N,tau,exit,summary."))
    parser.add_argument("command", choices=sorted(_COMMANDS) + ["sweep"])
    parser.add_argument("--config", default=None, help="INI config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--dump-stages", action="store_true",
                        help="write intermediate CMAG artifacts")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config RNG seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
        out = args.out or cfg["run"]["out"]
        os.makedirs(out, exist_ok=True)
        rng = np.random.default_rng(cfg["run"]["seed"])
        if args.command == "sweep":
            code, line = run_sweep(cfg, out, args.dump_stages, rng)
        else:
            code, line = _COMMANDS[args.command](cfg, out, args.dump_stages, rng)
    except TorusMAError as exc:
        print(f"{args.command} ERROR {exc}", file=sys.stderr)
        return 1
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
