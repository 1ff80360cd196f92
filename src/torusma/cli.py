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
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import TorusMAError, ConfigError, PreconditionError
from .geometry import Torus, GridFunction, flat_metric, conformal_metric
from .pluripotential import ma_measure, sublevel
from .capacity import estimate_capacity, fit_volume_capacity, fit_htau
from .regularize import (kernel_eta, build_kernel, l1_rate, rate_deltas,
                         discrete_mass_convergence)
from .solver import solve_ma, continuation_solve
from .certify import stability_check, hoelder_certificate, mixture_experiment
from .gridio import write_grid
from . import fixtures

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# section -> {key: (parser, default)}
def _floats(text):
    return tuple(float(p) for p in text.split(",") if p.strip())


def _ints(text):
    return tuple(int(p) for p in text.split(",") if p.strip())


def _bool(text):
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text}")


_SCHEMA = {
    "torus": {"n": (int, 1), "N": (int, 64)},
    "metric": {"kind": (str, "flat"), "amplitude": (float, 0.0)},
    "fixture": {"name": (str, "manufactured_cos"), "amplitude": (float, 0.05),
                "s": (float, 0.5), "p": (float, 2.0)},
    "solver": {"tol": (float, 1e-10), "max_iter": (int, 60)},
    "certificate": {"tau": (float, 1.0),
                    "delta_list": (_floats, (1 / 8, 1 / 16, 1 / 32))},
    "stability": {"tau": (float, 1.0), "amplitude": (float, 1e-2),
                  "corrupt_mu": (_bool, False), "budget": (int, 10)},
    "run": {"seed": (int, 0), "out": (str, "out")},
    "sweep": {"command": (str, "solve"), "N": (_ints, None), "tau": (_floats, None)},
}


def load_config(path=None, overrides=()):
    """Parse the INI config into a flat {section: {key: value}} dict.

    Unknown sections or keys are rejected; every value must parse under the
    declared type.  `overrides` is an iterable of (section, key, value).
    """
    cfg = {sec: {k: d for k, (_, d) in keys.items()}
           for sec, keys in _SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keep key case ("N" vs "n")
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for sec in parser.sections():
            if sec not in _SCHEMA:
                raise ConfigError(f"unknown config section [{sec}]")
            for key, raw in parser.items(sec):
                if key not in _SCHEMA[sec]:
                    raise ConfigError(f"unknown key '{key}' in section [{sec}]")
                conv = _SCHEMA[sec][key][0]
                try:
                    cfg[sec][key] = conv(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for [{sec}] {key} = {raw!r}: {exc}") from exc
    for sec, key, value in overrides:
        cfg[sec][key] = value
    # Torus decides which sizes are valid; check every size the run will use
    sizes = [("torus", cfg["torus"]["N"])]
    sizes += [("sweep", N) for N in cfg["sweep"]["N"] or ()]
    for sec, N in sizes:
        try:
            Torus(cfg["torus"]["n"], N)
        except PreconditionError as exc:
            raise ConfigError(f"bad value in [{sec}]: {exc}") from exc
    if cfg["metric"]["kind"] not in ("flat", "conformal"):
        raise ConfigError("metric kind must be flat or conformal")
    if cfg["fixture"]["name"] not in fixtures.FIXTURE_NAMES:
        raise ConfigError(f"unknown fixture {cfg['fixture']['name']!r}; "
                          f"choose from {fixtures.FIXTURE_NAMES}")
    return cfg


def _rate_ladder(cfg, torus):
    """The certificate's delta ladder, checked before any expensive work."""
    try:
        return rate_deltas(cfg["certificate"]["delta_list"], torus)
    except PreconditionError as exc:
        raise ConfigError(f"bad [certificate] delta_list: {exc}") from exc


def _metric_for(cfg):
    torus = Torus(cfg["torus"]["n"], cfg["torus"]["N"])
    if cfg["metric"]["kind"] == "flat":
        return flat_metric(torus)
    return conformal_metric(torus, cfg["metric"]["amplitude"])


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
    """Fixture measure plus the exact potential when one exists."""
    name = cfg["fixture"]["name"]
    torus = metric.torus
    if name == "manufactured_cos":
        phi, mu, _ = fixtures.manufactured_cos(torus.n, torus.N,
                                               cfg["fixture"]["amplitude"])
        if not metric.is_flat:
            mu = ma_measure(phi, metric)
        return mu, phi
    if name == "singular_density":
        from .certify import lp_density_fixture
        mu = lp_density_fixture(cfg["fixture"]["p"], cfg["fixture"]["s"], metric)
        return mu, None
    raise ConfigError(f"fixture {name!r} does not define a measure datum")


def run_solve(cfg, out, dump_stages, rng):
    metric = _metric_for(cfg)
    if cfg["fixture"]["name"] == "holder_subsolution":
        sched, metric = fixtures.holder_subsolution(cfg["torus"]["N"])
        rep = continuation_solve(sched, metric, tol=cfg["solver"]["tol"],
                                 max_iter=cfg["solver"]["max_iter"])
        mu = None
    else:
        mu, _ = _build_measure(cfg, metric)
        rep = solve_ma(mu, metric, tol=cfg["solver"]["tol"],
                       max_iter=cfg["solver"]["max_iter"])
    write_grid(os.path.join(out, "phi.cmag"), rep.phi)
    if mu is not None:
        write_grid(os.path.join(out, "mu_density.cmag"), mu.density)
    if dump_stages:
        res = ma_measure(rep.phi, metric).density.values
        write_grid(os.path.join(out, "ma_density.cmag"),
                   GridFunction(metric.torus, res))
    write_csv(os.path.join(out, "solve.csv"),
              ["iteration", "residual", "c"],
              [(i, r, rep.c) for i, r in enumerate(rep.residual_history)])
    ok = rep.converged
    line = _summary("solve", ok, c=rep.c, residual=rep.residual_history[-1],
                    iterations=rep.iterations)
    return (0 if ok else 2), line


def run_capacity(cfg, out, dump_stages, rng):
    metric = _metric_for(cfg)
    mu, _ = _build_measure(cfg, metric)
    torus = metric.torus
    # eight nested sublevel sets of the cosine potential
    ref, _, _ = fixtures.manufactured_cos(torus.n, torus.N,
                                          cfg["fixture"]["amplitude"])
    zero = GridFunction.constant(torus, 0.0)
    osc = float(ref.values.max() - ref.values.min())
    rows = []
    prev = None
    monotone = True
    # smallest set first so each maximizer seeds the next (nested) ascent,
    # keeping the certified lower bounds monotone
    for k in reversed(range(8)):
        s = 1.9 * osc * 2.0 ** (-k)
        E = sublevel(ref, zero, 0.3, s)
        extra = () if prev is None else (prev.candidate,)
        cap = estimate_capacity(E, metric, budget=20, extra_candidates=extra)
        mass = mu.mass_on(E.mask, metric)
        if prev is not None and cap.lower < prev.lower - 1e-12:
            monotone = False
        prev = cap
        rows.append((s, E.fraction(), mass, cap.lower))
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
    metric = _metric_for(cfg)
    torus = metric.torus
    deltas = _rate_ladder(cfg, torus)
    n = torus.n
    eta = kernel_eta(n)
    kernel = build_kernel(torus, 0.125)
    N_list = [64, 128, 256] if n == 1 else [16, 32, 64]
    errs = discrete_mass_convergence(n, 0.125, N_list)
    phi, mu, _ = fixtures.manufactured_cos(torus.n, torus.N,
                                           cfg["fixture"]["amplitude"])
    rate, rate_C = l1_rate(phi, mu, deltas, metric)
    rows = [("eta", n, eta), ("continuum_mass", 0.125, kernel.continuum_mass)]
    rows += [("discrete_mass_err", N, e) for N, e in zip(N_list, errs)]
    rows += [("l1_rate", 0.0, rate), ("l1_rate_C", 0.0, rate_C)]
    write_csv(os.path.join(out, "regularize.csv"), ["quantity", "param", "value"],
              rows)
    if dump_stages:
        from .regularize import mollify
        for d in deltas:
            write_grid(os.path.join(out, f"mollified_{d:.6g}.cmag"),
                       mollify(phi, d))
    # the Riemann-sum mass error must decay at the grid rate; the exact
    # quadrature normalization check lives in the test-suite
    ok = all(b <= a for a, b in zip(errs, errs[1:])) and np.isfinite(rate)
    line = _summary("regularize", ok, eta=eta,
                    continuum_mass=kernel.continuum_mass, l1_rate=rate)
    return (0 if ok else 2), line


def run_stability(cfg, out, dump_stages, rng):
    n, N = cfg["torus"]["n"], cfg["torus"]["N"]
    psi, phi, mu, metric = fixtures.stability_pair(
        n, N, cfg["stability"]["amplitude"])
    if cfg["stability"]["corrupt_mu"]:
        mu = mu.scaled(1.01, metric)
    chk = stability_check(psi, phi, mu, cfg["stability"]["tau"], metric,
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
    metric = _metric_for(cfg)
    _rate_ladder(cfg, metric.torus)
    mu, phi_star = _build_measure(cfg, metric)
    rep = solve_ma(mu, metric, tol=cfg["solver"]["tol"],
                   max_iter=cfg["solver"]["max_iter"])
    cert = hoelder_certificate(rep.phi, mu, cfg["certificate"]["tau"], metric,
                               cfg["certificate"]["delta_list"])
    write_csv(os.path.join(out, "certificate.csv"), _CERT_HEADER,
              _cert_rows(cert))
    write_grid(os.path.join(out, "phi.cmag"), rep.phi)
    write_grid(os.path.join(out, "mu_density.cmag"), mu.density)
    if dump_stages:
        from .regularize import mollify
        for d in cfg["certificate"]["delta_list"]:
            write_grid(os.path.join(out, f"mollified_{d:.6g}.cmag"),
                       mollify(rep.phi, d))
    ok = cert.passed and rep.converged
    line = _summary("certificate", ok, alpha=cert.alpha, alpha1=cert.alpha1,
                    gamma=cert.gamma, kappa=cert.kappa, C4=cert.C4, C6=cert.C6,
                    C7=cert.C7, measured_exponent=cert.measured_exponent)
    return (0 if ok else 2), line


def run_mixture(cfg, out, dump_stages, rng):
    n, N = cfg["torus"]["n"], cfg["torus"]["N"]
    _rate_ladder(cfg, Torus(n, N))
    phi1, phi2, c1, c2, metric = fixtures.mixture_pair(n, N, rng)
    res = mixture_experiment(phi1, phi2, c1, c2, metric,
                             tol=cfg["solver"]["tol"],
                             delta_list=cfg["certificate"]["delta_list"],
                             max_iter=cfg["solver"]["max_iter"])
    write_csv(os.path.join(out, "mixture.csv"), _CERT_HEADER,
              _cert_rows(res.certificate))
    write_grid(os.path.join(out, "phi1.cmag"), phi1)
    write_grid(os.path.join(out, "phi2.cmag"), phi2)
    write_grid(os.path.join(out, "phi.cmag"), res.report.phi)
    ok = (res.domination_slack >= -1e-10 and res.certificate.passed
          and res.report.converged)
    line = _summary("mixture", ok, slack=res.domination_slack, c=res.report.c,
                    alpha=res.certificate.alpha)
    return (0 if ok else 2), line


_COMMANDS = {
    "solve": run_solve,
    "capacity": run_capacity,
    "regularize": run_regularize,
    "stability": run_stability,
    "certificate": run_certificate,
    "mixture": run_mixture,
}


def run_sweep(cfg, out, dump_stages, rng, threads=1):
    command = cfg["sweep"]["command"]
    if command not in _COMMANDS:
        raise ConfigError(f"sweep command must be one of {sorted(_COMMANDS)}")
    Ns = cfg["sweep"]["N"]
    taus = cfg["sweep"]["tau"]
    if Ns == () or taus == ():
        raise ConfigError("sweep grid is empty")
    if Ns is None:
        Ns = (cfg["torus"]["N"],)
    if taus is None:
        taus = (cfg["certificate"]["tau"],)
    cells = [(N, tau) for N in Ns for tau in taus]
    seed = cfg["run"]["seed"]

    def one(cell):
        N, tau = cell
        sub = {sec: dict(keys) for sec, keys in cfg.items()}
        sub["torus"]["N"] = N
        sub["certificate"]["tau"] = tau
        sub["stability"]["tau"] = tau
        cell_out = os.path.join(out, f"cell_N{N}_tau{_fmt(tau)}")
        os.makedirs(cell_out, exist_ok=True)
        cell_rng = np.random.default_rng(seed)
        try:
            code, line = _COMMANDS[command](sub, cell_out, dump_stages, cell_rng)
        except TorusMAError as exc:
            code, line = 1, f"{command} ERROR {exc}"
        return N, tau, code, line

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        results = list(pool.map(one, cells))
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
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for sweep cells")
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
            code, line = run_sweep(cfg, out, args.dump_stages, rng,
                                   threads=args.threads)
        else:
            code, line = _COMMANDS[args.command](cfg, out, args.dump_stages, rng)
    except TorusMAError as exc:
        print(f"{args.command} ERROR {exc}", file=sys.stderr)
        return 1
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
