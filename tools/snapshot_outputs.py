#!/usr/bin/env python3
"""Run a fixed matrix of torusma configurations and keep everything they write.

    python3 tools/snapshot_outputs.py OUTDIR

Each configuration runs in-process through `torusma.cli.main --dump-stages`
and gets its own directory OUTDIR/<name>/ holding the config it ran
(config.ini), the CSVs and CMAG grids the command wrote (out/), and
summary.txt with the exit code, the summary line and any error line.
The package is imported from the src/ of the checkout this script lives in,
so snapshots of two checkouts compare with

    diff -r OUTDIR_A OUTDIR_B

The matrix: every command at n=1 N=64 and at n=2 N=16 on the flat metric;
the same on the conformal metric (amplitude 0.2) for the commands that accept
it; every command with the fixtures singular_density and holder_subsolution
at n=1 N=64; mixture at tau = 0.5; certificate at n=1 N=256, where the
Kiselman-Legendre t-grids of the rows overlap; and a 2x2 stability sweep
(N = 32, 64 x tau = 0.5, 1.0). Progress and wall times go to the terminal
only, so the snapshot itself is deterministic.
"""

import argparse
import contextlib
import io
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from torusma.cli import main as cli_main  # noqa: E402

COMMANDS = ("solve", "capacity", "regularize", "stability", "certificate",
            "mixture")
# stability and mixture build their own flat-metric fixtures
CONFORMAL_COMMANDS = ("solve", "capacity", "regularize", "certificate")
SIZES = ((1, 64), (2, 16))


def matrix():
    """(name, command, {section: {key: value}}) for every configuration."""
    runs = []
    for n, N in SIZES:
        torus = {"torus": {"n": n, "N": N}}
        for command in COMMANDS:
            runs.append((f"{command}-n{n}-N{N}-flat", command, torus))
        for command in CONFORMAL_COMMANDS:
            runs.append((f"{command}-n{n}-N{N}-conformal", command,
                         {**torus, "metric": {"kind": "conformal",
                                              "amplitude": 0.2}}))
    for fixture in ("singular_density", "holder_subsolution"):
        for command in COMMANDS:
            runs.append((f"{command}-n1-N64-{fixture}", command,
                         {"fixture": {"name": fixture}}))
    runs.append(("mixture-n1-N64-tau0.5", "mixture",
                 {"certificate": {"tau": 0.5}}))
    runs.append(("certificate-n1-N256-flat", "certificate",
                 {"torus": {"n": 1, "N": 256}}))
    runs.append(("sweep-stability", "sweep",
                 {"sweep": {"command": "stability", "N": "32,64",
                            "tau": "0.5,1.0"}}))
    return runs


def ini_text(sections):
    return "".join(
        f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for sec, keys in sections.items())


def snapshot(name, command, sections, outdir):
    """Run one configuration into outdir/name; returns its exit code."""
    run_dir = os.path.join(outdir, name)
    os.makedirs(run_dir, exist_ok=True)
    config = os.path.join(run_dir, "config.ini")
    with open(config, "w") as fh:
        fh.write(ini_text(sections))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([command, "--config", config, "--dump-stages",
                         "--out", os.path.join(run_dir, "out")])
    with open(os.path.join(run_dir, "summary.txt"), "w") as fh:
        fh.write(f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory for the snapshot")
    args = parser.parse_args(argv)
    for name, command, sections in matrix():
        start = time.perf_counter()
        code = snapshot(name, command, sections, args.outdir)
        print(f"{name}: exit {code} ({time.perf_counter() - start:.1f} s)",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
