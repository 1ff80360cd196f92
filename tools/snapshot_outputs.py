#!/usr/bin/env python3
"""Run a fixed matrix of torusma configurations and keep everything they write.

    python3 tools/snapshot_outputs.py OUTDIR
    python3 tools/snapshot_outputs.py --compare OUTDIR_A OUTDIR_B

Each configuration runs in-process through `torusma.cli.main --dump-stages`
and gets its own directory OUTDIR/<name>/ holding the config it ran
(config.ini), the CSVs and CMAG grids the command wrote (out/), and
summary.txt with the exit code, the summary line and any error line.
The package is imported from the src/ of the checkout this script lives in,
so snapshots of two checkouts compare with `diff -r OUTDIR_A OUTDIR_B`, or
with `--compare`, which prints per configuration whether the exit codes
match, "identical" when every file is byte-equal, and otherwise the largest
relative difference of each differing numeric CSV column, CMAG grid and
summary value: max |a - b| over the larger sup norm of the two, over the
rows both sides have. A summary value that is also a column of a CSV the
run wrote (solve's residual and c) is taken relative to that column's sup,
as the column itself is, so a round-off residual does not read as a large
move. It exits 1 when an exit code differs or a file exists on one side
only.

The matrix: every command at n=1 N=64 and at n=2 N=16 on the flat metric;
the same on the conformal metric (amplitude 0.2) for the commands that accept
it; every command with the fixtures singular_density and holder_subsolution
at n=1 N=64; solve with singular_density at n=2 N=16 on the flat and on
the conformal metric, the n=2 solves whose datum is not band-limited;
the same flat solve with s = 1.9, p = 1.05, whose inner CG solves do not all
converge (the summary's krylov_unconverged);
mixture at tau = 0.5; certificate at n=1 N=256, where the Kiselman-Legendre
t-grids of the rows overlap, on the flat metric and on the conformal one
with deltas 1/16, 1/32, 1/64, the one certificate where A > 0 and the
transform's infimum drops below its t = delta value; certificate at n=1
N=1024 on the flat metric with amplitude 0.05 and the default deltas, the
bench's certificate-n1 input; capacity at n=1
N=128, the bench's capacity-n1 input and the one configuration where
psh_repair returns a g its rounds repaired, not contracted; regularize
with deltas 1/4, 1/8, the one ladder that rate_deltas extends downward;
and a 2x2 stability sweep (N = 32, 64 x tau = 0.5, 1.0).
Progress and wall times go to the terminal only, so the snapshot itself is
deterministic.
"""

import argparse
import contextlib
import csv
import glob
import io
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from torusma.cli import main as cli_main  # noqa: E402
from torusma.gridio import read_grid  # noqa: E402

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
                         {**torus, "metric": {"amplitude": 0.2}}))
    for fixture in ("singular_density", "holder_subsolution"):
        for command in COMMANDS:
            runs.append((f"{command}-n1-N64-{fixture}", command,
                         {"fixture": {"name": fixture}}))
    runs.append(("solve-n2-N16-singular_density", "solve",
                 {"torus": {"n": 2, "N": 16},
                  "fixture": {"name": "singular_density"}}))
    runs.append(("solve-n2-N16-conformal-singular_density", "solve",
                 {"torus": {"n": 2, "N": 16},
                  "metric": {"amplitude": 0.2},
                  "fixture": {"name": "singular_density"}}))
    runs.append(("solve-n2-N16-rough", "solve",
                 {"torus": {"n": 2, "N": 16},
                  "fixture": {"name": "singular_density", "s": 1.9,
                              "p": 1.05}}))
    runs.append(("mixture-n1-N64-tau0.5", "mixture",
                 {"certificate": {"tau": 0.5}}))
    runs.append(("certificate-n1-N256-flat", "certificate",
                 {"torus": {"n": 1, "N": 256}}))
    runs.append(("certificate-n1-N256-conformal", "certificate",
                 {"torus": {"n": 1, "N": 256},
                  "metric": {"amplitude": 0.2},
                  "certificate": {"delta_list": "0.0625,0.03125,0.015625"}}))
    runs.append(("certificate-n1-N1024-flat", "certificate",
                 {"torus": {"n": 1, "N": 1024},
                  "fixture": {"amplitude": 0.05}}))
    runs.append(("capacity-n1-N128-flat", "capacity",
                 {"torus": {"n": 1, "N": 128}}))
    runs.append(("regularize-n1-N64-downward", "regularize",
                 {"certificate": {"delta_list": "0.25,0.125"}}))
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


def rel_diff(a, b, scale=0.0):
    """max |a - b| over the larger of scale and the sup norms of a and b
    (0 when all vanish)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(scale, np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    diff = np.abs(a - b).max(initial=0.0)
    return float(diff / scale) if scale > 0.0 else float(diff)


def numbers(values):
    """The values as floats, or None when one is not a number."""
    try:
        return [float(v) for v in values]
    except ValueError:
        return None


def compare_columns(names, cols_a, cols_b, scales):
    """'name rel' for each numeric column that differs, 'name differs' for
    each other column that does; `scales` holds a floor of the sup norm by
    name."""
    notes = []
    for name, a, b in zip(names, cols_a, cols_b):
        m = min(len(a), len(b))
        fa, fb = numbers(a[:m]), numbers(b[:m])
        if fa is None or fb is None:
            if a[:m] != b[:m]:
                notes.append(f"{name} differs")
        elif fa != fb:
            notes.append(f"{name} {rel_diff(fa, fb, scales.get(name, 0.0)):.2e}")
    return notes


def read_csv_columns(path):
    """(header, one list of cells per column)."""
    with open(path, newline="") as fh:
        head, *rows = csv.reader(fh)
    return head, [[row[i] for row in rows] for i in range(len(head))]


def compare_csv(path_a, path_b):
    (head, cols_a), (head_b, cols_b) = read_csv_columns(path_a), read_csv_columns(path_b)
    if head != head_b:
        return ["header differs"]
    rows_a, rows_b = len(cols_a[0]), len(cols_b[0])
    notes = [] if rows_a == rows_b else [f"rows {rows_a} -> {rows_b}"]
    return notes + compare_columns(head, cols_a, cols_b, {})


def column_sups(run_dir):
    """{name: sup |value|} of the numeric columns of the CSVs in run_dir/out."""
    sups = {}
    for path in sorted(glob.glob(os.path.join(run_dir, "out", "*.csv"))):
        head, cols = read_csv_columns(path)
        for key, col in zip(head, cols):
            values = numbers(col)
            if values:
                sups[key] = max(sups.get(key, 0.0), max(map(abs, values)))
    return sups


def summary_values(path):
    """(exit code, {key: value} of the summary line's key=value tokens)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    values = dict(tok.split("=", 1) for line in lines[1:]
                  for tok in line.split() if "=" in tok)
    return lines[0], values


def compare_file(rel, path_a, path_b):
    """A note on how the two versions of one output file differ."""
    if rel.endswith(".csv"):
        notes = compare_csv(path_a, path_b)
    elif rel.endswith(".cmag"):
        ga, gb = read_grid(path_a), read_grid(path_b)
        if ga.torus != gb.torus:
            notes = ["lattice differs"]
        else:
            notes = [f"{rel_diff(ga.values, gb.values):.2e}"]
    elif rel == "summary.txt":
        (_, va), (_, vb) = summary_values(path_a), summary_values(path_b)
        keys = sorted(set(va) | set(vb))
        sups_a = column_sups(os.path.dirname(path_a))
        sups_b = column_sups(os.path.dirname(path_b))
        scales = {k: max(sups_a.get(k, 0.0), sups_b.get(k, 0.0)) for k in keys}
        notes = compare_columns(keys, [[va.get(k, "")] for k in keys],
                                [[vb.get(k, "")] for k in keys], scales)
    else:
        notes = []
    return ", ".join(notes) or "differs"


def files_under(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, fs in os.walk(root) for f in fs)


def compare(dir_a, dir_b):
    """Print the comparison of two snapshots; returns the exit status."""
    status = 0
    for name in sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b))):
        run_a, run_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not (os.path.isdir(run_a) and os.path.isdir(run_b)):
            print(f"{name}: only in {dir_a if os.path.isdir(run_a) else dir_b}")
            status = 1
            continue
        exit_a = summary_values(os.path.join(run_a, "summary.txt"))[0]
        exit_b = summary_values(os.path.join(run_b, "summary.txt"))[0]
        match = "=" if exit_a == exit_b else "!="
        status |= exit_a != exit_b
        notes = []
        for rel in sorted(set(files_under(run_a)) | set(files_under(run_b))):
            path_a, path_b = os.path.join(run_a, rel), os.path.join(run_b, rel)
            if not (os.path.exists(path_a) and os.path.exists(path_b)):
                side = dir_a if os.path.exists(path_a) else dir_b
                notes.append(f"  {rel}: only in {side}")
                status = 1
                continue
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                if fa.read() == fb.read():
                    continue
            notes.append(f"  {rel}: {compare_file(rel, path_a, path_b)}")
        print(f"{name}: {exit_a} {match} {exit_b}"
              + ("" if notes else ", identical"))
        for note in notes:
            print(note)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("outdir", nargs="?", help="directory for the snapshot")
    group.add_argument("--compare", nargs=2, metavar=("OUTDIR_A", "OUTDIR_B"),
                       help="compare two snapshots instead of running one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for name, command, sections in matrix():
        start = time.perf_counter()
        code = snapshot(name, command, sections, args.outdir)
        print(f"{name}: exit {code} ({time.perf_counter() - start:.1f} s)",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
