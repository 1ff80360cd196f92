"""torusma benchmark: times the CLI pipelines end to end, checks their outputs,
and, with --trace 1, reports per-layer counts and times from a traced run.

    python3 bench/run.py --workload solve-n2 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
pipeline calls run in worker processes (bench/worker.py) that this script
starts fresh; see bench/README.md for the workloads and metrics.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_panel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0      # a run must end within 180 s
SETUP_PROBES = 3        # import-only processes, on top of the warm ones
# The window is split over fresh processes, each starting with a cold call,
# so the cold samples lie apart in time like the warm ones.
WARM_PROCESSES = 2
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def spawn(spec, deadline):
    """Run one worker process to completion; returns its JSON record."""
    env = dict(os.environ, **THREAD_ENV)
    spec = dict(spec, launched=time.monotonic(), deadline=deadline)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['mode']} worker passed the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{spec['mode']} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def check_digests(calls):
    """Every call's CSVs must be byte-identical to the first call on its input."""
    first = {}
    for c in calls:
        if "csv" not in c:
            continue
        ref = first.setdefault(c["input"], c["csv"])
        if c["csv"] != ref:
            c["problems"].append(f"CSV bytes differ from the first run on input {c['input']}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, panel, seconds, workdir, deadline):
    base = {"workload": workload, "panel": panel, "seconds": seconds,
            "workdir": str(workdir)}
    records = [spawn(dict(base, mode="probe"), deadline) for _ in range(SETUP_PROBES)]
    warm = []
    for _ in range(WARM_PROCESSES):
        # each process continues the cycle over the panel where the last one stopped
        start = sum(len(r["calls"]) - 1 for r in warm)
        warm.append(spawn(dict(base, mode="warm", seconds=seconds / WARM_PROCESSES,
                               start=start), deadline))
    records += warm
    calls = [c for r in warm for c in r["calls"]]
    cold = [r["calls"][0]["seconds"] for r in warm if r["calls"][0]["seconds"] is not None]
    runs = [c["seconds"] for r in warm for c in r["calls"][1:] if c["seconds"] is not None]
    if not cold or not runs:
        raise BenchError(f"no timed call finished: {calls[0]['problems']}")
    metrics = {
        "run_s.p50": _metric(statistics.median(runs), "s"),
        "cold_run_s": _metric(statistics.median(cold), "s"),
        "setup_s": _metric(statistics.median(r["setup_s"] for r in records), "s"),
        "peak_rss_mb": _metric(max(r["peak_rss_mib"] for r in warm) * 1024 * 1024 / 1e6,
                               "MB"),
    }
    notes = [f"run_s.p50: {len(runs)} warm runs: "
             + " ".join(f"{t:.3f}" for t in runs),
             f"cold_run_s: {len(cold)} fresh processes: "
             + " ".join(f"{t:.3f}" for t in cold),
             f"setup_s: {len(records)} fresh interpreters"]
    if len(runs) >= 100:
        p90 = statistics.quantiles(runs, n=10)[8]
        notes.append(f"run_s.p90 = {p90:.6g} s ({len(runs)} warm runs)")
    else:
        notes.append(f"run_s.p90: not reported, {len(runs)} warm runs leave "
                     f"fewer than 10 beyond it")
    return calls, metrics, notes


def measure_traced(workload, panel, seconds, workdir, deadline):
    rec = spawn({"workload": workload, "panel": panel, "seconds": seconds,
                 "workdir": str(workdir), "mode": "trace"}, deadline)
    metrics = {name: _metric(value, unit) for name, (value, unit) in rec["layers"].items()}
    return rec["calls"], metrics, [f"per-layer values: medians over "
                                   f"{rec['layers'].get('trace.traced_calls', (0,))[0]} "
                                   f"traced calls on panel[0]"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torusma" / "__init__.py").is_file():
        print(f"no torusma package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    panel = make_panel(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = measure_traced if args.trace else measure
        calls, metrics, notes = run(args.workload, panel, args.seconds, workdir,
                                    deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    check_digests(calls)
    failed = [c for c in calls if c["problems"]]
    print(f"{args.workload} seed={args.seed} panel={panel}")
    for c in failed:
        print(f"FAILED call on panel[{c['input']}]: {c['problems']}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {len(failed) / len(calls):14.6g} "
          f"({len(failed)}/{len(calls)} runs)")
    for note in notes:
        print(note)
    print(json.dumps({"correct": not failed, "attempted": len(calls),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
