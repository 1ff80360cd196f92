"""One benchmark process: import torusma from the checkout, run pipeline calls
in-process through `torusma.cli.run_*`, check every call's outputs, and print
one JSON record as the last line of standard output.

Started by `bench/run.py` as `python3 bench/worker.py '<json spec>'`; the spec
holds the mode, the workload, the input panel, the window length, the work
directory and the monotonic time at which the parent launched this process.

Modes:
  probe  import torusma and load the config, nothing else (set-up time);
  warm   plus a cold call on panel[0], then warm calls cycling over the
         panel for `seconds`;
  trace  plus a cold call on panel[0], then pairs of (untraced, traced)
         calls on panel[0] for `seconds`.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SOLVE_SUP_TOL = 1e-6       # ||phi - phi*||_inf, the n=2 bound of acceptance criterion 1
CAPACITY_MONO_TOL = 1e-12  # slack of the nested-capacity monotonicity in run_capacity


def _config(cli, workload, amplitude):
    w = WORKLOADS[workload]
    return cli.load_config(None, overrides=[
        ("torus", "n", w.n), ("torus", "N", w.N),
        ("fixture", "amplitude", float(amplitude))])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(command, amplitude, out, n, N):
    """Refactor-proof invariants, read back from the CSVs and CMAG grids.

    Returns a list of violated invariants (empty when the call is correct).
    """
    import numpy as np
    from torusma import fixtures
    from torusma.gridio import read_grid

    problems = []
    if command in ("solve", "certificate"):
        phi = read_grid(out / "phi.cmag")
        if (phi.torus.n, phi.torus.N) != (n, N):
            problems.append(f"phi.cmag has n={phi.torus.n} N={phi.torus.N}")
        phi_star, _, _ = fixtures.manufactured_cos(n, N, amplitude)
        err = float(np.abs(phi.values - phi_star.values).max())
        if not err <= SOLVE_SUP_TOL:
            problems.append(f"||phi - phi*||_inf = {err:.3e} > {SOLVE_SUP_TOL}")
    if command == "certificate":
        rows = _read_csv(out / "certificate.csv")
        if not rows:
            problems.append("certificate.csv has no rows")
        for r in rows:
            if r["sandwich_ok"] != "true" or r["diff2_ok"] != "true":
                problems.append(f"certificate row delta={r['delta']} failed")
    if command == "capacity":
        rows = sorted(_read_csv(out / "capacity.csv"), key=lambda r: float(r["s"]))
        caps = [float(r["cap_lower"]) for r in rows]
        if not caps:
            problems.append("capacity.csv has no rows")
        if any(not 0.0 <= c <= 1.0 for c in caps):
            problems.append(f"cap_lower outside [0, 1]: {caps}")
        if any(b < a - CAPACITY_MONO_TOL for a, b in zip(caps, caps[1:])):
            problems.append(f"cap_lower decreases in s: {caps}")
    return problems


def _csv_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


class Runner:
    def __init__(self, cli, workload, panel, workdir):
        self.cli = cli
        self.workload = workload
        self.panel = panel
        self.out = Path(workdir) / "out"
        self.pipeline = getattr(cli, "run_" + WORKLOADS[workload].command)
        self.calls = []

    def call(self, index, tracer=None):
        """One pipeline call on panel[index]; timed, then checked untimed."""
        import numpy as np

        amplitude = self.panel[index]
        w = WORKLOADS[self.workload]
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        record = {"input": index, "seconds": None}
        try:
            cfg = _config(self.cli, self.workload, amplitude)
            rng = np.random.default_rng(cfg["run"]["seed"])
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code, line = self.pipeline(cfg, str(self.out), False, rng)
                else:
                    with tracer:
                        span = tracer.open("cli.pipeline")
                        try:
                            code, line = self.pipeline(cfg, str(self.out), False, rng)
                        finally:
                            tracer.close(span)
            finally:
                record["seconds"] = time.perf_counter() - t0
            problems = [] if code == 0 else [f"exit code {code}: {line}"]
            problems += check_outputs(w.command, amplitude, self.out, w.n, w.N)
            record["csv"] = _csv_digests(self.out)
            if tracer is not None:
                record["csv_rows"] = {p.name: len(_read_csv(p))
                                      for p in self.out.glob("*.csv")}
        except Exception:  # a failed call is counted, the run goes on
            problems = [traceback.format_exc(limit=3)]
        record["problems"] = problems
        self.calls.append(record)
        return record


def layer_metrics(summary, csv_rows, torus_points):
    """Per-layer metrics of one traced call, from the tracer summary."""
    def agg(name):
        return summary.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    m = {}
    fft = agg("geometry.fft")
    m["geometry.fft_transforms"] = (fft["calls"], "count")
    m["geometry.fft_s"] = (fft["incl_s"], "s")
    m["geometry.fft_bytes_computed"] = (16 * fft.get("points", 0), "bytes")
    m["geometry.field_bytes"] = (16 * torus_points, "bytes")
    timed = ("geometry.complex_hessian", "geometry.inverse_quarter_laplacian",
             "pluripotential.ma_measure", "capacity.estimate_capacity",
             "regularize.psh_repair", "regularize.mollify",
             "regularize.kiselman_legendre", "solver.solve_ma", "solver.krylov",
             "certify.hoelder_certificate")
    for name in timed:
        a = agg(name)
        m[f"{name}.calls"] = (a["calls"], "count")
        m[f"{name}.incl_s"] = (a["incl_s"], "s")
        m[f"{name}.self_s"] = (a["self_s"], "s")
    m["pluripotential.psh_defect.calls"] = (agg("pluripotential.psh_defect")["calls"], "count")
    m["regularize.build_kernel.calls"] = (agg("regularize.build_kernel")["calls"], "count")
    est = agg("capacity.estimate_capacity")
    m["capacity.candidates_evaluated"] = (est.get("evaluated", 0), "count")
    kept = csv_rows.get("capacity.csv", 0)
    m["capacity.useful_ratio"] = (kept / est["calls"] if est["calls"] else 0.0, "ratio")
    m["solver.newton_iterations"] = (agg("solver.solve_ma").get("iterations", 0), "count")
    krylov = agg("solver.krylov")
    m["solver.matvecs"] = (krylov.get("matvecs", 0), "count")
    m["solver.krylov_unconverged"] = (krylov.get("unconverged", 0), "count")
    grid = agg("gridio.write_grid")
    m["gridio.write_grid.calls"] = (grid["calls"], "count")
    m["gridio.write_grid.bytes"] = (grid.get("bytes", 0), "bytes")
    m["gridio.write_grid.s"] = (grid["incl_s"], "s")
    pipe = agg("cli.pipeline")
    m["cli.pipeline.incl_s"] = (pipe["incl_s"], "s")
    m["cli.pipeline.self_s"] = (pipe["self_s"], "s")
    return m


def main(spec):
    sys.path.insert(0, str(SRC))
    import torusma
    from torusma import cli
    cli.load_config()
    setup_s = time.monotonic() - spec["launched"]
    if Path(torusma.__file__).resolve().parent != SRC / "torusma":
        raise RuntimeError(f"imported torusma from {torusma.__file__}, not {SRC}")

    result = {"setup_s": setup_s}
    if spec["mode"] != "probe":
        runner = Runner(cli, spec["workload"], spec["panel"], spec["workdir"])
        runner.call(0)  # the first call of a fresh process: the cold run
        # stop early enough to report before the parent's run deadline
        deadline = spec["deadline"] - 5.0
        if spec["mode"] == "warm":
            run_warm(runner, spec["seconds"], deadline, spec["start"])
        elif spec["mode"] == "trace":
            result["layers"] = run_traced(runner, spec["seconds"], deadline)
        result["calls"] = runner.calls
        shutil.rmtree(runner.out, ignore_errors=True)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def run_warm(runner, window, deadline, first):
    """Warm calls cycling over the panel from panel[first], started while the
    window and the deadline leave room for one more call of median length;
    at least one."""
    start = time.perf_counter()
    k = 0
    while True:
        med = statistics.median(c["seconds"] for c in runner.calls
                                if c["seconds"] is not None)
        if k >= 1 and (time.perf_counter() - start + med > window
                       or time.monotonic() + med > deadline):
            break
        runner.call((first + k) % len(runner.panel))
        k += 1


def run_traced(runner, window, deadline):
    """Pairs of (untraced, traced) calls on panel[0]; per-layer metrics are
    medians over the traced calls, the overhead is the difference of the
    median traced and untraced call times."""
    from tracer import Tracer

    w = WORKLOADS[runner.workload]
    torus_points = w.N ** (2 * w.n)
    start = time.perf_counter()
    plain, traced, per_call = [], [], []
    while True:
        if traced:
            pair = 2 * statistics.median(plain + traced)
            if (time.perf_counter() - start + pair > window
                    or time.monotonic() + pair > deadline):
                break
        rec = runner.call(0)
        tracer = Tracer()
        rec_traced = runner.call(0, tracer)
        if rec["problems"] or rec_traced["problems"]:
            return {}
        plain.append(rec["seconds"])
        traced.append(rec_traced["seconds"])
        per_call.append(layer_metrics(tracer.summary(), rec_traced["csv_rows"],
                                      torus_points))
    layers = {name: (statistics.median(m[name][0] for m in per_call), unit)
              for name, (_, unit) in per_call[0].items()}
    layers["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    layers["trace.traced_calls"] = (len(traced), "count")
    return layers


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
