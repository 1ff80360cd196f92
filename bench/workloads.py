"""The benchmark's workloads and the seeded input panels they run on.

A panel is the list of fixture amplitudes (manufactured_cos) one benchmark
run cycles over.  panel[0] is the reference amplitude 0.05, at the centre of
[0.03, 0.07]; the rest come in mirrored pairs 0.05 -/+ d, one pair per equal
stratum of d in [0, 0.02].  Every seed thus covers the whole range, and as
the work grows with the amplitude (4 to 6 Newton steps for solve-n2), the
median call stays at the reference input whatever the seed.
"""

import random
from collections import namedtuple

Workload = namedtuple("Workload", "command n N panel_size why")

WORKLOADS = {
    "solve-n2": Workload(
        "solve", 2, 16, 5,
        "the only nonlinear solve (4-6 Newton steps): solver and geometry do "
        "the work, capacity and regularize none; 1 MiB fields fit in L2"),
    "capacity-n1": Workload(
        "capacity", 1, 128, 3,
        "capacity ascent and psh_repair do almost all the work, the solver "
        "none; 24 capacity estimates of which 8 reach the CSV"),
    # `mixture` would exercise the same certificate layers, but at N=1024
    # about one random seed in ten fails at this commit (see README.md), and
    # a workload must not fail.
    "certificate-n1": Workload(
        "certificate", 1, 1024, 3,
        "Hoelder certificate time in mollify and kiselman_legendre, one linear "
        "Newton step over 1M points; 16 MiB fields exceed L2"),
}

REFERENCE_AMPLITUDE = 0.05  # the centre of AMPLITUDE_RANGE
AMPLITUDE_RANGE = (0.03, 0.07)


def make_panel(name, seed):
    """Inputs of one run of workload `name`; the same seed gives the same panel."""
    rng = random.Random(seed)
    half = (AMPLITUDE_RANGE[1] - AMPLITUDE_RANGE[0]) / 2
    pairs = (WORKLOADS[name].panel_size - 1) // 2
    panel = [REFERENCE_AMPLITUDE]
    for k in range(pairs):
        d = half * (k + rng.random()) / pairs
        panel += [REFERENCE_AMPLITUDE - d, REFERENCE_AMPLITUDE + d]
    return panel
