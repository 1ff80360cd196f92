"""torusma: a numerical laboratory for complex Monge-Ampere equations on
discretized flat complex tori.

Spectral discretization of the Monge-Ampere operator, Bedford-Taylor capacity
estimation, mollification and Kiselman-Legendre regularization, a damped
Newton solver with continuation, and sup-vs-L1 stability / Hoelder-modulus
certificates, plus a CSV-emitting experiment runner.
"""

from .errors import (
    TorusMAError,
    NotOmegaPshError,
    DominationError,
    DivergenceError,
    PreconditionError,
    ConfigError,
)
from .geometry import (
    Torus,
    GridFunction,
    HermitianForm,
    HermitianMetric,
    flat_metric,
    conformal_metric,
    complex_hessian,
    omega_form,
    integrate,
)
from .pluripotential import (
    MeasureField,
    psh_defect,
    psh_tolerance,
    is_omega_psh,
    ma_measure,
    sublevel,
)
from .capacity import (
    CapacityEstimate,
    DecayFit,
    estimate_capacity,
    fit_volume_capacity,
    fit_htau,
)
from .regularize import (
    MollifierKernel,
    KLTransform,
    Mollifications,
    kernel_eta,
    kernel_second_moment,
    build_kernel,
    mollify,
    psh_repair,
    kiselman_legendre,
    l1_rate,
    discrete_mass_convergence,
)
from .solver import (
    SolveReport,
    ContinuationSchedule,
    solve_ma,
    decompose_subsolution,
    continuation_solve,
)
from .certify import (
    StabilityCheck,
    HoelderCertificate,
    MixtureResult,
    stability_gamma,
    stability_check,
    check_solution,
    hoelder_certificate,
    mixture_measure,
    mixture_experiment,
)
from .fixtures import lp_density_fixture
from .gridio import read_grid, write_grid
from . import fixtures

__version__ = "0.1.0"
