"""Random-walk approximation of Markovian BSDEs on a recombining lattice,
with the Skorohod embedding that couples the walk to a Brownian path and a
Monte Carlo harness measuring empirical L2 convergence rates."""

from .benchmarks import (
    BenchmarkCase,
    ExactSolution,
    make_case,
    verify_terminal,
)
from .exit_time import (
    ExitTimeCdf,
    cdf_laplace_inversion,
    cdf_series,
    laplace_transform,
    sample_sigma,
    tabulate,
)
from .experiment import (
    ErrorRow,
    ErrorSeries,
    ExperimentConfig,
    RegressionResult,
    bridge_sample_batch,
    emit_csv,
    parse_csv,
    regress_loglog,
    run_mc,
)
from .solver import (
    BsdeProblem,
    SolutionLattice,
    evaluate_walks,
    sign_matrix,
    solve_explicit,
    solve_implicit,
    z_by_representation,
)

__version__ = "0.1.0"
