"""Spectral analysis and search for energy-minimising particle configurations on toric grids."""

from .analysis import (
    FactorCurve,
    bernstein_sweep,
    dirichlet_sin_sum,
    factor_closed_form,
    factor_curve,
    hypercube_gap,
    kappa,
    kappa_prime,
    lambda_1d,
)
from .configs import (
    BudgetExceededError,
    Configuration,
    CosetCheck,
    EnergyReport,
    SearchHit,
    brute_force,
    checkerboard,
    energies,
    is_coset,
    local_search,
)
from .energy import (
    EnergyFunction,
    ExponentialAtom,
    InversePower,
    KernelTable,
    SignReport,
    Tabulated,
    build_kernel,
    check_alternating_differences,
    check_complete_monotonicity_proxy,
    forward_difference,
)
from .grid import (
    Character,
    GridDims,
    Metric,
    Site,
    minus_one_character,
)
from .spectrum import (
    CheckerboardCertificate,
    EigenTable,
    RelaxationSolution,
    checkerboard_certificate,
    eigen_table,
    min_nontrivial,
    solve_relaxation,
)

__version__ = "0.1.0"
