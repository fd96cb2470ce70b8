"""Spectral analysis and search for energy-minimising particle configurations on toric grids.

Each public name, and each submodule, is imported on first use: the module
`__getattr__` below (PEP 562) imports the submodule `_SOURCE` names for it,
and keeps the value in this module's globals, so a command line or a script
loads only the modules it runs.
"""

import sys

__version__ = "0.1.0"

# each public name the package gives, and each submodule's own name, by submodule
_SOURCE = {
    **{module: module for module in ("grid", "energy", "spectrum", "configs", "analysis", "cli")},
    **dict.fromkeys(
        ("FactorCurve", "bernstein_sweep", "dirichlet_sin_sum", "factor_closed_form", "factor_curve",
         "hypercube_gap", "kappa", "kappa_prime", "lambda_1d"),
        "analysis",
    ),
    **dict.fromkeys(
        ("Configuration", "CosetCheck", "EnergyReport", "SearchHit", "brute_force", "checkerboard", "energies",
         "is_coset", "local_search"),
        "configs",
    ),
    **dict.fromkeys(
        ("EnergyFunction", "ExponentialAtom", "InversePower", "KernelTable", "SignReport", "Tabulated",
         "build_kernel", "check_alternating_differences", "check_complete_monotonicity_proxy",
         "forward_difference"),
        "energy",
    ),
    **dict.fromkeys(
        ("BudgetExceededError", "Character", "GridDims", "Metric", "Site", "minus_one_character"), "grid"
    ),
    **dict.fromkeys(
        ("CheckerboardCertificate", "EigenTable", "RelaxationSolution", "checkerboard_certificate", "eigen_table",
         "min_nontrivial", "solve_relaxation"),
        "spectrum",
    ),
}

__all__ = [name for name, module in _SOURCE.items() if name != module]


def __getattr__(name: str) -> object:
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{_SOURCE[name]}"
    # the import statement's own call, which -X importtime reports, as importlib.import_module is not
    __import__(path)
    module = sys.modules[path]
    value = globals()[name] = module if name == _SOURCE[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})
