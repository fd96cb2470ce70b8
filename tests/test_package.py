"""The package's public names, each imported on first use, and the modules each command loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import toric_lab

SRC = Path(__file__).resolve().parent.parent / "src"

# every public name of the package, by the submodule that defines it
PUBLIC = {
    "grid": {"BudgetExceededError", "Character", "GridDims", "Metric", "Site", "minus_one_character"},
    "energy": {
        "EnergyFunction", "ExponentialAtom", "InversePower", "KernelTable", "SignReport", "Tabulated",
        "build_kernel", "check_alternating_differences", "check_complete_monotonicity_proxy", "forward_difference",
    },
    "spectrum": {
        "CheckerboardCertificate", "EigenTable", "RelaxationSolution", "checkerboard_certificate", "eigen_table",
        "min_nontrivial", "solve_relaxation",
    },
    "configs": {
        "Configuration", "CosetCheck", "EnergyReport", "SearchHit", "brute_force", "checkerboard", "energies",
        "is_coset", "local_search",
    },
    "analysis": {
        "FactorCurve", "bernstein_sweep", "dirichlet_sin_sum", "factor_closed_form", "factor_curve",
        "hypercube_gap", "kappa", "kappa_prime", "lambda_1d",
    },
}
NAMES = set().union(*PUBLIC.values())


def test_all_lists_the_public_names():
    assert len(NAMES) == 41
    assert sorted(toric_lab.__all__) == sorted(NAMES)
    assert NAMES <= set(dir(toric_lab))


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_names_resolve_to_the_submodule_objects(module):
    submodule = importlib.import_module(f"toric_lab.{module}")
    assert getattr(toric_lab, module) is submodule
    for name in PUBLIC[module]:
        assert getattr(toric_lab, name) is getattr(submodule, name), name


def test_budget_error_is_one_class():
    from toric_lab import configs, grid

    assert configs.BudgetExceededError is grid.BudgetExceededError is toric_lab.BudgetExceededError


def test_unknown_name_refused():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        toric_lab.no_such_name  # noqa: B018


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from toric_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES


# the modules a fresh interpreter has loaded after one command; every command loads these
BASE = {"toric_lab", "toric_lab.grid", "toric_lab.energy", "toric_lab.spectrum", "toric_lab.cli"}


@pytest.mark.parametrize("argv, loaded", [
    (("certify", "--dims", "2,2"), BASE),
    (("factor-curve", "--n", "8", "--a", "2"), BASE | {"toric_lab.analysis"}),
    (("search", "--dims", "4,2", "--p", "3"), BASE | {"toric_lab.configs"}),
], ids=["certify", "factor-curve", "search"])
def test_command_loads_only_its_modules(argv, loaded):
    """A fresh interpreter running one command imports only its modules and builds only its parser."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from toric_lab import cli; rc = cli.main(sys.argv[2:]); "
        "print(rc, cli._command_parser.cache_info().currsize, *sorted(m for m in sys.modules if 'toric_lab' in m))"
    )
    done = subprocess.run([sys.executable, "-c", code, str(SRC), *argv], capture_output=True, text=True, timeout=60)
    rc, parsers, *modules = done.stdout.splitlines()[-1].split()
    assert (rc, parsers) == ("0", "1"), done.stderr
    assert set(modules) == loaded
