"""Each argument rule the library shares, refused by name at every public entry that reads it.

The rules live in `toric_lab.grid` (`_integer`, `_real`, `_particle_count`,
`_check_even`).  Each case is an argument that, unchecked, runs without a
limit, is truncated, gives NaN, or fails deep inside with a message that
names nothing.
"""

import contextlib
import io
import math
import re

import pytest

from toric_lab import cli, configs
from toric_lab.analysis import bernstein_sweep, dirichlet_sin_sum, factor_curve, kappa, kappa_prime
from toric_lab.configs import brute_force, local_search
from toric_lab.energy import (
    ExponentialAtom,
    InversePower,
    check_alternating_differences,
    check_complete_monotonicity_proxy,
    forward_difference,
)
from toric_lab.grid import GridDims, Metric
from toric_lab.spectrum import check_tie_tol

HARMONIC = InversePower(1.0)


def never(*args):
    raise AssertionError("called after the arguments should have been refused")


def cli_refusal(*argv):
    """Run the CLI; its exit 2 is raised as a ValueError carrying its stderr, any other exit fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert code == cli.EXIT_SPEC, (code, err.getvalue())
    raise ValueError(err.getvalue())


CASES = {
    # a budget must be an integer: compared as one, NaN would switch it off (work > nan is False)
    "budget-nan": (lambda: brute_force(GridDims.of(6, 6), Metric.LEE, never, 18, budget=math.nan),
                   "budget must be an integer, got nan"),
    "budget-inf": (lambda: brute_force(GridDims.of(6, 6), Metric.LEE, never, 18, budget=math.inf),
                   "budget must be an integer, got inf"),
    "budget-float": (lambda: brute_force(GridDims.of(6, 6), Metric.LEE, never, 18, budget=1e12),
                     "budget must be an integer, got 1000000000000.0"),
    # window points are integers, never truncated: 1.5 is not 1, and "3" is not 3
    "window-float": (lambda: check_alternating_differences(HARMONIC, 1, [1.5, 2]), "window must be integers"),
    "window-str": (lambda: check_alternating_differences(HARMONIC, 1, ["3"]), "window must be integers"),
    # an order is an integer: a float one would reach range() as a bare TypeError
    "max-order-float-differences": (lambda: check_alternating_differences(HARMONIC, 1.0, [1, 2]),
                                    "max_order must be an integer, got 1.0"),
    "max-order-float-proxy": (lambda: check_complete_monotonicity_proxy(HARMONIC, 1.0, [1.0], 1e-3),
                              "max_order must be an integer, got 1.0"),
    "difference-order-float": (lambda: forward_difference(HARMONIC, 1.0, 1),
                               "difference order must be an integer, got 1.0"),
    # a base is a real number: a str would reach a comparison as a bare TypeError
    "exp-base-str": (lambda: ExponentialAtom("2"), "exponential base must be a real number, got '2'"),
    "curve-base-str": (lambda: factor_curve(8, "2"), "base must be a real number, got '2'"),
    # a sweep reads each base by the factor curve's rule: "2" is not 2.0
    "sweep-base-str": (lambda: bernstein_sweep(8, 1, [1.5, "2"]), "base must be a real number, got '2'"),
    # a tie tolerance is a real number: a str or None would reach math.isfinite as a bare TypeError
    "tie-tol-str": (lambda: check_tie_tol("0.1"), "tie_tol must be a real number, got '0.1'"),
    "tie-tol-none": (lambda: check_tie_tol(None), "tie_tol must be a real number, got None"),
    "tie-tol-nan": (lambda: check_tie_tol(math.nan), "tie_tol must be finite and >= 0, got nan"),
    "tie-tol-negative": (lambda: check_tie_tol(-1), "tie_tol must be finite and >= 0, got -1"),
    # the seed is checked before the kernel is built, not by numpy after it
    "rng-seed-float": (lambda: local_search(GridDims.of(4, 4), Metric.LEE, never, 3, rng_seed=1.5),
                       "rng_seed must be an integer, got 1.5"),
    # one rule, one message: an inf base or exponent is not finite, whichever the profile
    "cli-exp-inf": (lambda: cli_refusal("certify", "--dims", "4,4", "--f", "exp:inf"),
                    "exponential base must be finite, got inf"),
    "cli-inverse-power-inf": (lambda: cli_refusal("certify", "--dims", "4,4", "--f", "inverse-power:inf"),
                              "inverse-power exponent must be finite, got inf"),
    # a negative seed from the CLI is refused before the 2048-row kernel matrix is built
    "cli-seed-negative": (lambda: cli_refusal("search", "--dims", "32,64", "--p", "3", "--method", "local",
                                              "--seed", "-1"),
                          "rng_seed must be at least 0, got -1"),
    # the closed forms' x is finite: NaN would give NaN, and inf a math domain error
    "kappa-x-nan": (lambda: kappa(8, math.nan), "x must be finite, got nan"),
    "kappa-x-inf": (lambda: kappa(8, math.inf), "x must be finite, got inf"),
    "kappa-prime-x-nan": (lambda: kappa_prime(8, math.nan), "x must be finite, got nan"),
    "dirichlet-x-nan": (lambda: dirichlet_sin_sum(3, math.nan), "x must be finite, got nan"),
    "dirichlet-x-inf": (lambda: dirichlet_sin_sum(3, math.inf), "x must be finite, got inf"),
    # the proxy's points and step are finite and positive: a NaN point would read as a "fail"
    "proxy-point-nan": (lambda: check_complete_monotonicity_proxy(HARMONIC, 1, [1.0, math.nan], 1e-3),
                        "grid point must be positive, got nan"),
    "proxy-step-inf": (lambda: check_complete_monotonicity_proxy(HARMONIC, 1, [1.0], math.inf),
                       "step must be finite, got inf"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_refused_by_name_before_any_work(monkeypatch, call, message):
    # neither search may build its kernel before every argument is checked
    monkeypatch.setattr(configs, "build_kernel", never)
    monkeypatch.setattr(configs, "kernel_matrix", never)
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
