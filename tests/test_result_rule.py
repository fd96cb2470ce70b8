"""The one result rule, refused by name: `toric_lab.grid._finite`.

A result that is not finite (an eigenvalue table, a relaxation optimum, a
checkerboard energy, a member energy, a hit value or a closed form) is a
ValueError "<name> not finite: <cause>".  Arrays are checked by their least
and greatest entries, which propagate NaN, so no mask of their size is built.
The closed forms that sum a profile go through `_fsum`, which turns fsum's own
refusal of an overflowing sum into the same named refusal.
"""

import math
import tracemalloc

import numpy as np
import pytest

from toric_lab.analysis import hypercube_gap, lambda_1d
from toric_lab.energy import (
    InversePower,
    check_alternating_differences,
    check_complete_monotonicity_proxy,
    forward_difference,
)
from toric_lab.grid import _finite, _fsum

HARMONIC = InversePower(1.0)


class TestRule:
    @pytest.mark.parametrize("value", [
        np.array([1.0, math.nan, 2.0]),
        np.array([[0.5, 1.0], [-math.inf, 3.0]]),
        math.inf,
    ], ids=["nan-entry", "minus-inf-entry", "inf-float"])
    def test_refused_by_name(self, value):
        with pytest.raises(ValueError, match=r"^spread not finite: a sum overflows$"):
            _finite(value, "spread", "a sum overflows")

    def test_finite_value_is_returned_itself(self):
        scalar = np.float64(-2.5)
        assert _finite(scalar, "spread", "a sum overflows") is scalar
        block = np.array([[1.0, -1e308], [1e308, 0.0]])
        assert _finite(block, "spread", "a sum overflows") is block

    def test_no_block_sized_mask(self):
        block = np.random.default_rng(0).random((1024, 1024))
        tracemalloc.start()
        try:
            _finite(block, "kernel eigenvalues", "a sum overflows")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a boolean mask alone would be an eighth of the block's 8 MiB
        assert peak < block.nbytes // 64, peak


class TestFsum:
    def test_finite_sum_keeps_its_bits(self):
        terms = [0.1, 1e16, -1e16, 0.2, 1e-300]
        assert _fsum(iter(terms)).hex() == math.fsum(terms).hex()

    @pytest.mark.parametrize("terms", [[8e307] * 3, [math.inf, -math.inf]], ids=["overflow", "inf-minus-inf"])
    def test_refused_sum_is_nan(self, terms):
        assert math.isnan(_fsum(terms))

    def test_error_raised_by_a_term_passes_through(self):
        def terms():
            yield 1.0
            raise ValueError("f refuses 2")
        with pytest.raises(ValueError, match="^f refuses 2$"):
            _fsum(terms())


class TestClosedForms:
    def test_cycle_eigenvalue(self):
        # 1e308 summed to inf, and 8e307 raised fsum's bare OverflowError
        for level in (1e308, 8e307):
            with pytest.raises(ValueError, match=r"^cycle eigenvalue not finite: "):
                lambda_1d(8, lambda x: level, 0)
        terms = [HARMONIC(k) * 2.0 * math.cos(2.0 * math.pi * ((3 * k) % 8) / 8) for k in range(1, 4)]
        assert lambda_1d(8, HARMONIC, 3).hex() == math.fsum(terms + [-HARMONIC(4)]).hex()

    def test_hypercube_gap(self):
        # the weighted sum overflowed to inf at q = 2, and the doubling of a finite sum at q = 1
        for d, level, q in ((3, 1e308, 2), (2, 8e307, 1)):
            with pytest.raises(ValueError, match=r"^hypercube gap not finite: "):
                hypercube_gap(d, lambda x: level, q)
        # at q = 0 the forward difference inside it overflows first, and is named
        with pytest.raises(ValueError, match=r"^forward difference not finite: "):
            hypercube_gap(3, lambda x: 1e308, 0)
        differences = [HARMONIC(2) - HARMONIC(1), HARMONIC(3) - HARMONIC(2)]
        assert hypercube_gap(3, HARMONIC, 1).hex() == (2.0 * math.fsum(-t for t in differences)).hex()

    def test_forward_difference(self):
        # fsum's bare "-inf + inf in fsum", also through check_alternating_differences
        with pytest.raises(ValueError, match=r"^forward difference not finite: "):
            forward_difference(lambda x: 1e308, 3, 1)
        with pytest.raises(ValueError, match=r"^forward difference not finite: "):
            check_alternating_differences(lambda x: 1e308, 3, [1])
        assert forward_difference(HARMONIC, 2, 1).hex() == math.fsum([HARMONIC(1), -2 * HARMONIC(2), HARMONIC(3)]).hex()

    def test_derivative_estimate(self):
        # order 3 raised fsum's bare ValueError; order 2 reported -inf as a sign failure
        for order in (2, 3):
            with pytest.raises(ValueError, match=r"^derivative estimate not finite: "):
                check_complete_monotonicity_proxy(lambda x: 1e308, order, [1.0], 0.1)
        report = check_complete_monotonicity_proxy(HARMONIC, 3, [1.0, 2.0], 1e-3)
        assert report.status == "pass"
