import math

import numpy as np
import pytest

from toric_lab.energy import (
    ExponentialAtom,
    InversePower,
    Tabulated,
    build_kernel,
    check_alternating_differences,
    check_complete_monotonicity_proxy,
    forward_difference,
)
from toric_lab.grid import GridDims, Metric, site_index

from support import distance, enumerate_sites, full_kernel, negate_site, tabulated_from_instance

# Every built-in profile whose whole key array is evaluated by math.pow from C
BUILT_IN_PROFILES = [
    InversePower(0.3), InversePower(0.7), InversePower(1), InversePower(2), InversePower(3.5),
    *(ExponentialAtom(a, kind) for a in (1.0001, 1.05, 2) for kind in ("distance", "distance_squared")),
]


def power_definition(f, x):
    """x ** -alpha, or a ** -x (a ** -(x * x)), in Python floats."""
    x = float(x)
    if isinstance(f, InversePower):
        return x ** -f.alpha
    return f.a ** -(x if f.exponent_of == "distance" else x * x)


class TestEvaluate:
    def test_inverse_power(self):
        assert InversePower(1.0)(2) == 0.5
        assert InversePower(0.3)(1) == 1.0
        assert InversePower(2.0)(3) == pytest.approx(1.0 / 9.0)

    def test_inverse_power_domain(self):
        with pytest.raises(ValueError):
            InversePower(1.0)(0)
        with pytest.raises(ValueError):
            InversePower(1.0)(-1)
        with pytest.raises(ValueError):
            InversePower(0.0)
        with pytest.raises(ValueError):
            InversePower(-2.0)

    def test_exponential_atom(self):
        f = ExponentialAtom(2.0, "distance")
        assert f(0) == 1.0
        assert f(3) == 0.125
        g = ExponentialAtom(2.0, "distance_squared")
        assert g(2) == 2.0**-4

    def test_exponential_atom_domain(self):
        with pytest.raises(ValueError):
            ExponentialAtom(1.0)
        with pytest.raises(ValueError):
            ExponentialAtom(0.5)
        with pytest.raises(ValueError):
            ExponentialAtom(2.0, "distance_cubed")
        with pytest.raises(ValueError):
            ExponentialAtom(2.0)(-1)

    def test_tabulated(self):
        f = Tabulated({1: 1.0, 2: 0.5})
        assert f(1) == 1.0
        assert f(2.0) == 0.5
        with pytest.raises(ValueError):
            f(3)
        with pytest.raises(ValueError):
            Tabulated({1: -1.0})
        with pytest.raises(ValueError):
            Tabulated({1: math.inf})

    def test_tabulated_keys_match_within_tolerance(self):
        # 14 significant digits of sqrt(2), as a table written by hand would hold
        f = Tabulated({1: 1.0, 1.4142135623731: 0.5})
        assert f(math.sqrt(2)) == 0.5
        assert f(1.0 + 1e-12) == 1.0
        with pytest.raises(ValueError, match="no tabulated value"):
            f(1.0 + 1e-6)
        with pytest.raises(ValueError, match="no tabulated value"):
            f(2.0)

    def test_tabulated_ambiguous_keys(self):
        f = Tabulated({1.4142135623730: 0.5, 1.4142135623731: 0.25})
        with pytest.raises(ValueError, match="2 tabulated distances"):
            f(math.sqrt(2))
        with pytest.raises(ValueError, match="must be finite"):
            Tabulated({1: 1.0, math.nan: 0.5})


class TestBuildKernel:
    def test_reference_entries_4x4(self):
        dims = GridDims.of(4, 4)
        values = full_kernel(build_kernel(dims, Metric.LEE, InversePower(1.0)))
        assert values[site_index(dims, (0, 1))] == 1.0
        assert values[site_index(dims, (2, 2))] == 0.25
        assert values[site_index(dims, (0, 0))] == 0.0

    def test_exponential_on_squared_metric(self):
        dims = GridDims.of(8)
        kernel = build_kernel(dims, Metric.EUCLIDEAN_SQUARED, ExponentialAtom(1.05, "distance"))
        assert full_kernel(kernel)[site_index(dims, (4,))] == pytest.approx(1.05**-16, rel=1e-15)

    @pytest.mark.parametrize("sizes", [(5,), (4, 4), (3, 4), (2, 3, 4), (6, 6)])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_symmetry_and_positivity(self, sizes, metric):
        dims = GridDims(sizes)
        values = full_kernel(build_kernel(dims, metric, InversePower(0.7)))
        assert values[0] == 0.0
        assert (values[1:] > 0).all()
        for s in enumerate_sites(dims):
            i = site_index(dims, s)
            j = site_index(dims, negate_site(dims, s))
            assert values[i] == values[j]

    def test_symmetry_exhaustive_on_large_grid(self):
        # a million sites, checked exhaustively via the reversal permutation
        dims = GridDims.of(1000, 1000)
        values = full_kernel(build_kernel(dims, Metric.LEE, InversePower(0.5)))
        grid_view = values.reshape(dims.sizes)
        conj = grid_view[np.ix_(*[(-np.arange(n)) % n for n in dims.sizes])]
        assert (grid_view == conj).all()
        assert values[0] == 0.0
        assert (values[1:] > 0).all()

    # Lee and Chebyshev keys always fit the key table (their largest key is
    # below the block's entry count).  The squared keys of euclid-sq and
    # euclid take the sorting branch on (7,), (1, 6) and (2, 40), whose
    # largest key is at least twice the block's entry count (401 against 42
    # entries at (2, 40)), and the key table on the other sizes (72 against
    # 49 entries at (12, 12)).
    KEY_BRANCH_SIZES = [
        (1,), (2,), (7,), (1, 6), (2, 5), (3, 4), (5, 2, 7), (3, 3, 3), (4, 6, 2), (12, 12), (2, 40)
    ]
    SORTED_KEYS = {(7,), (1, 6), (2, 40)}

    @pytest.mark.parametrize("sizes", KEY_BRANCH_SIZES)
    @pytest.mark.parametrize("metric", list(Metric))
    def test_branch_taken(self, sizes, metric, monkeypatch):
        sorts = []
        sort = np.sort

        def counting_sort(*args, **kwargs):
            sorts.append(args)
            return sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        build_kernel(GridDims(sizes), metric, InversePower(0.7))
        squared = metric in (Metric.EUCLIDEAN_SQUARED, Metric.EUCLIDEAN)
        assert bool(sorts) == (squared and sizes in self.SORTED_KEYS)

    @pytest.mark.parametrize("sizes", KEY_BRANCH_SIZES)
    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("f", BUILT_IN_PROFILES, ids=repr)
    def test_values_equal_pointwise_definition(self, sizes, metric, f):
        # the full table is expanded from the fundamental block; every site
        # must read f at its own distance, bit for bit, whether f maps over the
        # whole key array or is called at one distance
        dims = GridDims(sizes)
        kernel = build_kernel(dims, metric, f)
        origin = (0,) * dims.ndim
        # only the origin is at distance 0
        distances = [distance(metric, origin, s, dims) for s in enumerate_sites(dims)]
        expected = np.array([f(x) if x else 0.0 for x in distances])
        assert full_kernel(kernel).tobytes() == expected.tobytes()
        # and f's one-distance form is its definition with Python's **
        assert [f(x) for x in distances if x] == [power_definition(f, x) for x in distances if x]

    @pytest.mark.parametrize("sizes", [(7,), (2, 40), (12, 12), (3, 3, 3)])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_f_called_once_per_distinct_nonzero_distance(self, sizes, metric):
        dims = GridDims(sizes)
        calls = []

        def f(x):
            calls.append(x)
            return 1.0

        build_kernel(dims, metric, f)
        origin = (0,) * dims.ndim
        # the oracle takes math.sqrt of the integer sum of squares for euclid
        distinct = sorted({distance(metric, origin, s, dims) for s in enumerate_sites(dims)} - {0})
        assert sorted(calls) == distinct
        assert all(type(x) is (float if metric is Metric.EUCLIDEAN else int) for x in calls)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_non_finite_values_refused(self, metric, bad):
        # 4x4 has distance 2 under every metric (site (1, 1) under euclid-sq); the
        # error names the least distance where f is not finite, whatever comes after it
        dims = GridDims.of(4, 4)
        with pytest.raises(ValueError, match=r"f is not finite at distance 2(\.0)?$"):
            build_kernel(dims, metric, lambda x: bad if x >= 2 else 1.0 / x)

    def test_tabulated_covers_instance(self):
        dims = GridDims.of(4, 6)
        f = tabulated_from_instance(dims, Metric.LEE, lambda x: 1.0 / x)
        kernel = build_kernel(dims, Metric.LEE, f)
        ref = build_kernel(dims, Metric.LEE, InversePower(1.0))
        np.testing.assert_allclose(kernel.block, ref.block, rtol=0, atol=0)

    def test_tabulated_missing_distance(self):
        dims = GridDims.of(4, 4)
        with pytest.raises(ValueError, match="no tabulated value"):
            build_kernel(dims, Metric.LEE, Tabulated({1: 1.0}))


class TestForwardDifference:
    def test_low_orders(self):
        f = InversePower(1.0)
        assert forward_difference(f, 0, 3) == f(3)
        assert forward_difference(f, 1, 3) == pytest.approx(f(4) - f(3))
        assert forward_difference(f, 2, 3) == pytest.approx(f(5) - 2 * f(4) + f(3))

    def test_exponential_closed_form(self):
        # differences of 2^-x scale by (2^-1 - 1)^m exactly
        f = ExponentialAtom(2.0, "distance")
        for m in range(6):
            for x in range(0, 5):
                assert forward_difference(f, m, x) == pytest.approx(
                    (2.0**-x) * (-0.5) ** m, rel=1e-12
                )

    def test_negative_order(self):
        with pytest.raises(ValueError):
            forward_difference(InversePower(1.0), -1, 1)


class TestAlternatingDifferences:
    def test_inverse_power_passes(self):
        report = check_alternating_differences(InversePower(1.0), 8, range(1, 21))
        assert report.passed
        assert report.status == "pass"
        assert report.violations == ()

    def test_exponential_passes(self):
        report = check_alternating_differences(ExponentialAtom(2.0, "distance"), 6, range(0, 11))
        assert report.passed

    def test_linear_profile_fails(self):
        f = Tabulated({x: float(x) for x in range(1, 13)})
        report = check_alternating_differences(f, 2, range(1, 9))
        assert not report.passed
        # the second difference of a linear profile vanishes identically
        second = [v for v in report.violations if v.order == 2]
        assert second and all(v.value == 0.0 for v in second)
        assert all(v.severity == "inconclusive" for v in second)
        # the first difference of an increasing profile has the wrong sign
        assert any(v.order == 1 and v.severity == "fail" for v in report.violations)
        assert report.status == "fail"

    def test_difference_of_exponential_still_alternates(self):
        # one forward-difference step of a decaying exponential stays in the class
        a = 1.7
        g = lambda x: a**-x - a ** -(x + 1.0)
        report = check_alternating_differences(g, 8, range(0, 12))
        assert report.passed


class TestMonotonicityProxy:
    def test_inverse_power_consistent(self):
        report = check_complete_monotonicity_proxy(
            InversePower(0.3), 4, [0.5, 1.0, 2.0, 5.0], 1e-3
        )
        assert report.consistent

    def test_exponential_consistent(self):
        report = check_complete_monotonicity_proxy(
            ExponentialAtom(math.e, "distance"), 4, [0.5, 1.0, 2.0, 5.0], 1e-3
        )
        assert report.consistent

    def test_increasing_profile_violates(self):
        report = check_complete_monotonicity_proxy(
            lambda x: 0.1 + (x - 3.0) ** 2, 2, [4.0, 5.0], 1e-3
        )
        assert not report.consistent
        assert any(v.order == 1 and v.severity == "fail" for v in report.violations)

    def test_tabulated_rejected(self):
        with pytest.raises(ValueError, match="smooth"):
            check_complete_monotonicity_proxy(Tabulated({1: 1.0}), 2, [1.0], 1e-3)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            check_complete_monotonicity_proxy(InversePower(1.0), 2, [0.0, 1.0], 1e-3)
        with pytest.raises(ValueError):
            check_complete_monotonicity_proxy(InversePower(1.0), 2, [1.0], 0.0)


@pytest.mark.parametrize(
    "check, args",
    [(check_alternating_differences, (range(1, 5),)), (check_complete_monotonicity_proxy, ([1.0], 1e-3))],
    ids=["alternating-differences", "monotonicity-proxy"],
)
def test_negative_max_order_rejected(check, args):
    with pytest.raises(ValueError, match="max_order must be non-negative, got -1"):
        check(InversePower(1.0), -1, *args)
