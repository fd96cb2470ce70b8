import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import toric_lab
from toric_lab import grid
from toric_lab.configs import checkerboard
from toric_lab.grid import (
    GridDims,
    Metric,
    axis_wraps,
    distance_table,
    index_to_site,
    minus_one_character,
    site_index,
)

from support import (
    add_sites,
    character_value,
    checkerboard_sites,
    conjugate_character,
    coords_array,
    distance,
    enumerate_sites,
    negate_site,
    trivial_character,
    wrap_abs,
)

ALL_METRICS = list(Metric)


class TestGridDims:
    def test_order_and_ndim(self):
        d = GridDims.of(4, 4)
        assert d.order == 16
        assert d.ndim == 2
        assert GridDims.of(3).order == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            GridDims(())
        with pytest.raises(ValueError):
            GridDims.of(0, 4)
        with pytest.raises(ValueError):
            GridDims.of(-2)

    def test_size_one_and_single_axis_allowed(self):
        assert GridDims.of(1).order == 1
        assert GridDims.of(2).order == 2
        assert GridDims.of(1, 4).order == 4

    def test_all_even(self):
        assert GridDims.of(2, 4).all_even()
        assert not GridDims.of(2, 3).all_even()

    def test_too_large(self):
        with pytest.raises(ValueError):
            GridDims(tuple([2**31] * 3))


class TestWrapAbs:
    def test_reference_values(self):
        assert wrap_abs(3, 4) == 1
        assert wrap_abs(0, 17) == 0
        assert wrap_abs(5, 8) == 3

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            wrap_abs(1, 0)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_symmetry_and_periodicity(self, a, n):
        w = wrap_abs(a, n)
        assert w == wrap_abs(-a, n) == wrap_abs(a + n, n)
        assert 0 <= w <= n // 2

    @given(st.integers(-100, 100), st.integers(1, 50))
    def test_min_over_both_residue_classes(self, a, n):
        assert wrap_abs(a, n) == min(a % n, (-a) % n)

    @given(st.integers(-10**6, 10**6), st.integers(1, 5000))
    def test_axis_wraps_agrees(self, a, n):
        assert axis_wraps(n)[a % n] == wrap_abs(a, n)


class TestDistance:
    def test_lee_reference(self):
        dims = GridDims.of(4, 4)
        assert distance(Metric.LEE, (0, 0), (1, 2), dims) == 3

    def test_zero_iff_equal(self):
        dims = GridDims.of(3, 5)
        for m in ALL_METRICS:
            assert distance(m, (1, 2), (1, 2), dims) == 0
            assert distance(m, (1, 2), (1, 3), dims) > 0

    def test_euclid_sq_one_dim(self):
        assert distance(Metric.EUCLIDEAN_SQUARED, (0,), (5,), GridDims.of(8)) == 9

    def test_euclid_is_sqrt_of_squared(self):
        dims = GridDims.of(6, 7)
        for g in [(0, 0), (2, 3)]:
            for h in [(5, 1), (3, 6)]:
                sq = distance(Metric.EUCLIDEAN_SQUARED, g, h, dims)
                assert distance(Metric.EUCLIDEAN, g, h, dims) == pytest.approx(math.sqrt(sq))

    def test_chebyshev(self):
        dims = GridDims.of(6, 6)
        assert distance(Metric.CHEBYSHEV, (0, 0), (2, 5), dims) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance(Metric.LEE, (0, 0), (1,), GridDims.of(4, 4))
        with pytest.raises(ValueError):
            distance(Metric.LEE, (0,), (1,), GridDims.of(4, 4))

    @pytest.mark.parametrize("sizes", [(5,), (4, 6), (3, 3, 2)])
    def test_symmetry_and_invariance(self, sizes):
        dims = GridDims(sizes)
        rng = np.random.default_rng(12)
        sites = list(enumerate_sites(dims))
        for _ in range(1000):
            g, h, k = (sites[rng.integers(len(sites))] for _ in range(3))
            for m in ALL_METRICS:
                d = distance(m, g, h, dims)
                assert d == distance(m, h, g, dims)
                assert d == pytest.approx(
                    distance(m, add_sites(dims, g, k), add_sites(dims, h, k), dims)
                )

    @pytest.mark.parametrize("metric", [Metric.LEE, Metric.EUCLIDEAN, Metric.CHEBYSHEV])
    def test_triangle_inequality(self, metric):
        dims = GridDims.of(5, 7)
        rng = np.random.default_rng(3)
        sites = list(enumerate_sites(dims))
        for _ in range(500):
            g, h, k = (sites[rng.integers(len(sites))] for _ in range(3))
            assert distance(metric, g, h, dims) <= (
                distance(metric, g, k, dims) + distance(metric, k, h, dims) + 1e-12
            )

    def test_distance_table_matches_pointwise(self):
        dims = GridDims.of(3, 4, 2)
        origin = (0, 0, 0)
        for m in ALL_METRICS:
            table = distance_table(dims, m)
            assert table.shape == (2, 3, 2)
            for s in enumerate_sites(dims):
                wraps = tuple(wrap_abs(c, n) for c, n in zip(s, dims.sizes))
                assert table[wraps] == pytest.approx(distance(m, origin, s, dims))

    def test_distance_table_refuses_non_metric(self):
        with pytest.raises(ValueError, match="unknown metric 'lee'"):
            distance_table(GridDims.of(4, 4), "lee")


class TestIndexing:
    def test_row_major_order(self):
        assert list(enumerate_sites(GridDims.of(2, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert list(enumerate_sites(GridDims.of(3))) == [(0,), (1,), (2,)]
        sites = list(enumerate_sites(GridDims.of(4, 4)))
        assert len(sites) == 16
        assert sites[0] == (0, 0)
        assert sites[-1] == (3, 3)

    def test_index_round_trip(self):
        dims = GridDims.of(3, 4, 2)
        for i, s in enumerate(enumerate_sites(dims)):
            assert site_index(dims, s) == i
            assert index_to_site(dims, i) == s

    def test_index_reduces_modulo(self):
        dims = GridDims.of(4, 4)
        assert site_index(dims, (5, -1)) == site_index(dims, (1, 3))

    def test_coords_array_matches_enumeration(self):
        dims = GridDims.of(3, 5)
        arr = coords_array(dims)
        for i, s in enumerate(enumerate_sites(dims)):
            assert tuple(arr[i]) == s

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            index_to_site(GridDims.of(4), 4)


class TestCharacters:
    def test_trivial_and_minus_one(self):
        dims = GridDims.of(4, 6)
        assert trivial_character(dims) == (0, 0)
        assert minus_one_character(dims) == (2, 3)
        with pytest.raises(ValueError):
            minus_one_character(GridDims.of(4, 3))

    def test_conjugation(self):
        dims = GridDims.of(4, 4)
        assert conjugate_character(dims, (1, 3)) == (3, 1)
        assert conjugate_character(dims, (0, 0)) == (0, 0)
        assert conjugate_character(dims, (2, 2)) == (2, 2)

    def test_character_value_multiplicative(self):
        dims = GridDims.of(4, 6)
        chi = (1, 2)
        rng = np.random.default_rng(5)
        sites = list(enumerate_sites(dims))
        for _ in range(100):
            g = sites[rng.integers(len(sites))]
            h = sites[rng.integers(len(sites))]
            lhs = character_value(dims, chi, add_sites(dims, g, h))
            rhs = character_value(dims, chi, g) * character_value(dims, chi, h)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_minus_one_character_values(self):
        dims = GridDims.of(2, 4)
        chi = minus_one_character(dims)
        for g in enumerate_sites(dims):
            expected = (-1.0) ** sum(g)
            assert character_value(dims, chi, g).real == pytest.approx(expected, abs=1e-12)
            assert abs(character_value(dims, chi, g).imag) < 1e-12


class TestCheckerboard:
    def test_two_by_two(self):
        assert set(checkerboard(GridDims.of(2, 2), "even").sites()) == {(0, 0), (1, 1)}

    def test_four_by_four(self):
        even = checkerboard(GridDims.of(4, 4), "even").sites()
        assert len(even) == 8
        for s in [(0, 0), (1, 1), (0, 2)]:
            assert s in even

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="checkerboard undefined"):
            checkerboard(GridDims.of(3, 4))
        with pytest.raises(ValueError):
            checkerboard(GridDims.of(4, 4), parity="sideways")

    @pytest.mark.parametrize("sizes", [(2, 2), (4, 4), (2, 4, 6), (8,)])
    def test_partition_and_translation(self, sizes):
        dims = GridDims(sizes)
        even = set(checkerboard(dims, "even").sites())
        odd = set(checkerboard(dims, "odd").sites())
        assert not even & odd
        assert len(even) == len(odd) == dims.order // 2
        assert even | odd == set(enumerate_sites(dims))
        # any single-step shift swaps the two parities
        step = (1,) + (0,) * (dims.ndim - 1)
        assert {add_sites(dims, s, step) for s in even} == odd

    def test_adjacent_sites_opposite(self):
        dims = GridDims.of(4, 6)
        even = set(checkerboard(dims, "even").sites())
        for s in enumerate_sites(dims):
            for axis in range(dims.ndim):
                step = tuple(1 if i == axis else 0 for i in range(dims.ndim))
                assert (s in even) != (add_sites(dims, s, step) in even)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("sizes", [(2, 2), (4, 4), (2, 4, 6), (8,), (6, 8, 2)])
    def test_members_match_oracle(self, sizes, parity):
        dims = GridDims(sizes)
        expected = tuple(site_index(dims, s) for s in checkerboard_sites(dims, parity))
        assert checkerboard(dims, parity).members == expected

    @pytest.mark.parametrize("sizes, parity", [((3, 4, 5), "even"), ((4, 4), "sideways")])
    def test_errors_match_oracle(self, sizes, parity):
        with pytest.raises(ValueError) as expected:
            checkerboard_sites(GridDims(sizes), parity)
        with pytest.raises(ValueError) as got:
            checkerboard(GridDims(sizes), parity)
        assert str(got.value) == str(expected.value)

    def test_negate_site(self):
        dims = GridDims.of(4, 6)
        assert negate_site(dims, (1, 2)) == (3, 4)
        assert negate_site(dims, (0, 0)) == (0, 0)


@pytest.mark.parametrize("name", ["distance", "wrap_abs", "enumerate_sites", "trivial_character", "checkerboard_sites"])
def test_scalar_duplicates_not_exported(name):
    # distance_table, axis_wraps and numpy index arithmetic are the one metric, wrap and site listing
    assert not hasattr(toric_lab, name)
    assert not hasattr(grid, name)
    assert name not in grid.__all__
