import dataclasses
import math
import re

import numpy as np
import pytest

from toric_lab.analysis import (
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
from toric_lab.energy import ExponentialAtom, InversePower, Tabulated, build_kernel
from toric_lab.grid import GridDims, Metric, site_index
from toric_lab.spectrum import eigen_table

from support import factor_curve_oracle

HARMONIC = InversePower(1.0)


def eigen_1d(n, f):
    kernel = build_kernel(GridDims.of(n), Metric.LEE, f)
    return eigen_table(kernel).values


class TestLambda1d:
    def test_matches_transform_on_four_cycle(self):
        values = eigen_1d(4, HARMONIC)
        assert lambda_1d(4, HARMONIC, 2) == pytest.approx(float(values[2]), abs=1e-13)
        assert lambda_1d(4, HARMONIC, 2) == pytest.approx(-1.5, abs=1e-13)

    def test_trivial_index_is_kernel_sum(self):
        for n in (4, 8, 10):
            total = sum(2.0 / k for k in range(1, n // 2)) + 2.0 / n
            assert lambda_1d(n, HARMONIC, 0) == pytest.approx(total, rel=1e-12)

    def test_reflection_symmetry(self):
        for n in (6, 12):
            for j in range(1, n // 2):
                assert lambda_1d(n, HARMONIC, j) == pytest.approx(
                    lambda_1d(n, HARMONIC, n - j), rel=1e-12
                )

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 16])
    @pytest.mark.parametrize("f", [HARMONIC, ExponentialAtom(1.4, "distance"), InversePower(0.3)])
    def test_cross_module_consistency(self, n, f):
        values = eigen_1d(n, f)
        for j in range(n):
            assert lambda_1d(n, f, j) == pytest.approx(float(values[j]), abs=1e-10)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            lambda_1d(5, HARMONIC, 1)


class TestKappa:
    def test_interpolates_spectrum_at_integers(self):
        for n in (4, 8, 12):
            values = eigen_1d(n, HARMONIC)
            for j in range(n):
                assert kappa(n, float(j)) == pytest.approx(float(values[j]), abs=1e-10)

    def test_zero_at_half(self):
        for n in (4, 6, 10, 16):
            assert abs(kappa_prime(n, n / 2.0)) < 1e-12

    def test_sign_pattern(self):
        rng = np.random.default_rng(21)
        for n in (4, 10, 32):
            for _ in range(200):
                x = float(rng.uniform(1e-3, n / 2 - 1e-3))
                assert kappa_prime(n, x) <= 1e-15
                assert kappa_prime(n, n - x) >= -1e-15

    def test_strict_signs_near_half(self):
        for n in (4, 6, 12):
            assert kappa_prime(n, n / 2 - 0.25) < 0
            assert kappa_prime(n, n / 2 + 0.25) > 0

    def test_vanishes_toward_zero(self):
        # kappa'(x) ~ -pi^2 x as x -> 0+
        assert abs(kappa_prime(8, 1e-4)) < 5e-3
        assert abs(kappa_prime(8, 1e-5)) < 5e-4

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            kappa_prime(8, 1e-8)
        with pytest.raises(ValueError):
            kappa_prime(8, 8.0 - 1e-8)
        with pytest.raises(ValueError):
            kappa_prime(8, -1.0)

    @pytest.mark.parametrize("n", [4, 10, 24, 64])
    def test_matches_finite_differences(self, n):
        rng = np.random.default_rng(n)
        h = 1e-4
        for _ in range(100):
            x = float(rng.uniform(0.01 + h, n - 0.01 - h))
            fd = (kappa(n, x + h) - kappa(n, x - h)) / (2 * h)
            assert kappa_prime(n, x) == pytest.approx(fd, abs=1e-6)


class TestHypercubeGap:
    def test_single_dimension(self):
        assert hypercube_gap(1, HARMONIC, 0) == pytest.approx(2.0 * HARMONIC(1))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("f", [HARMONIC, ExponentialAtom(2.0, "distance")])
    def test_matches_eigen_differences(self, d, f):
        dims = GridDims(tuple([2] * d))
        values = eigen_table(build_kernel(dims, Metric.LEE, f)).values
        for q in range(d):
            chi_plus = (0,) + (0,) * q + (1,) * (d - 1 - q)
            chi_minus = (1,) + (0,) * q + (1,) * (d - 1 - q)
            expected = values[site_index(dims, chi_plus)] - values[site_index(dims, chi_minus)]
            gap = hypercube_gap(d, f, q)
            assert gap == pytest.approx(float(expected), abs=1e-10)
            assert gap > 0

    def test_gap_depends_only_on_count_of_ones(self):
        # placing the q trivial components elsewhere gives the same difference
        d, q, f = 4, 1, HARMONIC
        dims = GridDims(tuple([2] * d))
        values = eigen_table(build_kernel(dims, Metric.LEE, f)).values
        chi_plus = (0, 1, 0, 1)
        chi_minus = (1, 1, 0, 1)
        expected = values[site_index(dims, chi_plus)] - values[site_index(dims, chi_minus)]
        assert hypercube_gap(d, f, q) == pytest.approx(float(expected), abs=1e-10)

    def test_vanishing_second_difference(self):
        linear = Tabulated({x: float(x) for x in range(1, 8)})
        assert hypercube_gap(3, linear, 0) == pytest.approx(0.0, abs=1e-12)

    def test_q_range(self):
        with pytest.raises(ValueError):
            hypercube_gap(3, HARMONIC, 3)
        with pytest.raises(ValueError):
            hypercube_gap(3, HARMONIC, -1)


class TestFactorCurve:
    def test_reference_value(self):
        curve = factor_curve(8, 2.0, 1)
        assert curve.value_at(4) == pytest.approx(0.3125, abs=1e-14)
        assert factor_closed_form(8, 2.0, 4) == pytest.approx(0.3125, abs=1e-14)

    def test_index_zero_is_maximum(self):
        for n, a, power in [(8, 1.3, 1), (10, 1.05, 2), (5, 2.0, 1)]:
            curve = factor_curve(n, a, power)
            assert curve.values[0] == max(curve.values)
            assert curve.values[0] > 0

    def test_reflection_symmetry(self):
        curve = factor_curve(12, 1.7, 1)
        for k in range(1, 12):
            assert curve.values[k] == pytest.approx(curve.values[12 - k], rel=1e-13)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    @pytest.mark.parametrize("a", [1.01, 1.2, 2.0, 10.0])
    def test_closed_form_and_minimum(self, n, a):
        curve = factor_curve(n, a, 1)
        for k in range(n):
            closed = factor_closed_form(n, a, k)
            assert closed > 0
            assert abs(curve.values[k] - closed) <= 1e-12 * abs(closed)
        assert curve.argmin == (n // 2,)

    @pytest.mark.parametrize("n", [2, 5, 6, 7, 8, 9, 12, 64, 128, 255, 256, 2048, 4000])
    @pytest.mark.parametrize("a", [1.0001, 1.001, 1.01, 1.05, 2.0])
    def test_values_within_forward_error_of_per_index_loop(self, n, a):
        # one float64 rounding plus the transform's forward-error bound
        # eps_ld * ceil(log2(n)) * sum(terms), with c = 1 (measured at most 0.17)
        oracle = factor_curve_oracle(n, a, powers=(1, 2))
        g = np.arange(n)
        for power in (1, 2):
            curve = factor_curve(n, a, power)
            terms = np.longdouble(a) ** -((np.minimum(g, n - g) ** power).astype(np.longdouble))
            bound = float(np.finfo(np.longdouble).eps) * math.ceil(math.log2(n)) * float(terms.sum())
            want = oracle[power]
            assert (np.abs(curve.values - want) <= np.spacing(np.abs(want)) + bound).all()
            nonzero_min = want[1:].min()
            tol = 1e-12 * (1.0 + abs(nonzero_min))
            assert curve.argmin == tuple(int(k) for k in np.flatnonzero(want <= nonzero_min + tol) if k)

    def test_transform_keeps_long_double(self):
        # numpy 1.x ran np.fft in double precision whatever the input: the
        # curves' extended-precision transform needs numpy >= 2.0
        assert np.fft.hfft(np.ones(5, dtype=np.longdouble), 8).dtype == np.longdouble

    @pytest.mark.parametrize("n", [2, 5, 6, 7, 8, 9, 12])
    @pytest.mark.parametrize("power", [1, 2])
    def test_min_value_and_strict_minimum_flag(self, n, power):
        for a in (1.01, 1.05, 2.0):
            curve = factor_curve(n, a, power)
            assert curve.min_value == float(curve.values[1:].min())
            assert curve.is_minus_one_strict_min is (curve.argmin == (n // 2,))
            if n % 2:
                assert not curve.is_minus_one_strict_min
        assert factor_curve(8, 1.05, 1).is_minus_one_strict_min
        assert not factor_curve(8, 1.05, 2).is_minus_one_strict_min

    def test_squared_euclid_migrated_minimum(self):
        curve = factor_curve(8, 1.05, 2)
        assert curve.argmin == (2, 6)
        assert curve.value_at(4) > curve.value_at(2)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            factor_curve(1, 2.0, 1)
        with pytest.raises(ValueError):
            factor_curve(8, 1.0, 1)
        with pytest.raises(ValueError):
            factor_curve(8, 2.0, 3)
        with pytest.raises(ValueError):
            factor_closed_form(7, 2.0, 1)

    @pytest.mark.parametrize("n1,n2,a", [(4, 6, 1.3), (8, 2, 1.05), (4, 4, 2.0)])
    def test_factorisation_of_transform(self, n1, n2, a):
        # the full transform plus the origin term splits into per-axis factors
        dims = GridDims.of(n1, n2)
        values = eigen_table(build_kernel(dims, Metric.LEE, ExponentialAtom(a, "distance"))).values
        f1 = factor_curve(n1, a, 1)
        f2 = factor_curve(n2, a, 1)
        for j1 in range(n1):
            for j2 in range(n2):
                lhs = values[site_index(dims, (j1, j2))] + 1.0
                assert lhs == pytest.approx(f1.value_at(j1) * f2.value_at(j2), abs=1e-9)

    def test_factorisation_squared_euclid(self):
        dims = GridDims.of(6, 4)
        values = eigen_table(
            build_kernel(dims, Metric.EUCLIDEAN_SQUARED, ExponentialAtom(1.2, "distance"))
        ).values
        f1 = factor_curve(6, 1.2, 2)
        f2 = factor_curve(4, 1.2, 2)
        for j1 in range(6):
            for j2 in range(4):
                lhs = values[site_index(dims, (j1, j2))] + 1.0
                assert lhs == pytest.approx(f1.value_at(j1) * f2.value_at(j2), abs=1e-9)


class TestBernsteinSweep:
    def test_multiple_of_four_always_passes(self):
        for record in bernstein_sweep(8, 1, [1.01, 1.5, 2.0, 10.0]):
            assert record.is_minus_one_strict_min
            assert record.argmin == (4,)

    def test_two_cycle_passes(self):
        for record in bernstein_sweep(2, 1, [1.01, 3.0]):
            assert record.is_minus_one_strict_min

    def test_six_cycle_fails_for_small_base(self):
        records = bernstein_sweep(6, 1, [1.001, 1.01, 1.05, 1.1, 1.5, 2.0, 5.0])
        failures = [r for r in records if not r.is_minus_one_strict_min]
        assert failures, "expected the minimum to migrate off -1 for some base"
        # for small bases the minimum sits at the conjugate pair {2, 4}
        # (at a = 2 there is an exact three-way tie {2, 3, 4})
        assert all({2, 4} <= set(r.argmin) for r in failures)
        by_a = {r.a: r for r in records}
        assert by_a[1.05].argmin == (2, 4)
        assert by_a[5.0].is_minus_one_strict_min

    @pytest.mark.parametrize("n, power", [(6, 1), (8, 1), (8, 2), (10, 2)])
    def test_returns_the_factor_curves(self, n, power):
        grid = [1.001, 1.05, 2.0, 5.0]
        curves = bernstein_sweep(n, power, grid)
        assert len(curves) == len(grid)
        for curve, a in zip(curves, grid):
            want = factor_curve(n, a, power)
            assert type(curve) is FactorCurve
            for name in (f.name for f in dataclasses.fields(FactorCurve)):
                got, expected = getattr(curve, name), getattr(want, name)
                if name == "values":
                    assert got.dtype == expected.dtype
                    assert got.tolist() == expected.tolist()
                else:
                    assert got == expected, name

    def test_bases_as_given(self):
        # ints and numpy floats are bases as they are; each curve stores its base as a float
        curves = bernstein_sweep(8, 1, [2, np.float64(1.5)])
        assert [(type(c.a), c.a) for c in curves] == [(float, 2.0), (float, 1.5)]
        assert curves[0].values.tolist() == factor_curve(8, 2.0).values.tolist()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            bernstein_sweep(8, 1, [])
        with pytest.raises(ValueError):
            bernstein_sweep(7, 1, [1.5])


class TestDirichletSinSum:
    def test_against_direct_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            m = int(rng.integers(1, 51))
            x = float(rng.uniform(0.01, math.pi - 1e-9))
            direct = math.fsum(math.sin(k * x) for k in range(1, m + 1))
            assert dirichlet_sin_sum(m, x) == pytest.approx(direct, abs=1e-9)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            dirichlet_sin_sum(3, 0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: kappa(7, 1.0), "cycle length must be even and at least 2, got 7"),
        (lambda: kappa_prime(7, 1.0), "cycle length must be even and at least 2, got 7"),
        (lambda: hypercube_gap(0, HARMONIC, 0), "dimension must be at least 1, got 0"),
        (lambda: factor_closed_form(8, 1.0, 1), "base must exceed 1, got 1.0"),
        (lambda: dirichlet_sin_sum(-1, 1.0), "m must be at least 0, got -1"),
        # a base of inf has no curve: summaries would print Infinity, which is not JSON
        (lambda: factor_closed_form(8, math.inf, 1), "base must be finite, got inf"),
        (lambda: factor_curve(8, math.inf), "base must be finite, got inf"),
        (lambda: factor_curve(8, math.nan), "base must exceed 1, got nan"),
        (lambda: factor_curve(8, -math.inf), "base must exceed 1, got -inf"),
    ],
    ids=["kappa-odd-n", "kappa-prime-odd-n", "hypercube-gap-d0", "closed-form-a1", "dirichlet-m-1",
         "closed-form-a-inf", "curve-a-inf", "curve-a-nan", "curve-a-minus-inf"],
)
def test_domain_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call", [
    lambda n: lambda_1d(n, HARMONIC, 1),
    lambda n: kappa(n, 1.0),
    lambda n: kappa_prime(n, 1.0),
    lambda n: factor_closed_form(n, 2.0, 1),
    lambda n: bernstein_sweep(n, 1, [2.0]),
], ids=["lambda-1d", "kappa", "kappa-prime", "closed-form", "bernstein"])
@pytest.mark.parametrize("n, message", [
    (7, "cycle length must be even and at least 2, got 7"),
    (0, "cycle length must be even and at least 2, got 0"),
    (8.0, "cycle length must be an integer, got 8.0"),
    (np.float64(8.0), "cycle length must be an integer, got np.float64(8.0)"),
])
def test_one_even_cycle_check(call, n, message):
    # every function of an even cycle refuses an odd, short or non-integral length alike
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(n)


@pytest.mark.parametrize("call, message", [
    (lambda: lambda_1d(8, HARMONIC, 1.5), "character index must be an integer, got 1.5"),
    (lambda: factor_closed_form(8, 2.0, 1.5), "root index must be an integer, got 1.5"),
    (lambda: factor_curve(8.0, 2.0), "cycle length must be an integer, got 8.0"),
    (lambda: factor_curve(8, 2.0, 1.0), "distance power must be an integer, got 1.0"),
    (lambda: hypercube_gap(2.0, HARMONIC, 0), "dimension must be an integer, got 2.0"),
    (lambda: hypercube_gap(2, HARMONIC, "0"), "q must be an integer, got '0'"),
    (lambda: dirichlet_sin_sum(3.0, 1.0), "m must be an integer, got 3.0"),
], ids=["lambda-1d-j", "closed-form-k", "curve-n", "curve-power", "gap-d", "gap-q", "dirichlet-m"])
def test_non_integral_parameter_refused(call, message):
    # read with operator.index, as GridDims reads its sizes, not cut down or taken as a float
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integer_parameters_accepted():
    curve = factor_curve(np.int64(8), 2.0, np.int32(2))
    assert (type(curve.n), type(curve.distance_power)) == (int, int)
    assert factor_closed_form(np.int64(8), 2.0, np.int64(3)) == factor_closed_form(8, 2.0, 3)
    assert lambda_1d(np.int64(8), HARMONIC, np.int64(3)) == lambda_1d(8, HARMONIC, 3)
