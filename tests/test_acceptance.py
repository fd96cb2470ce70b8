"""Acceptance suite: one test per release criterion, each timed and reported.

Run with `pytest -s tests/test_acceptance.py -v` to see one line per
criterion.  Tolerances are fixed here and are not calibration knobs.
"""

import contextlib
import math
import time

import numpy as np

from toric_lab.analysis import factor_closed_form, factor_curve, hypercube_gap, kappa, kappa_prime
from toric_lab.configs import Configuration, brute_force, checkerboard, energies, is_coset, local_search
from toric_lab.energy import ExponentialAtom, InversePower, build_kernel
from toric_lab.grid import GridDims, Metric, site_index
from toric_lab.spectrum import default_tie_tol, eigen_table, min_nontrivial, solve_relaxation, checkerboard_certificate

from support import (
    P4_OPTIMAL_PATTERNS,
    ROW_CONFIG_4X4,
    TWELVE_LAMBDA_4X4,
    direct_eigen_oracle,
    tabulated_from_instance,
)

HARMONIC = InversePower(1.0)


@contextlib.contextmanager
def criterion(number: int, description: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] criterion {number:2d} ({elapsed:6.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > limit_s:
        print(f"[FAIL] criterion {number:2d} ({elapsed:6.2f}s): {description} "
              f"(over {limit_s:.0f}s runtime limit)")
        raise AssertionError(f"criterion {number} exceeded runtime limit: {elapsed:.2f}s > {limit_s}s")
    print(f"[PASS] criterion {number:2d} ({elapsed:6.2f}s): {description}")


def test_criterion_01_eigen_table_4x4():
    with criterion(1, "4x4 harmonic eigenvalue table matches the reference values", 1.0):
        kernel = build_kernel(GridDims.of(4, 4), Metric.LEE, HARMONIC)
        table = eigen_table(kernel)
        got = 12.0 * table.values.reshape(4, 4)
        assert np.abs(got - TWELVE_LAMBDA_4X4).max() <= 1e-12


def test_criterion_02_row_configuration_energy():
    with criterion(2, "row configuration on 4x4 has total energy 10", 1.0):
        dims = GridDims.of(4, 4)
        report = energies(Configuration.from_sites(dims, ROW_CONFIG_4X4), Metric.LEE, HARMONIC)
        assert abs(report.e_tot - 10.0) <= 1e-12


def test_criterion_03_half_filling_brute_force():
    with criterion(3, "4x4 exhaustive search at p=8: exactly the two checkerboards win, both objectives", 1.0):
        dims = GridDims.of(4, 4)
        boards = {checkerboard(dims, "even").members, checkerboard(dims, "odd").members}
        assert math.comb(dims.order, 8) == 12870
        for objective in ("total", "max"):
            hits = brute_force(dims, Metric.LEE, HARMONIC, 8, objective=objective, top_k=4)
            optima = {h.config.members for h in hits if h.value <= hits[0].value + 1e-9}
            assert optima == boards


def test_criterion_04_quarter_filling_orbits():
    with criterion(4, "4x4 exhaustive search at p=4: three optimal orbits with the known structure", 1.0):
        dims = GridDims.of(4, 4)
        hits = brute_force(dims, Metric.LEE, HARMONIC, 4, objective="total",
                           top_k=8, reduce="translations")
        optima = [h for h in hits if h.value <= hits[0].value + 1e-9]
        assert len(optima) == 3
        expected = {
            Configuration.from_sites(dims, pattern).canonical().members
            for pattern in P4_OPTIMAL_PATTERNS
        }
        assert {h.config.members for h in optima} == expected
        assert sorted(is_coset(h.config).is_coset for h in optima) == [False, True, True]
        assert all(energies(h.config, Metric.LEE, HARMONIC).is_equienergetic for h in optima)


def test_criterion_05_weak_power_argmin():
    with criterion(5, "10x10 grid with exponent 0.3: unique spectral argmin at (5, 5)", 1.0):
        dims = GridDims.of(10, 10)
        table = eigen_table(build_kernel(dims, Metric.LEE, InversePower(0.3)))
        lam_min, argmin = min_nontrivial(table)
        assert argmin == [(5, 5)]
        others = np.delete(table.values[1:], site_index(dims, (5, 5)) - 1)
        assert others.min() - lam_min > default_tie_tol(lam_min)


def test_criterion_06_squared_euclid_curve():
    with criterion(6, "squared-Euclidean factor curve (n=8, a=1.05): minimum at {2, 6}, not 4", 1.0):
        curve = factor_curve(8, 1.05, 2)
        assert curve.argmin == (2, 6)
        assert curve.value_at(4) > curve.value_at(2)


def test_criterion_07_geometric_closed_forms():
    with criterion(7, "factor curves match the geometric closed forms to 1e-12 relative", 1.0):
        for n in (4, 8, 12, 16):
            for a in (1.01, 1.2, 2.0, 10.0):
                curve = factor_curve(n, a, 1)
                for k in range(n):
                    closed = factor_closed_form(n, a, k)
                    assert closed > 0
                    assert abs(curve.values[k] - closed) <= 1e-12 * abs(closed)
                assert curve.argmin == (n // 2,)


def test_criterion_08_hypercube_regime():
    with criterion(8, "size-two grids up to dimension 10: argmin at all-(-1), gaps match to 1e-10", 10.0):
        for d in range(1, 11):
            dims = GridDims(tuple([2] * d))
            for f in (HARMONIC, ExponentialAtom(2.0, "distance")):
                table = eigen_table(build_kernel(dims, Metric.LEE, f))
                lam_min, argmin = min_nontrivial(table)
                assert argmin == [(1,) * d]
                for q in range(d):
                    chi_plus = (0,) + (0,) * q + (1,) * (d - 1 - q)
                    chi_minus = (1,) + (0,) * q + (1,) * (d - 1 - q)
                    expected = (
                        table.values[site_index(dims, chi_plus)]
                        - table.values[site_index(dims, chi_minus)]
                    )
                    gap = hypercube_gap(d, f, q)
                    assert gap > 0
                    assert abs(gap - float(expected)) <= 1e-10


def test_criterion_09_cycle_regime():
    with criterion(9, "even cycles 4..64: unique argmin at n/2; derivative closed form checks out", 5.0):
        for n in range(4, 65, 2):
            table = eigen_table(build_kernel(GridDims.of(n), Metric.LEE, HARMONIC))
            lam_min, argmin = min_nontrivial(table)
            assert argmin == [(n // 2,)]
            rng = np.random.default_rng(n)
            h = 1e-4
            for _ in range(100):
                x = float(rng.uniform(0.01 + h, n - 0.01 - h))
                fd = (kappa(n, x + h) - kappa(n, x - h)) / (2 * h)
                assert abs(kappa_prime(n, x) - fd) <= 1e-6
                if x < n / 2:
                    assert kappa_prime(n, x) <= 1e-15
                else:
                    assert kappa_prime(n, x) >= -1e-15


def test_criterion_10_certificates_and_tightness():
    with criterion(10, "two-or-multiple-of-four grids: certificates hold and the bound is tight", 5.0):
        dims_list = [(2, 2), (4, 4), (2, 4), (4, 8), (2, 2, 4), (8, 8)]
        for sizes in dims_list:
            for alpha in (1.0, 2.0, 0.3):
                cert = checkerboard_certificate(GridDims(sizes), Metric.LEE, InversePower(alpha))
                assert cert.certified, (sizes, alpha)
                rel = abs(cert.checkerboard_e_tot - cert.optimal_value) / abs(cert.optimal_value)
                assert rel <= 1e-9


def test_criterion_11_oracle_equivalence():
    with criterion(11, "randomized transforms agree with direct summation; exhaustive minima dominate the bound", 30.0):
        rng = np.random.default_rng(20260811)
        metrics = list(Metric)
        size_pool = [2, 3, 4, 5, 6, 7, 8]
        for i in range(20):
            while True:
                d = int(rng.integers(1, 4))
                sizes = tuple(int(rng.choice(size_pool)) for _ in range(d))
                if math.prod(sizes) <= 512:
                    break
            dims = GridDims(sizes)
            metric = metrics[i % 4]
            kind = i % 3
            if kind == 0:
                f = InversePower(float(rng.uniform(0.3, 3.0)))
            elif kind == 1:
                exponent = "distance" if i % 2 else "distance_squared"
                f = ExponentialAtom(float(rng.uniform(1.05, 3.0)), exponent)
            else:
                f = tabulated_from_instance(dims, metric, lambda x: (1.0 + x) ** -0.8)
            kernel = build_kernel(dims, metric, f)
            table = eigen_table(kernel)
            assert np.abs(table.values - direct_eigen_oracle(kernel)).max() <= 1e-9
        for sizes, p in [((2, 2), 2), ((2, 3), 3), ((4, 4), 6), ((18,), 9), ((2, 2, 2), 4), ((5, 2), 5)]:
            dims = GridDims(sizes)
            table = eigen_table(build_kernel(dims, Metric.LEE, HARMONIC))
            bound = solve_relaxation(table, p).optimal_value
            best = brute_force(dims, Metric.LEE, HARMONIC, p, top_k=1)[0].value
            assert best >= bound - 1e-9


def test_criterion_12_chebyshev_counterexample():
    with criterion(12, "6x6 Chebyshev search beats the checkerboard's maximal energy", 60.0):
        dims = GridDims.of(6, 6)
        board = energies(checkerboard(dims), Metric.CHEBYSHEV, HARMONIC)
        result = local_search(dims, Metric.CHEBYSHEV, HARMONIC, 18,
                              objective="max", restarts=200, rng_seed=0)
        assert result.config.p == 18
        assert result.value < board.e_max - 1e-9
