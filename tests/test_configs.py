import numpy as np
import pytest

from toric_lab.configs import (
    BudgetExceededError,
    Configuration,
    brute_force,
    checkerboard,
    energies,
    is_coset,
    kernel_matrix,
    local_search,
)
from toric_lab.energy import InversePower, build_kernel
from toric_lab.grid import GridDims, Metric, enumerate_sites
from toric_lab.spectrum import eigen_table, solve_relaxation

from support import (
    P4_OPTIMAL_PATTERNS,
    ROW_CONFIG_4X4,
    brute_min_total,
    cosets_of,
    enumerate_subgroups,
    translate_oracle,
)

HARMONIC = InversePower(1.0)


def harmonic_kernel(sizes, metric=Metric.LEE):
    dims = GridDims(sizes)
    return dims, build_kernel(dims, metric, HARMONIC)


class TestConfiguration:
    def test_round_trip(self):
        dims = GridDims.of(4, 4)
        config = Configuration.from_sites(dims, ROW_CONFIG_4X4)
        assert config.p == 4
        assert config.sites() == tuple(sorted(ROW_CONFIG_4X4))
        assert (0, 2) in config
        assert (1, 2) not in config

    def test_index_bounds(self):
        dims = GridDims.of(2, 2)
        with pytest.raises(ValueError):
            Configuration.from_indices(dims, [4])
        with pytest.raises(ValueError):
            Configuration(dims, 1 << 4)

    def test_translate_and_canonical(self):
        dims = GridDims.of(4, 4)
        config = Configuration.from_sites(dims, [(1, 1), (1, 3), (3, 2), (3, 0)])
        shifted = config.translate((2, 1))
        assert shifted.p == config.p
        assert shifted.canonical() == config.canonical()
        assert config.canonical().indices()[0] == 0 or config.p == 0

    def test_orbit_size(self):
        dims = GridDims.of(4, 4)
        assert checkerboard(dims).orbit_size() == 2
        row = Configuration.from_sites(dims, ROW_CONFIG_4X4)
        assert row.orbit_size() == 4


def assert_matches_translate_oracle(config):
    canonical, orbit, subgroup = translate_oracle(config.dims, config.sites())
    assert config.canonical().sites() == canonical
    assert config.orbit_size() == orbit
    check = is_coset(config)
    assert check.is_coset == (subgroup is not None)
    assert check.subgroup == subgroup


class TestTranslateOracle:
    @pytest.mark.parametrize("sizes", [(3, 5), (2, 2, 2), (4, 6), (12,), (3, 3, 3)])
    def test_random_configurations_and_cosets(self, sizes):
        dims = GridDims(sizes)
        rng = np.random.default_rng(len(sizes) * 100 + dims.order)
        for _ in range(60):
            p = int(rng.integers(1, dims.order + 1))
            assert_matches_translate_oracle(
                Configuration.from_indices(dims, rng.choice(dims.order, p, replace=False))
            )
        for subgroup in enumerate_subgroups(dims):
            for coset in cosets_of(dims, subgroup):
                assert_matches_translate_oracle(Configuration.from_sites(dims, coset))

    def test_grid_above_dense_matrix_cap(self):
        # 4096 sites: the orbit answers need only the p x p member table
        dims = GridDims.of(64, 64)
        rng = np.random.default_rng(64)
        assert_matches_translate_oracle(
            Configuration.from_indices(dims, rng.choice(dims.order, 40, replace=False))
        )
        lattice = Configuration.from_sites(
            dims, [(3 + 8 * i, 5 + 8 * j) for i in range(8) for j in range(8)]
        )
        assert_matches_translate_oracle(lattice)
        assert is_coset(lattice).is_coset
        assert lattice.orbit_size() == 64


class TestEnergies:
    def test_row_configuration_total(self):
        dims, kernel = harmonic_kernel((4, 4))
        report = energies(Configuration.from_sites(dims, ROW_CONFIG_4X4), kernel)
        assert report.e_tot == pytest.approx(10.0, rel=1e-12)
        assert report.is_equienergetic

    def test_singleton(self):
        dims, kernel = harmonic_kernel((4, 4))
        report = energies(Configuration.from_sites(dims, [(1, 2)]), kernel)
        assert report.e_tot == 0.0
        assert report.e_max == 0.0
        assert not report.is_empty

    def test_empty_flagged(self):
        dims, kernel = harmonic_kernel((4, 4))
        report = energies(Configuration.from_indices(dims, []), kernel)
        assert report.is_empty
        assert report.e_tot == 0.0
        assert report.per_site == {}

    def test_checkerboard_4x4(self):
        dims, kernel = harmonic_kernel((4, 4))
        report = energies(checkerboard(dims), kernel)
        assert report.e_tot == pytest.approx(26.0, rel=1e-12)
        assert report.is_equienergetic
        for value in report.per_site.values():
            assert value == pytest.approx(13.0 / 4.0, rel=1e-12)

    def test_translation_invariance(self):
        dims, kernel = harmonic_kernel((4, 6), Metric.EUCLIDEAN)
        rng = np.random.default_rng(9)
        sites = list(enumerate_sites(dims))
        config = Configuration.from_sites(dims, [sites[i] for i in rng.choice(len(sites), 7, replace=False)])
        base = energies(config, kernel)
        for _ in range(25):
            shift = sites[rng.integers(len(sites))]
            moved = energies(config.translate(shift), kernel)
            assert moved.e_tot == pytest.approx(base.e_tot, rel=1e-12)
            assert moved.e_max == pytest.approx(base.e_max, rel=1e-12)
            assert sorted(moved.per_site.values()) == pytest.approx(
                sorted(base.per_site.values()), rel=1e-12
            )

    def test_pairwise_equals_quadratic_form(self):
        dims, kernel = harmonic_kernel((4, 5), Metric.CHEBYSHEV)
        config = Configuration.from_sites(dims, [(0, 0), (1, 2), (2, 4), (3, 1), (0, 3)])
        report = energies(config, kernel)
        K = kernel_matrix(kernel)
        x = np.zeros(dims.order)
        x[list(config.indices())] = 1.0
        assert report.e_tot == pytest.approx(float(x @ K @ x), rel=1e-12)

    def test_oversized_pair_table_refused(self):
        dims, kernel = harmonic_kernel((64, 64))
        with pytest.raises(BudgetExceededError, match="2049 x 2049"):
            energies(Configuration.from_indices(dims, range(2049)), kernel)

    def test_grid_mismatch(self):
        dims, kernel = harmonic_kernel((4, 4))
        other = Configuration.from_indices(GridDims.of(2, 2), [0])
        with pytest.raises(ValueError):
            energies(other, kernel)


class TestIsCoset:
    def test_checkerboard_is_coset(self):
        dims = GridDims.of(4, 4)
        check = is_coset(checkerboard(dims))
        assert check.is_coset
        assert set(check.subgroup) == {s for s in enumerate_sites(dims) if sum(s) % 2 == 0}

    def test_non_coset_optimum(self):
        dims = GridDims.of(4, 4)
        config = Configuration.from_sites(dims, [(0, 0), (1, 1), (2, 3), (3, 2)])
        assert not is_coset(config).is_coset

    def test_singleton_and_shifted_subgroup(self):
        dims = GridDims.of(4, 4)
        assert is_coset(Configuration.from_sites(dims, [(2, 3)])).is_coset
        shifted = Configuration.from_sites(dims, [(1, 1), (1, 3), (3, 1), (3, 3)])
        assert is_coset(shifted).is_coset

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_coset(Configuration.from_indices(GridDims.of(2, 2), []))

    @pytest.mark.parametrize("sizes", [(12,), (6, 6), (2, 2, 2), (8, 8)])
    def test_cosets_are_equienergetic(self, sizes):
        dims, kernel = harmonic_kernel(sizes)
        for subgroup in enumerate_subgroups(dims):
            for coset in cosets_of(dims, subgroup):
                config = Configuration.from_sites(dims, coset)
                assert is_coset(config).is_coset
                assert energies(config, kernel).is_equienergetic


class TestBruteForce:
    def test_half_filling_both_objectives(self):
        dims = GridDims.of(4, 4)
        boards = {checkerboard(dims, "even").members, checkerboard(dims, "odd").members}
        for objective in ("total", "max"):
            hits = brute_force(dims, Metric.LEE, HARMONIC, 8, objective=objective, top_k=4)
            optima = [h for h in hits if h.value <= hits[0].value + 1e-9]
            assert len(optima) == 2
            assert {h.config.members for h in optima} == boards

    def test_quarter_filling_three_orbits(self):
        dims = GridDims.of(4, 4)
        hits = brute_force(
            dims, Metric.LEE, HARMONIC, 4, objective="total", top_k=8, reduce="translations"
        )
        optima = [h for h in hits if h.value <= hits[0].value + 1e-9]
        assert len(optima) == 3
        expected = {
            Configuration.from_sites(dims, pattern).canonical().members
            for pattern in P4_OPTIMAL_PATTERNS
        }
        assert {h.config.members for h in optima} == expected
        kernel = build_kernel(dims, Metric.LEE, HARMONIC)
        coset_flags = sorted(is_coset(h.config).is_coset for h in optima)
        assert coset_flags == [False, True, True]
        for h in optima:
            assert energies(h.config, kernel).is_equienergetic

    def test_full_grid_single_configuration(self):
        dims = GridDims.of(2, 3)
        hits = brute_force(dims, Metric.LEE, HARMONIC, dims.order, top_k=3)
        assert len(hits) == 1
        assert hits[0].config.p == dims.order

    def test_empty_p(self):
        hits = brute_force(GridDims.of(2, 2), Metric.LEE, HARMONIC, 0)
        assert len(hits) == 1
        assert hits[0].value == 0.0

    def test_values_match_definition(self):
        dims = GridDims.of(3, 3)
        for p in (2, 4):
            best = brute_force(dims, Metric.LEE, HARMONIC, p, top_k=1)[0].value
            assert best == pytest.approx(brute_min_total(dims, Metric.LEE, HARMONIC, p), rel=1e-12)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError, match="exceeds budget"):
            brute_force(GridDims.of(6, 6), Metric.LEE, HARMONIC, 18, budget=10**6)

    def test_budget_counts_enumerated_leaves(self):
        # leaves x p^2: C(16, 8) * 64 = 823 680 for all subsets,
        # C(15, 7) * 64 = 411 840 for the subsets through site 0
        dims = GridDims.of(4, 4)
        with pytest.raises(BudgetExceededError, match="exceeds budget"):
            brute_force(dims, Metric.LEE, HARMONIC, 8, reduce="none", budget=500_000)
        hits = brute_force(dims, Metric.LEE, HARMONIC, 8, reduce="translations", budget=500_000)
        assert hits[0].orbit_size == 2
        with pytest.raises(BudgetExceededError, match="exceeds budget"):
            brute_force(dims, Metric.LEE, HARMONIC, 8, reduce="translations", budget=411_839)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            brute_force(GridDims.of(2, 2), Metric.LEE, HARMONIC, 5)

    def test_deterministic_ordering(self):
        dims = GridDims.of(4, 4)
        first = brute_force(dims, Metric.LEE, HARMONIC, 3, top_k=6)
        second = brute_force(dims, Metric.LEE, HARMONIC, 3, top_k=6)
        assert [(h.value, h.config.members) for h in first] == [
            (h.value, h.config.members) for h in second
        ]
        values = [h.value for h in first]
        assert values == sorted(values)

    def test_orbit_sizes(self):
        dims = GridDims.of(4, 4)
        hits = brute_force(dims, Metric.LEE, HARMONIC, 8, top_k=1, reduce="translations")
        assert hits[0].orbit_size == 2  # the checkerboard orbit
        plain = brute_force(dims, Metric.LEE, HARMONIC, 8, top_k=1)
        assert plain[0].orbit_size == 1

    def test_orbit_reduction_consistent_with_posthoc_dedup(self):
        dims = GridDims.of(3, 3)
        reduced = brute_force(dims, Metric.LEE, HARMONIC, 3, top_k=50, reduce="translations")
        raw = brute_force(dims, Metric.LEE, HARMONIC, 3, top_k=100, reduce="none")
        assert len(raw) == 84  # C(9, 3): the full enumeration
        seen = {}
        for h in raw:
            seen.setdefault(h.config.canonical().members, h.value)
        assert {h.config.members: h.value for h in reduced} == seen
        assert sum(h.orbit_size for h in reduced) == 84

    def test_dense_matrix_cap(self):
        big = build_kernel(GridDims.of(50, 50), Metric.LEE, HARMONIC)
        with pytest.raises(BudgetExceededError, match="kernel matrix"):
            kernel_matrix(big)

    def test_max_objective_checkerboard_logic(self):
        # unique total-energy optima that are cosets force the same optima for
        # maximal energy; exhaustive max search must agree end to end
        dims = GridDims.of(2, 4)
        total_hits = brute_force(dims, Metric.LEE, HARMONIC, 4, objective="total", top_k=4)
        max_hits = brute_force(dims, Metric.LEE, HARMONIC, 4, objective="max", top_k=4)
        total_optima = {h.config.members for h in total_hits if h.value <= total_hits[0].value + 1e-9}
        max_optima = {h.config.members for h in max_hits if h.value <= max_hits[0].value + 1e-9}
        boards = {checkerboard(dims, "even").members, checkerboard(dims, "odd").members}
        assert total_optima == boards
        assert max_optima == boards


class TestRelaxationDominance:
    @pytest.mark.parametrize("sizes", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4), (18,)])
    def test_every_p(self, sizes):
        dims = GridDims(sizes)
        kernel = build_kernel(dims, Metric.LEE, HARMONIC)
        table = eigen_table(kernel)
        for p in range(dims.order + 1):
            bound = solve_relaxation(table, p).optimal_value
            best = brute_force(dims, Metric.LEE, HARMONIC, p, top_k=1)[0].value
            assert best >= bound - 1e-9


class TestLocalSearch:
    def test_singleton(self):
        result = local_search(GridDims.of(4, 4), Metric.LEE, HARMONIC, 1, rng_seed=3)
        assert result.config.p == 1
        assert result.value == 0.0

    def test_deterministic(self):
        args = (GridDims.of(5, 5), Metric.EUCLIDEAN, InversePower(0.7), 7)
        a = local_search(*args, objective="max", restarts=5, rng_seed=42)
        b = local_search(*args, objective="max", restarts=5, rng_seed=42)
        assert a.config.members == b.config.members
        assert a.value == b.value
        c = local_search(*args, objective="max", restarts=5, rng_seed=43)
        assert isinstance(c.value, float)

    def test_total_objective_finds_checkerboard_on_4x4(self):
        result = local_search(
            GridDims.of(4, 4), Metric.LEE, HARMONIC, 8, objective="total", restarts=20, rng_seed=0
        )
        assert result.value == pytest.approx(26.0, rel=1e-9)

    def test_chebyshev_beats_checkerboard_6x6(self):
        dims = GridDims.of(6, 6)
        kernel = build_kernel(dims, Metric.CHEBYSHEV, HARMONIC)
        board = energies(checkerboard(dims), kernel)
        result = local_search(
            dims, Metric.CHEBYSHEV, HARMONIC, 18, objective="max", restarts=200, rng_seed=0
        )
        assert result.value < board.e_max - 1e-9
        assert result.config.p == 18

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            local_search(GridDims.of(2, 2), Metric.LEE, HARMONIC, 1, objective="median")
        with pytest.raises(ValueError):
            local_search(GridDims.of(2, 2), Metric.LEE, HARMONIC, 9)
        with pytest.raises(ValueError):
            local_search(GridDims.of(2, 2), Metric.LEE, HARMONIC, 1, restarts=0)
