import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from toric_lab import configs
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
from toric_lab.energy import ExponentialAtom, InversePower, build_kernel
from toric_lab.grid import GridDims, Metric
from toric_lab.spectrum import eigen_table, solve_relaxation

from support import (
    P4_OPTIMAL_PATTERNS,
    ROW_CONFIG_4X4,
    brute_min_total,
    coords_array,
    cosets_of,
    descent_oracle,
    enumerate_subgroups,
    enumerate_sites,
    full_kernel,
    local_search_oracle,
    translate_oracle,
)

HARMONIC = InversePower(1.0)


def harmonic_kernel(sizes, metric=Metric.LEE, f=HARMONIC):
    dims = GridDims(sizes)
    return dims, build_kernel(dims, metric, f)


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
            Configuration(dims, (4,))

    def test_members_are_sorted_indices(self):
        dims = GridDims.of(2, 2)
        assert Configuration.from_indices(dims, [3, 1, 1]).members == (1, 3)
        for members in [(2, 1), (1, 1), (-1,)]:
            with pytest.raises(ValueError):
                Configuration(dims, members)

    def test_large_grid_members_stay_small(self):
        # 2048 members on 16.7M sites: the configuration holds the members, not the grid
        dims = GridDims.of(4096, 4096)
        idx = np.random.default_rng(0).choice(dims.order, size=2048, replace=False)
        tracemalloc.start()
        try:
            indices = Configuration.from_indices(dims, idx).members
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert indices == tuple(sorted(idx.tolist()))
        assert peak < 4 * 2**20

    def test_translate_and_canonical(self):
        dims = GridDims.of(4, 4)
        config = Configuration.from_sites(dims, [(1, 1), (1, 3), (3, 2), (3, 0)])
        shifted = config.translate((2, 1))
        assert shifted.p == config.p
        assert shifted.canonical() == config.canonical()
        assert config.canonical().members[0] == 0 or config.p == 0

    def test_translate_wraps_each_axis(self):
        dims = GridDims.of(4, 4)
        config = Configuration.from_sites(dims, [(0, 0), (3, 2)])
        assert config.translate((1, 3)).sites() == ((0, 1), (1, 3))
        assert config.translate((-3, 7)) == config.translate((1, 3))

    @pytest.mark.parametrize("shift", [(1, 2, 3), (1,)], ids=["too-long", "too-short"])
    def test_translate_refuses_wrong_length_shift(self, shift):
        config = Configuration.from_sites(GridDims.of(4, 4), ROW_CONFIG_4X4)
        with pytest.raises(ValueError, match=f"shift has {len(shift)} coordinates but the grid has 2"):
            config.translate(shift)

    def test_orbit_size(self):
        dims = GridDims.of(4, 4)
        assert checkerboard(dims).orbit_size() == 2
        row = Configuration.from_sites(dims, ROW_CONFIG_4X4)
        assert row.orbit_size() == 4

    def test_empty_configuration_is_its_own_orbit(self):
        empty = Configuration(GridDims.of(4, 4), ())
        assert empty.canonical() == empty
        assert empty.orbit_size() == 1


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
        x[list(config.members)] = 1.0
        assert report.e_tot == pytest.approx(float(x @ K @ x), rel=1e-12)

    def test_oversized_pair_table_refused(self):
        dims, kernel = harmonic_kernel((64, 64))
        with pytest.raises(BudgetExceededError, match="2049 x 2049"):
            energies(Configuration.from_indices(dims, range(2049)), kernel)

    def test_half_filling_64x64_peak(self):
        # two int64 p x p difference tables, overwritten in place by their wraps,
        # and the float gather; wraps as new arrays would add a p x p table per axis
        dims, kernel = harmonic_kernel((64, 64))
        config = checkerboard(dims)
        tracemalloc.start()
        try:
            report = energies(config, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.is_equienergetic
        assert peak <= 3 * config.p**2 * 8 + 2**20

    def test_large_grid_reads_only_member_pairs(self):
        # pair energies come off the kernel block; expanding the full 1024^2
        # table (8 MiB of doubles) would break the bound
        dims, kernel = harmonic_kernel((1024, 1024))
        rng = np.random.default_rng(3)
        config = Configuration.from_indices(dims, rng.choice(dims.order, 64, replace=False))
        tracemalloc.start()
        try:
            report = energies(config, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.per_site) == 64
        assert peak < 2 * 2**20

    def test_grid_mismatch(self):
        dims, kernel = harmonic_kernel((4, 4))
        other = Configuration.from_indices(GridDims.of(2, 2), [0])
        with pytest.raises(ValueError):
            energies(other, kernel)


class TestKernelMatrix:
    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("sizes", [(1,), (9,), (5, 7), (3, 4), (3, 5, 3), (2, 3, 5)])
    def test_bits_match_full_kernel(self, sizes, metric):
        dims, kernel = harmonic_kernel(sizes, metric, InversePower(0.7))
        coords = coords_array(dims)
        diff = (coords[:, None, :] - coords[None, :, :]) % np.array(sizes)
        at = np.ravel_multi_index(tuple(np.moveaxis(diff, 2, 0)), sizes)
        expected = full_kernel(kernel)[at]
        assert np.array_equal(kernel_matrix(kernel).view(np.uint64), expected.view(np.uint64))

    def test_peak_is_the_matrix(self):
        # one n_a x n_a difference table per axis, broadcast in the gather; a
        # |G| x |G| int64 index table per axis would add 32 MiB each
        dims, kernel = harmonic_kernel((32, 64))
        tracemalloc.start()
        try:
            K = kernel_matrix(kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K.shape == (2048, 2048)
        assert peak <= K.nbytes + 2**20


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

    def test_zero_budget_refuses_work_negative_budget_invalid(self):
        with pytest.raises(BudgetExceededError):
            brute_force(GridDims.of(4, 2), Metric.LEE, HARMONIC, 3, budget=0)
        assert brute_force(GridDims.of(4, 2), Metric.LEE, HARMONIC, 0, budget=0)[0].value == 0.0
        with pytest.raises(ValueError, match="budget must be at least 0, got -1"):
            brute_force(GridDims.of(4, 2), Metric.LEE, HARMONIC, 3, budget=-1)

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(objective="mean"), "objective must be 'total' or 'max', got 'mean'"),
            (dict(reduce="rotations"), "reduce must be 'none' or 'translations', got 'rotations'"),
            (dict(top_k=0), "top_k must be at least 1, got 0"),
        ],
        ids=["objective", "reduce", "top-k"],
    )
    def test_bad_arguments(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            brute_force(GridDims.of(4, 2), Metric.LEE, HARMONIC, 3, **kwargs)

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

    def test_reach_6x6_lee_p8_translations(self):
        # C(35, 7) = 6 724 520 leaves through site 0; the full enumeration took
        # 20-27 s, and its top hit is pinned here bit for bit
        hit = brute_force(GridDims.of(6, 6), Metric.LEE, HARMONIC, 8, reduce="translations")[0]
        assert hit.value.hex() == "0x1.199999999999ap+4"  # 17.6
        assert hit.config.members == (0, 3, 7, 16, 20, 23, 25, 34)
        assert hit.orbit_size == 36

    def test_translations_build_no_site_pair_table(self):
        # 2048 sites: a |G| x |G| table of site differences would add 32 MiB
        # to the kernel matrix's peak
        dims = GridDims.of(32, 64)
        peaks = {}
        for reduce in ("none", "translations"):
            tracemalloc.start()
            try:
                hits = brute_force(dims, Metric.LEE, HARMONIC, 2, reduce=reduce)
                peaks[reduce] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert hits[0].config.members == (0, 1056)
        assert peaks["translations"] <= peaks["none"] + 2**20
        # the 32 MiB kernel matrix plus batch arrays of at most _BATCH_PAIRS
        # entries each (about 4.4 MiB in all measured)
        assert max(peaks.values()) <= dims.order**2 * 8 + 8 * 2**20

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


def ranking_oracle(dims, kernel, p, objective, reduce, top_k):
    """First top_k subsets by (energies() value, member tuple); canonical translates only
    under reduce="translations", with their orbit sizes."""
    ranked = []
    for members in itertools.combinations(range(dims.order), p):
        report = energies(Configuration.from_indices(dims, members), kernel)
        ranked.append((report.e_tot if objective == "total" else report.e_max, members))
    ranked.sort()
    out = []
    for value, members in ranked:
        if len(out) == top_k:
            break
        sites = Configuration.from_indices(dims, members).sites()
        canonical, orbit, _ = translate_oracle(dims, sites)
        if reduce == "none":
            out.append((value, members, 1))
        elif canonical == sites:
            out.append((value, members, orbit))
    return out


def assert_definitional_ranking(sizes, metric, f, p, objective, reduce, top_k):
    dims, kernel = harmonic_kernel(sizes, metric, f)
    hits = brute_force(dims, metric, f, p, objective=objective, top_k=top_k, reduce=reduce)
    assert [(h.value, h.config.members, h.orbit_size) for h in hits] == ranking_oracle(
        dims, kernel, p, objective, reduce, top_k
    ), (sizes, metric, f, p, objective, reduce, top_k)


class TestRankingOracle:
    @pytest.mark.parametrize(
        "sizes, metric, p, objective, reduce, top_k",
        [
            ((4, 4), Metric.LEE, 3, "total", "none", 6),
            ((4, 4), Metric.LEE, 8, "total", "none", 20),  # 12 870 subsets: several batches
            ((3, 5), Metric.EUCLIDEAN, 5, "max", "translations", 10),
            ((18,), Metric.LEE, 9, "total", "translations", 10),
            # top_k cuts through a group of equal values: 3.5 and 44.0
            ((4, 4), Metric.LEE, 8, "max", "none", 5),
            ((2, 2, 4), Metric.CHEBYSHEV, 8, "total", "translations", 6),
            # one member, all but one, all
            ((2, 3), Metric.LEE, 1, "total", "none", 4),
            ((2, 3), Metric.LEE, 1, "max", "translations", 4),
            ((2, 3), Metric.EUCLIDEAN, 5, "max", "translations", 3),
            ((2, 3), Metric.CHEBYSHEV, 5, "total", "none", 7),
            ((2, 3), Metric.EUCLIDEAN_SQUARED, 6, "total", "none", 2),
            ((2, 3), Metric.LEE, 6, "max", "translations", 2),
        ],
    )
    def test_hits_are_the_definitional_ranking(self, sizes, metric, p, objective, reduce, top_k):
        assert_definitional_ranking(sizes, metric, HARMONIC, p, objective, reduce, top_k)

    @pytest.mark.parametrize(
        "sizes, metric, p, objective",
        [
            ((4, 4), Metric.EUCLIDEAN, 5, "total"),
            ((3, 5), Metric.LEE, 7, "total"),
            ((4, 4), Metric.EUCLIDEAN, 5, "max"),
            ((3, 5), Metric.EUCLIDEAN, 7, "max"),
        ],
    )
    def test_kernel_of_either_sign(self, sizes, metric, p, objective):
        # cos takes both signs over the distances: the bounds' min u terms are negative
        assert_definitional_ranking(sizes, metric, math.cos, p, objective, "none", 2)

    def test_random_instances(self):
        # grids of 6 to 16 sites, every metric, profiles of either curvature and
        # math.cos, a kernel of either sign; p is drawn among those with at most
        # 2000 subsets to keep the oracle quick
        rng = np.random.default_rng(2012)
        profiles = [HARMONIC, InversePower(0.3), InversePower(2.0), ExponentialAtom(1.05),
                    ExponentialAtom(2.0, "distance_squared"), math.cos]
        for case in range(36):
            sizes = ()
            while not 6 <= math.prod(sizes) <= 16:
                sizes = tuple(int(n) for n in rng.integers(1, 9, size=rng.integers(1, 4)))
            order = math.prod(sizes)
            p = int(rng.choice([q for q in range(1, order + 1) if math.comb(order, q) <= 2000]))
            objective = ("total", "max")[int(rng.integers(2))]
            reduce = ("none", "translations")[int(rng.integers(2))]
            top_k = int(rng.integers(1, 41))
            assert_definitional_ranking(sizes, list(Metric)[case % len(Metric)],
                                        profiles[case % len(profiles)], p, objective, reduce, top_k)


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

    def test_stacked_descent_is_the_oracle(self):
        # every row of a batch descends as descent_oracle descends that start alone:
        # members, e_max and e_tot bit for bit; 1 to 3 axes and 1 to 30 sites, p from 0 to |G|
        rng = np.random.default_rng(1515)
        profiles = [HARMONIC, InversePower(0.3), InversePower(2.0), ExponentialAtom(1.05),
                    ExponentialAtom(2.0, "distance_squared"), math.cos]
        for case in range(320):
            sizes = (31,)
            while math.prod(sizes) > 30:
                sizes = tuple(int(n) for n in rng.integers(1, 9, size=1 + case % 3))
            dims, kernel = harmonic_kernel(sizes, list(Metric)[case % len(Metric)],
                                           profiles[case % len(profiles)])
            order = dims.order
            if case % 5 < 2:  # the edges: nothing to swap, or one member or non-member
                p = int(rng.choice([0, 1, order - 1, order]))
            else:
                p = int(rng.integers(0, order + 1))
            objective = ("total", "max")[case // len(Metric) % 2]
            restarts = int(rng.integers(1, 12))
            starts = np.array([rng.choice(order, size=p, replace=False)
                               for _ in range(restarts)]).reshape(restarts, p)
            K = kernel_matrix(kernel)
            members, e_max, e_tot = configs._descend(K, starts, objective)
            for row, start in enumerate(starts):
                want = descent_oracle(K, start, objective)
                got = (members[row], float(e_max[row]), float(e_tot[row]))
                where = (sizes, case, p, objective, row)
                assert np.array_equal(got[0], want[0]), where
                assert (got[1].hex(), got[2].hex()) == (want[1].hex(), want[2].hex()), where

    @pytest.mark.parametrize("batch_pairs", [1, 40, 200])
    def test_winner_across_batches(self, batch_pairs, monkeypatch):
        # batches of one to a few restarts: the winner is still the first restart of
        # least key, as one descent per restart finds it
        monkeypatch.setattr(configs, "_BATCH_PAIRS", batch_pairs)
        rng = np.random.default_rng(batch_pairs)
        for case in range(24):
            sizes = ((3, 4), (5, 5), (2, 2, 3), (13,))[case % 4]
            metric = list(Metric)[case % len(Metric)]
            dims, kernel = harmonic_kernel(sizes, metric)
            p = int(rng.integers(0, dims.order + 1))
            objective = ("total", "max")[case // 4 % 2]
            restarts, seed = int(rng.integers(1, 14)), int(rng.integers(2**31))
            hit = local_search(dims, metric, HARMONIC, p, objective, restarts, seed)
            want = local_search_oracle(kernel_matrix(kernel), p, objective, restarts, seed)
            assert hit.config.members == tuple(want.tolist()), (sizes, p, objective, restarts)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    @pytest.mark.parametrize(
        "sizes, metric, p, objective, restarts",
        [
            ((6, 6), Metric.CHEBYSHEV, 18, "max", 200),
            ((12, 12), Metric.CHEBYSHEV, 72, "max", 5),
            ((16, 16), Metric.LEE, 64, "total", 10),
        ],
    )
    def test_benchmark_instances(self, sizes, metric, p, objective, restarts, seed):
        # the local instances of the benchmark's search workload
        dims, kernel = harmonic_kernel(sizes, metric)
        hit = local_search(dims, metric, HARMONIC, p, objective, restarts, seed)
        want = local_search_oracle(kernel_matrix(kernel), p, objective, restarts, seed)
        assert hit.config.members == tuple(want.tolist())
        report = energies(hit.config, kernel)
        assert hit.value == (report.e_tot if objective == "total" else report.e_max)

    def test_memory_does_not_grow_with_restarts(self, monkeypatch):
        # each batch holds at most _BATCH_PAIRS // (p (|G| - p)) = 12 restarts of
        # 12x12 p = 72, so 500 restarts peak about where 5 do.  Batches of all 500
        # would hold 500 x 72 x 72 score entries, 20 MB per array.  One step per
        # descent allocates every array a step does, in a second.
        monkeypatch.setattr(configs, "_MAX_DESCENT_STEPS", 1)
        args = (GridDims.of(12, 12), Metric.CHEBYSHEV, HARMONIC, 72)
        peaks = {}
        for restarts in (5, 500):
            tracemalloc.start()
            try:
                local_search(*args, objective="max", restarts=restarts, rng_seed=0)
                peaks[restarts] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[500] <= peaks[5] + 4 * 2**20, peaks

    def test_max_swap_tensor_refused(self):
        # one descent step would score 512 x 512 x 512 swap terms, 32 times the 2048^2 limit
        with pytest.raises(BudgetExceededError, match="512 x 512 x 512"):
            local_search(GridDims.of(32, 32), Metric.LEE, HARMONIC, 512, objective="max")

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            local_search(GridDims.of(2, 2), Metric.LEE, HARMONIC, 1, objective="median")
        with pytest.raises(ValueError):
            local_search(GridDims.of(2, 2), Metric.LEE, HARMONIC, 9)
        with pytest.raises(ValueError):
            local_search(GridDims.of(2, 2), Metric.LEE, HARMONIC, 1, restarts=0)
