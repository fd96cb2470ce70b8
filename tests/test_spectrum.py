import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from toric_lab import spectrum
from toric_lab.configs import brute_force, checkerboard, energies
from toric_lab.energy import ExponentialAtom, InversePower, KernelTable, Tabulated, build_kernel
from toric_lab.grid import (
    GridDims,
    Metric,
    block_shape,
    index_to_sites,
    site_index,
)
from toric_lab.spectrum import (
    EigenTable,
    RelaxationSolution,
    checkerboard_certificate,
    default_tie_tol,
    eigen_table,
    min_nontrivial,
    solve_relaxation,
)

from support import (
    TWELVE_LAMBDA_4X4,
    conjugate_character,
    direct_eigen_oracle,
    eigen_block_oracle,
    enumerate_sites,
    full_kernel,
    full_scan_argmin,
)

HARMONIC = InversePower(1.0)


def harmonic_4x4():
    dims = GridDims.of(4, 4)
    return dims, build_kernel(dims, Metric.LEE, HARMONIC)


class TestEigenTable:
    def test_4x4_reference_table(self):
        dims, kernel = harmonic_4x4()
        table = eigen_table(kernel)
        got = 12.0 * table.values.reshape(4, 4)
        np.testing.assert_allclose(got, TWELVE_LAMBDA_4X4, rtol=0, atol=1e-12)

    def test_values_not_kept(self):
        # the |G| table is expanded from the block on each read, not cached on the table
        table = eigen_table(harmonic_4x4()[1])
        assert table.values.shape == (16,)
        assert "values" not in vars(table)

    def test_named_entry(self):
        dims, kernel = harmonic_4x4()
        table = eigen_table(kernel)
        # character with per-axis roots (1, i) sits at indices (0, 1)
        assert table.value_at((0, 1)) == pytest.approx(13.0 / 12.0, abs=1e-13)

    @pytest.mark.parametrize("sizes", [(4, 4), (5, 2, 7), (9,), (1, 6)])
    def test_value_at_reads_every_character(self, sizes):
        dims = GridDims(sizes)
        table = eigen_table(build_kernel(dims, Metric.EUCLIDEAN, InversePower(0.7)))
        for chi in enumerate_sites(dims):
            assert table.value_at(chi) == table.values[site_index(dims, chi)]

    def test_value_at_wraps_coordinates(self):
        dims, kernel = harmonic_4x4()
        table = eigen_table(kernel)
        assert table.value_at((-1, 5)) == table.value_at((3, 1)) == table.values[site_index(dims, (3, 1))]
        for chi in enumerate_sites(dims):
            for shift in [(-4, 0), (0, 8), (-8, -12), (4, 4)]:
                moved = tuple(c + s for c, s in zip(chi, shift))
                assert table.value_at(moved) == table.value_at(chi)

    def test_trivial_character_is_kernel_sum(self):
        dims = GridDims.of(3, 5)
        kernel = build_kernel(dims, Metric.CHEBYSHEV, InversePower(0.4))
        table = eigen_table(kernel)
        assert table.values[0] == pytest.approx(full_kernel(kernel).sum(), rel=1e-12)

    def test_6x6_matches_direct_sum(self):
        dims = GridDims.of(6, 6)
        kernel = build_kernel(dims, Metric.LEE, HARMONIC)
        table = eigen_table(kernel)
        np.testing.assert_allclose(table.values, direct_eigen_oracle(kernel), atol=1e-10)

    @pytest.mark.parametrize("sizes", [(7,), (2, 5), (4, 4), (2, 3, 4), (1, 6), (5, 2, 7), (3, 3, 3)])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_fft_matches_reference(self, sizes, metric):
        kernel = build_kernel(GridDims(sizes), metric, InversePower(0.8))
        fast = eigen_table(kernel)
        np.testing.assert_allclose(fast.values, direct_eigen_oracle(kernel), atol=1e-10)

    def test_fft_matches_oracle_at_4096_sites(self):
        kernel = build_kernel(GridDims.of(16, 16, 16), Metric.LEE, InversePower(0.6))
        fast = eigen_table(kernel)
        scale = 1.0 + float(np.abs(full_kernel(kernel)).sum())
        assert float(np.abs(fast.values - direct_eigen_oracle(kernel)).max()) <= 1e-9 * scale

    def test_trivial_character_is_maximal(self):
        for sizes, metric in [((4, 4), Metric.LEE), ((9,), Metric.EUCLIDEAN), ((2, 6), Metric.CHEBYSHEV)]:
            kernel = build_kernel(GridDims(sizes), metric, InversePower(1.1))
            table = eigen_table(kernel)
            assert table.values[0] == max(table.values)

    def test_conjugation_symmetry_exact(self):
        dims = GridDims.of(5, 4)
        kernel = build_kernel(dims, Metric.EUCLIDEAN, InversePower(1.3))
        table = eigen_table(kernel)
        for i, chi in enumerate(index_to_sites(dims, np.arange(dims.order))):
            j = site_index(dims, conjugate_character(dims, chi))
            assert table.values[i] == table.values[j]

    def test_parseval(self):
        for sizes, metric in [((6, 6), Metric.LEE), ((8,), Metric.EUCLIDEAN_SQUARED), ((3, 4), Metric.CHEBYSHEV)]:
            kernel = build_kernel(GridDims(sizes), metric, InversePower(0.9))
            table = eigen_table(kernel)
            lhs = float((table.values**2).sum())
            rhs = kernel.dims.order * float((full_kernel(kernel) ** 2).sum())
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_kernel_block_shape_checked(self):
        # a kernel is stored on its fundamental block; a table of any other
        # shape, such as the full table of a 5-cycle, is refused
        with pytest.raises(ValueError, match="kernel block has shape"):
            KernelTable(dims=GridDims.of(5), block=np.array([0.0, 1.0, 0.5, 0.5, 0.25]))
        with pytest.raises(ValueError, match="kernel block has shape"):
            KernelTable(dims=GridDims.of(4, 3), block=np.zeros((3, 3)))
        kernel = KernelTable(dims=GridDims.of(4, 3), block=np.zeros((3, 2)))
        assert full_kernel(kernel).shape == (12,)

    @pytest.mark.parametrize("table, name", [(KernelTable, "kernel"), (EigenTable, "eigenvalue")])
    @pytest.mark.parametrize("shape", [(4, 4), (3, 4)], ids=["full-table", "one-axis-full"])
    def test_block_shape_checked_alike(self, table, name, shape):
        # both tables are stored on the (3, 3) block of 4x4: the full table, read
        # row-major, would put eigenvalues at the wrong characters
        expected = f"{name} block has shape {shape}, expected (3, 3) for grid 4x4"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            table(GridDims.of(4, 4), np.arange(float(np.prod(shape))).reshape(shape))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("sizes, entry", [((4, 4), (0, 1)), ((5,), (2,)), ((2, 2), (1, 1))])
    def test_non_finite_kernel_refused(self, sizes, entry, bad):
        # a hand-built block with an inf or NaN entry leaves inf or NaN eigenvalues,
        # and so does a finite block of 1e308 entries, whose sums overflow; both are
        # refused, which takes a check of the output, since the finite block would
        # pass a check of the input
        dims = GridDims(sizes)
        block = build_kernel(dims, Metric.LEE, HARMONIC).block.copy()
        block[entry] = bad
        for refused in (block, np.full_like(block, 1e308)):
            with pytest.raises(ValueError, match="kernel eigenvalues not finite"):
                eigen_table(KernelTable(dims=dims, block=refused))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("entry", [1e308, -1e308])
    def test_one_sided_overflow_refused(self, entry):
        # on two sites the eigenvalues are u0 + u1 and u0 - u1: here one overflows
        # to inf of the entries' sign and the other is 0, so the check must read
        # both the least and the greatest eigenvalue
        with pytest.raises(ValueError, match="kernel eigenvalues not finite"):
            eigen_table(KernelTable(dims=GridDims.of(2), block=np.full(2, entry)))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="long double is no wider than float64"
    )
    @pytest.mark.parametrize(
        "sizes", [(2,), (7,), (64,), (1, 64), (5, 8), (63, 5), (9, 1, 6), (4, 6, 3), (3, 3, 3)]
    )
    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("sign", ["positive", "negative", "mixed"])
    def test_forward_error_bound(self, sizes, metric, sign):
        # against the defining cosine sum in extended precision, every eigenvalue is
        # within eps * log2|G| * sum |u|, whatever the signs of the kernel's entries
        dims = GridDims(sizes)
        block = build_kernel(dims, metric, InversePower(0.8)).block
        if sign == "negative":
            block = -block
        elif sign == "mixed":
            block = np.where(np.indices(block.shape).sum(axis=0) % 2, -block, block)
        kernel = KernelTable(dims=dims, block=block)
        exact = direct_eigen_oracle(kernel, np.longdouble)
        error = float(np.abs(eigen_table(kernel).values - exact).max())
        bound = np.finfo(np.float64).eps * np.log2(dims.order) * float(np.abs(full_kernel(kernel)).sum())
        assert error <= bound

    @pytest.mark.parametrize(
        "sizes",
        [(1,), (2,), (7,), (16,), (1, 6), (2, 2), (2, 11), (20, 2), (9, 6), (13, 20),
         (1, 2, 7), (9, 2, 2), (4, 6, 3), (3, 3, 3), (2, 2, 2, 2), (3, 4, 5, 2), (9, 1, 6, 4)],
    )
    @pytest.mark.parametrize("metric", list(Metric))
    def test_slabs_match_whole_axis_transform_bit_for_bit(self, monkeypatch, sizes, metric):
        # with slabs of 8 outputs every axis of a block past a few entries runs
        # several slabs; each 1-D transform still sees the data of one whole-axis
        # hfft, so every eigenvalue keeps its bits
        monkeypatch.setattr(spectrum, "_SLAB_ENTRIES", 8)
        kernel = build_kernel(GridDims(sizes), metric, InversePower(0.8))
        got = eigen_table(kernel).block
        want = eigen_block_oracle(kernel)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "sizes, slabs",
        [((20, 2), {0: 2, 1: 3}), ((2, 11), {0: 2, 1: 2}), ((9, 2, 2), {0: 2, 1: 3, 2: 3}), ((7,), {0: 1})],
    )
    def test_slab_count_per_axis(self, monkeypatch, sizes, slabs):
        # axis 0 is cut across axis 1 and every later axis across axis 0, the
        # last slab ragged where the step does not divide (20 x 2: 11 rows in
        # steps of 4); a 1-D block is one slab whatever its length
        monkeypatch.setattr(spectrum, "_SLAB_ENTRIES", 8)
        calls = []
        irfft = np.fft.irfft

        def counting(a, n, axis, **kwargs):
            calls.append(axis)
            return irfft(a, n, axis=axis, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counting)
        eigen_table(build_kernel(GridDims(sizes), Metric.LEE, HARMONIC))
        assert {axis: calls.count(axis) for axis in set(calls)} == slabs

    @pytest.mark.parametrize(
        "dtype, out", [(np.int64, np.float64), (np.float32, np.float32), (np.longdouble, np.longdouble)]
    )
    def test_output_dtype_is_numpy_fft_dtype(self, monkeypatch, dtype, out):
        # a hand-built int64 block has float eigenvalues, as numpy.fft gives them;
        # an output shaped and typed like the input would truncate them
        monkeypatch.setattr(spectrum, "_SLAB_ENTRIES", 8)
        block = (np.arange(30).reshape(6, 5) % 7).astype(dtype)
        kernel = KernelTable(dims=GridDims.of(10, 8), block=block)
        got = eigen_table(kernel).block
        want = eigen_block_oracle(kernel)
        assert got.dtype == want.dtype == out
        assert np.array_equal(got, want)
        assert not np.array_equal(got, np.round(got))

    def test_complex_block_refused(self):
        # a kernel is real; the transform reads a block as a real half spectrum
        kernel = KernelTable(dims=GridDims.of(4, 4), block=np.ones((3, 3), dtype=complex))
        with pytest.raises(ValueError, match=r"^kernel block must be real, got dtype complex128$"):
            eigen_table(kernel)

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_peak_is_output_block_plus_one_slab(self, n):
        # the input block is allocated before tracing starts; the traced peak is
        # the output block plus one slab's buffers: a float64 output and its
        # half-length complex128 input, about 16 bytes per output (the
        # whole-axis transform peaked at 12.7 MB at 1024^2).  The finiteness
        # check allocates nothing block-sized: at 4096^2 an isfinite mask of
        # the output would exceed the bound by 2 MB
        kernel = build_kernel(GridDims.of(n, n), Metric.LEE, HARMONIC)
        tracemalloc.start()
        try:
            table = eigen_table(kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.block.nbytes == kernel.block.nbytes
        assert peak <= kernel.block.nbytes + 32 * spectrum._SLAB_ENTRIES

    def test_tables_are_immutable(self):
        # a reassigned block would leave anything derived from the old one stale
        kernel = build_kernel(GridDims.of(4, 3), Metric.LEE, HARMONIC)
        table = eigen_table(kernel)
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.block = np.zeros((3, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.block = np.zeros((3, 2))


class TestMinNontrivial:
    def test_4x4_minimum(self):
        _, kernel = harmonic_4x4()
        lam, argmin = min_nontrivial(eigen_table(kernel))
        assert lam == pytest.approx(-25.0 / 12.0, abs=1e-13)
        assert argmin == [(2, 2)]

    def test_10x10_weak_power(self):
        dims = GridDims.of(10, 10)
        table = eigen_table(build_kernel(dims, Metric.LEE, InversePower(0.3)))
        lam, argmin = min_nontrivial(table)
        assert argmin == [(5, 5)]

    def test_euclid_sq_exponential_pair(self):
        dims = GridDims.of(8)
        table = eigen_table(
            build_kernel(dims, Metric.EUCLIDEAN_SQUARED, ExponentialAtom(1.05, "distance"))
        )
        lam, argmin = min_nontrivial(table)
        assert argmin == [(2,), (6,)]

    def test_euclid_metric_squared_exponent_same_kernel(self):
        dims = GridDims.of(8)
        a = build_kernel(dims, Metric.EUCLIDEAN_SQUARED, ExponentialAtom(1.05, "distance"))
        b = build_kernel(dims, Metric.EUCLIDEAN, ExponentialAtom(1.05, "distance_squared"))
        np.testing.assert_allclose(a.block, b.block, rtol=1e-12)

    def test_argmin_closed_under_conjugation(self):
        for sizes, metric, f in [
            ((8,), Metric.EUCLIDEAN_SQUARED, ExponentialAtom(1.05, "distance")),
            ((6, 6), Metric.LEE, HARMONIC),
            ((5, 3), Metric.CHEBYSHEV, InversePower(0.6)),
        ]:
            dims = GridDims(sizes)
            table = eigen_table(build_kernel(dims, metric, f))
            _, argmin = min_nontrivial(table)
            closed = {conjugate_character(dims, chi) for chi in argmin}
            assert closed == set(argmin)

    @pytest.mark.parametrize(
        "sizes,metric,f",
        [
            ((5, 2, 7), Metric.LEE, InversePower(0.8)),
            ((6, 4), Metric.EUCLIDEAN, HARMONIC),
            ((3, 8), Metric.CHEBYSHEV, InversePower(0.6)),
            ((4, 6, 2), Metric.EUCLIDEAN_SQUARED, ExponentialAtom(1.05, "distance")),
            ((9,), Metric.LEE, InversePower(2.0)),
            ((2, 2, 2), Metric.LEE, HARMONIC),
        ],
    )
    @pytest.mark.parametrize("spread", [None, 0.0, 0.3, 2.0])
    def test_argmin_matches_full_scan(self, sizes, metric, f, spread):
        # spread is the tie tolerance as a multiple of the non-trivial
        # eigenvalue range: 2.0 ties every non-trivial character, including
        # those with 0 and n/2 coordinates
        dims = GridDims(sizes)
        table = eigen_table(build_kernel(dims, metric, f))
        block = table.block.ravel()
        lam = float(block[1:].min())
        tie_tol = None if spread is None else spread * (float(block[1:].max()) - lam)
        expected_tol = default_tie_tol(lam) if tie_tol is None else tie_tol
        got_lam, argmin = min_nontrivial(table, tie_tol)
        want_lam, want = full_scan_argmin(table, expected_tol)
        assert got_lam == want_lam
        assert argmin == want
        assert solve_relaxation(table, 1, tie_tol).multiplicity == len(want)
        if spread == 2.0:
            assert len(argmin) == dims.order - 1

    def test_self_reflected_wraps_add_no_rows(self):
        # on an axis of size 2 both wraps are their own reflection, so every
        # Chebyshev distance but the origin's is 1 and all 4095 non-trivial
        # characters tie; the peak bound keeps the expansion near its 0.6 MB
        # output, far from the 2^12 x 4095 indices (134 MB) of a per-axis
        # doubling that drops repeats afterwards
        dims = GridDims((2,) * 12)
        table = eigen_table(build_kernel(dims, Metric.CHEBYSHEV, InversePower(1.0)))
        tracemalloc.start()
        try:
            lam, argmin = min_nontrivial(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(argmin) == dims.order - 1
        assert (lam, argmin) == full_scan_argmin(table, default_tie_tol(lam))
        assert peak < 8_000_000

    def test_tie_tolerance_merges_near_ties(self):
        _, kernel = harmonic_4x4()
        table = eigen_table(kernel)
        _, argmin = min_nontrivial(table, tie_tol=1.0)
        assert (2, 2) in argmin and len(argmin) > 1

    @pytest.mark.parametrize("tie_tol", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_tie_tolerance_must_be_finite_and_non_negative(self, tie_tol):
        table = eigen_table(harmonic_4x4()[1])
        with pytest.raises(ValueError, match="tie_tol"):
            min_nontrivial(table, tie_tol)
        with pytest.raises(ValueError, match="tie_tol"):
            checkerboard_certificate(GridDims.of(4, 4), Metric.LEE, HARMONIC, tie_tol)

    def test_zero_tie_tolerance_keeps_exact_minimum(self):
        table = eigen_table(harmonic_4x4()[1])
        assert min_nontrivial(table, 0.0)[1] == [(2, 2)]

    def test_needs_two_sites(self):
        kernel = build_kernel(GridDims.of(1), Metric.LEE, HARMONIC)
        with pytest.raises(ValueError):
            min_nontrivial(eigen_table(kernel))

    def test_relaxation_needs_two_sites(self):
        table = eigen_table(build_kernel(GridDims.of(1), Metric.LEE, HARMONIC))
        with pytest.raises(ValueError, match="at least two sites"):
            solve_relaxation(table, 1)


class TestSolveRelaxation:
    def test_half_filling_4x4(self):
        _, kernel = harmonic_4x4()
        sol = solve_relaxation(eigen_table(kernel), 8)
        assert sol.optimal_value == pytest.approx(26.0, rel=1e-12)
        assert sol.is_checkerboard_certified
        assert sol.multiplicity == 1
        assert sol.sphere_dimension == 0
        assert sol.argmin_characters == ((2, 2),)

    def test_empty_configuration(self):
        _, kernel = harmonic_4x4()
        sol = solve_relaxation(eigen_table(kernel), 0)
        assert sol.optimal_value == 0.0
        assert not sol.is_checkerboard_certified

    def test_quarter_filling_bound_only(self):
        _, kernel = harmonic_4x4()
        sol = solve_relaxation(eigen_table(kernel), 4)
        assert sol.optimal_value == pytest.approx(7.0 / 3.0, rel=1e-12)
        assert not sol.is_checkerboard_certified
        # the true discrete optimum exceeds this bound (14/3 from exhaustive search)
        best = brute_force(GridDims.of(4, 4), Metric.LEE, HARMONIC, 4, top_k=1)[0]
        assert best.value > sol.optimal_value + 1.0

    def test_full_grid(self):
        _, kernel = harmonic_4x4()
        sol = solve_relaxation(eigen_table(kernel), 16)
        assert sol.optimal_value == pytest.approx(16.0 * full_kernel(kernel).sum(), rel=1e-12)

    def test_p_out_of_range(self):
        _, kernel = harmonic_4x4()
        with pytest.raises(ValueError):
            solve_relaxation(eigen_table(kernel), 17)
        with pytest.raises(ValueError):
            solve_relaxation(eigen_table(kernel), -1)

    def test_conjugate_pair_multiplicity(self):
        dims = GridDims.of(8)
        table = eigen_table(
            build_kernel(dims, Metric.EUCLIDEAN_SQUARED, ExponentialAtom(1.05, "distance"))
        )
        sol = solve_relaxation(table, 4)
        assert sol.argmin_characters == ((2,), (6,))
        assert sol.multiplicity == 2
        assert sol.sphere_dimension == 1
        assert not sol.is_checkerboard_certified

    def test_overflowing_optimal_value_refused(self):
        # 1e307 at every distance of 4x4 Lee: lambda(one) = 1.5e308 is finite, but
        # the optimum at half filling, 4 lambda(one) + 4 lambda_min, overflows
        dims = GridDims.of(4, 4)
        table = eigen_table(build_kernel(dims, Metric.LEE, Tabulated({d: 1e307 for d in range(1, 5)})))
        assert table.block.flat[0] == 1.5e308
        with pytest.raises(ValueError, match="^optimal_value not finite: "):
            solve_relaxation(table, 8)
        assert solve_relaxation(table, 0).optimal_value == 0.0

    def test_default_tie_tol_scales(self):
        assert default_tie_tol(0.0) == pytest.approx(1e-9)
        assert default_tie_tol(-9.0) == pytest.approx(1e-8)


class TestCertificates:
    def test_4x4_certified(self):
        cert = checkerboard_certificate(GridDims.of(4, 4), Metric.LEE, HARMONIC)
        assert cert.certified
        assert cert.offenders == ()
        assert cert.gap_to_minus_one == 0.0
        assert cert.checkerboard_e_tot == pytest.approx(cert.optimal_value, rel=1e-9)
        assert cert.checkerboard_e_max == pytest.approx(13.0 / 4.0, rel=1e-12)
        assert "certified" in cert.conclusion

    @pytest.mark.parametrize("d", range(1, 11))
    def test_hypercubes_certified(self, d):
        cert = checkerboard_certificate(GridDims(tuple([2] * d)), Metric.LEE, HARMONIC)
        assert cert.certified
        assert cert.argmin_characters == ((1,) * d,)

    def test_euclid_sq_exponential_not_certified(self):
        cert = checkerboard_certificate(
            GridDims.of(8), Metric.EUCLIDEAN_SQUARED, ExponentialAtom(1.05, "distance")
        )
        assert not cert.certified
        assert cert.offenders == ((2,), (6,))
        assert cert.gap_to_minus_one > 0
        assert "not certified" in cert.conclusion

    @pytest.mark.parametrize("metric", [Metric.LEE, Metric.CHEBYSHEV])
    def test_peak_within_three_blocks(self, metric):
        # the kernel block, the eigenvalue block and one slab: 2.5 blocks at
        # 1024 x 1024, where the whole-axis transform took 7.0
        dims = GridDims.of(1024, 1024)
        block_bytes = 8 * math.prod(block_shape(dims))
        tracemalloc.start()
        try:
            checkerboard_certificate(dims, metric, HARMONIC)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * block_bytes

    def test_refused_conclusion_counts_offenders(self):
        # 2660 offenders; listing them made the conclusion 26161 characters long
        cert = checkerboard_certificate(GridDims.of(64, 64), Metric.LEE, ExponentialAtom(1.0001))
        assert not cert.certified
        assert len(cert.offenders) == 2660
        assert "not certified" in cert.conclusion
        assert str(len(cert.offenders)) in cert.conclusion
        assert len(cert.conclusion) <= 300

    # profiles on one axis whose eigenvalues and relaxation optimum are finite, and
    # the first reported quantity to overflow: e_max = (1.7e308 + 1.2e307) / 2 (and
    # e_tot with it); e_tot = 3 x 8e307; the gap 1.4e308 - (-6e307)
    @pytest.mark.parametrize("size, profile, name", [
        (4, {1: 3.95e307, 2: 9.1e307}, "checkerboard_e_max"),
        (6, {1: 0.0, 2: 4e307, 3: 0.0}, "checkerboard_e_tot"),
        (4, {1: -4e307, 2: 6e307}, "gap_to_minus_one"),
    ], ids=["e_max", "e_tot", "gap"])
    def test_overflowing_quantity_refused(self, size, profile, name):
        dims = GridDims.of(size)
        sol = solve_relaxation(eigen_table(build_kernel(dims, Metric.LEE, profile.get)), size // 2)
        assert np.isfinite(sol.optimal_value)
        with pytest.raises(ValueError, match=f"^{name} not finite: "):
            checkerboard_certificate(dims, Metric.LEE, profile.get)

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match=r"needs all even sizes, got odd \[3\] in \(3, 4\)"):
            checkerboard_certificate(GridDims.of(3, 4), Metric.LEE, HARMONIC)

    @pytest.mark.parametrize(
        "sizes, metric, f",
        [((4, 4), Metric.LEE, HARMONIC), ((8,), Metric.EUCLIDEAN_SQUARED, ExponentialAtom(1.05, "distance"))],
        ids=["4x4-lee-certified", "8-euclid-sq-refused"],
    )
    def test_is_the_relaxation_at_half_filling(self, sizes, metric, f):
        dims = GridDims(sizes)
        cert = checkerboard_certificate(dims, metric, f)
        sol = solve_relaxation(eigen_table(build_kernel(dims, metric, f)), dims.order // 2)
        assert isinstance(cert, RelaxationSolution)
        for name in (field.name for field in dataclasses.fields(RelaxationSolution)):
            assert getattr(cert, name) == getattr(sol, name), name
        assert cert.certified is sol.is_checkerboard_certified

    @pytest.mark.parametrize("sizes", [(2, 2), (4, 4), (2, 4), (4, 8), (2, 2, 4), (8, 8)])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 0.3])
    def test_two_or_multiple_of_four_regime(self, sizes, alpha):
        cert = checkerboard_certificate(GridDims(sizes), Metric.LEE, InversePower(alpha))
        assert cert.certified
        assert cert.checkerboard_e_tot == pytest.approx(cert.optimal_value, rel=1e-9)

    @pytest.mark.parametrize(
        "f",
        [InversePower(2.0), ExponentialAtom(1.05, "distance"), ExponentialAtom(2.0, "distance_squared")],
        ids=["inverse-power:2", "exp:1.05", "exp:2:sq"],
    )
    @pytest.mark.parametrize("metric", list(Metric))
    def test_certificate_reports_equal_energy_checkerboard(self, metric, f):
        # the certificate reads the checkerboard energies off two eigenvalues;
        # the pairwise sum over members must agree
        dims = GridDims.of(4, 8)
        cert = checkerboard_certificate(dims, metric, f)
        report = energies(checkerboard(dims), metric, f)
        assert cert.checkerboard_e_tot == pytest.approx(report.e_tot, rel=1e-12)
        assert cert.checkerboard_e_max == pytest.approx(report.e_max, rel=1e-12)


class TestRelaxationIsLowerBound:
    @pytest.mark.parametrize(
        "sizes,metric,alpha",
        [
            ((4, 4), Metric.LEE, 1.0),
            ((2, 3), Metric.CHEBYSHEV, 0.5),
            ((5,), Metric.EUCLIDEAN, 2.0),
            ((2, 2, 2), Metric.LEE, 0.3),
            ((16,), Metric.EUCLIDEAN_SQUARED, 1.0),
        ],
    )
    def test_brute_force_dominates_bound(self, sizes, metric, alpha):
        dims = GridDims(sizes)
        f = InversePower(alpha)
        table = eigen_table(build_kernel(dims, metric, f))
        for p in range(0, dims.order + 1, max(1, dims.order // 4)):
            bound = solve_relaxation(table, p).optimal_value
            best = brute_force(dims, metric, f, p, objective="total", top_k=1)[0].value
            assert best >= bound - 1e-9
