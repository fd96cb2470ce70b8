"""Eigenvalues of the energy kernel, the exact fractional relaxation, and checkerboard certificates.

The kernel acts by convolution, so its eigenbasis is the character basis of
the grid group and the eigenvalue at a character chi is

    lambda(chi) = sum over g != 0 of u(g, 0) * chi(g),

the discrete Fourier transform of the kernel table, which for a kernel even
in every axis is a real cosine transform.  Minimising the quadratic form
(x | A x) over the sphere (x | x) = (x | one) = p is solved exactly by the
smallest eigenvalue over the non-trivial characters: the optimum is

    lambda(one) * p^2 / |G|  +  lambda_min * (p - p^2 / |G|).

A checkerboard certificate is this relaxation at half filling, p = |G|/2.
When all sizes are even and the non-trivial minimum is attained only at
(-1, ..., -1), its only optimisers are the two checkerboards, which are
then the unique minimisers of total energy and (as cosets) of maximal energy.

Every metric depends on a site only through its per-axis wraps, so the
kernel and its eigenvalue table are even in every axis.  Both are built,
transformed and scanned on the fundamental block of wraps 0..n_i // 2, about
|G| / 2^d entries; the full |G| table is expanded only where it is output.
The transform runs slab by slab into one output block, so its peak is the
kernel block, plus the eigenvalue block, plus one slab; the output's
finiteness check reads its least and greatest value, with no mask.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyFunction, KernelTable, build_kernel
from .grid import (
    Character,
    GridDims,
    Metric,
    _check_block,
    _check_site,
    _particle_count,
    _real,
    axis_wraps,
    block_shape,
    expand_block,
    index_to_sites,
    minus_one_character,
)

__all__ = [
    "EigenTable",
    "eigen_table",
    "default_tie_tol",
    "check_tie_tol",
    "min_nontrivial",
    "RelaxationSolution",
    "solve_relaxation",
    "CheckerboardCertificate",
    "checkerboard_certificate",
]

# Transform outputs in one slab of eigen_table: its working set beyond the
# kernel block and the output block.
_SLAB_ENTRIES = 1 << 16


@dataclass(frozen=True)
class EigenTable:
    """Real eigenvalue table over characters, stored on the fundamental block.

    The kernel is even in every axis, so the eigenvalue of a character
    depends only on its per-axis wraps: `block` holds the eigenvalue at
    wraps 0..n_i // 2, in an array of shape `block_shape(dims)`.  `values`
    is the table over all |G| characters, in the same mixed-radix order as
    sites, expanded from the block on each read.
    """

    dims: GridDims
    block: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_block(self.dims, self.block, "eigenvalue")

    @property
    def values(self) -> np.ndarray:
        """The eigenvalues of all |G| characters, in site-index order."""
        return expand_block(self.dims, self.block).ravel()

    def value_at(self, chi: Character) -> float:
        chi = _check_site(self.dims, chi, "character")
        return float(self.block[tuple(axis_wraps(n)[c % n] for c, n in zip(chi, self.dims.sizes))])


def _transform_axis(src: np.ndarray, dst: np.ndarray, axis: int, n: int, across: int) -> None:
    """Write into dst entries 0..n // 2 of the length-n `hfft` of src along axis, a slab of axis `across` at a time.

    A slab holds about _SLAB_ENTRIES transform outputs.  The hfft of a real
    half spectrum is its irfft at forward normalisation, and every slab goes
    through one complex input buffer and one output buffer, so no slab
    allocates: fresh temporaries per slab make malloc grow and trim its heap
    on every slab of a process's first call.
    """
    width = dst.shape[across]
    step = max(1, _SLAB_ENTRIES // (n * (dst.size // (dst.shape[axis] * width))))
    lead = (slice(None),) * across
    shape = src[lead + (slice(step),)].shape
    spec = np.empty(shape, dtype=np.promote_types(dst.dtype, np.complex64))
    full = np.empty(shape[:axis] + (n,) + shape[axis + 1:], dtype=dst.dtype)
    keep = (slice(None),) * axis + (slice(n // 2 + 1),)
    for start in range(0, width, step):
        cut = lead + (slice(start, start + step),)
        fit = lead + (slice(min(step, width - start)),)
        spec[fit] = src[cut]
        np.fft.irfft(spec[fit], n, axis=axis, norm="forward", out=full[fit])
        dst[cut] = full[fit][keep]


def eigen_table(kernel: KernelTable) -> EigenTable:
    """Cosine-transform the kernel into its eigenvalue table, on the fundamental block.

    The kernel is even in every axis, so along each axis its block entries at
    wraps 0..n_i // 2 are the half spectrum of a Hermitian sequence of length
    n_i.  One `hfft` per axis turns them into that sequence's real transform,
    whose entries 0..n_i // 2 are the eigenvalues at those wraps.  The
    transforms run in slabs of about _SLAB_ENTRIES outputs into one output
    block: axis 0 from the kernel, a slab of axis 1 at a time, then every
    later axis in place, a slab of axis 0 at a time.  So the peak is the
    kernel block, plus the output block, plus one slab, and each 1-D
    transform sees the data of one whole-axis `hfft`, so it gives the same
    bits.  The output dtype is numpy.fft's, `np.result_type(block.dtype,
    1.0)`.  A complex block is refused: a kernel is real.  An inf or NaN
    kernel entry, or a sum that overflows, leaves a non-finite eigenvalue:
    that is an error.
    """
    block = kernel.block
    if np.iscomplexobj(block):
        raise ValueError(f"kernel block must be real, got dtype {block.dtype}")
    vals = np.empty(block.shape, dtype=np.result_type(block.dtype, 1.0))
    # a trailing axis of one gives even a 1-D block an axis 1 to cut slabs across
    src, dst = block[..., None], vals[..., None]
    sizes = kernel.dims.sizes
    _transform_axis(src, dst, 0, sizes[0], across=1)
    for axis in range(1, len(sizes)):
        _transform_axis(dst, dst, axis, sizes[axis], across=0)
    # min and max propagate NaN, and unlike an isfinite mask allocate nothing block-sized
    if not (np.isfinite(vals.min()) and np.isfinite(vals.max())):
        raise ValueError("kernel eigenvalues not finite: a kernel entry is inf or NaN, or a sum overflows")
    return EigenTable(dims=kernel.dims, block=vals)


def default_tie_tol(lambda_min: float) -> float:
    """Tolerance under which eigenvalues count as tied with the minimum."""
    return 1e-9 * (1.0 + abs(lambda_min))


def check_tie_tol(tie_tol: float) -> float:
    """tie_tol itself if it is a finite real of at least 0; a ValueError naming it otherwise.

    Whether it is a real at all is `grid._real`'s rule, so a str or None is
    refused by name too.
    """
    if isinstance(tie_tol, numbers.Real) and not 0 <= tie_tol < math.inf:
        raise ValueError(f"tie_tol must be finite and >= 0, got {tie_tol!r}")
    return _real(tie_tol, "tie_tol", -math.inf)


def _reflection_index(dims: GridDims, hits: np.ndarray) -> np.ndarray:
    """Sorted site indices of every character whose per-axis wraps are those of a block index in hits.

    A block index with wraps (w_1, ..., w_d) stands for the characters with
    coordinate w_i or n_i - w_i on each axis; their site indices are built
    axis by axis over all hits at once.  A wrap of 0 or n_i / 2 is its own
    reflection, so a row gains its reflected copy only where n_i - w_i
    differs from w_i, and the rows are exactly the argmin, without repeats.
    """
    index = np.zeros(len(hits), dtype=np.int64)
    hit = np.arange(len(hits))
    for w, n in zip(np.unravel_index(hits, block_shape(dims)), dims.sizes):
        w = w[hit]
        refl = (n - w) % n
        new = np.flatnonzero(refl != w)
        index *= n
        index = np.concatenate([index + w, index[new] + refl[new]])
        hit = np.concatenate([hit, hit[new]])
    index.sort()
    return index


def min_nontrivial(eigs: EigenTable, tie_tol: float | None = None) -> tuple[float, list[Character]]:
    """Minimum eigenvalue over non-trivial characters and every character within tie_tol of it.

    The scan runs over the fundamental block, where every entry but the
    origin is non-trivial.  Each hit stands for all characters with its
    per-axis wraps, which share its eigenvalue exactly, so the returned set
    is closed under the reflection chi_i -> -chi_i of any axis (conjugation
    among them) and is listed in site-index order.
    """
    if eigs.dims.order < 2:
        raise ValueError("need at least two sites for a non-trivial character")
    if tie_tol is not None:
        check_tie_tol(tie_tol)
    vals = eigs.block.ravel()
    lam_min = float(vals[1:].min())
    if tie_tol is None:
        tie_tol = default_tie_tol(lam_min)
    hits = np.flatnonzero(vals[1:] <= lam_min + tie_tol) + 1
    return lam_min, index_to_sites(eigs.dims, _reflection_index(eigs.dims, hits))


@dataclass(frozen=True)
class RelaxationSolution:
    """Exact optimum of the quadratic relaxation at particle count p.

    multiplicity is the real dimension of the admissible eigenspace (one
    per self-conjugate character attaining the minimum, two per conjugate
    pair); the optimisers form a sphere of dimension multiplicity - 1
    inside the affine slice (x | one) = p.
    """

    p: int
    lambda_trivial: float
    lambda_min: float
    argmin_characters: tuple[Character, ...]
    multiplicity: int
    sphere_dimension: int
    optimal_value: float
    tie_tol: float
    is_checkerboard_certified: bool


def solve_relaxation(eigs: EigenTable, p: int, tie_tol: float | None = None) -> RelaxationSolution:
    """Solve the relaxation exactly from the eigenvalue table; an optimal value that overflows is a ValueError."""
    dims = eigs.dims
    p = _particle_count(dims, p)
    lam_triv = float(eigs.block.flat[0])
    lam_min, argmin = min_nontrivial(eigs, tie_tol)
    if tie_tol is None:
        tie_tol = default_tie_tol(lam_min)
    weight = p - p * p / dims.order
    optimal = lam_triv * (p * p / dims.order) + lam_min * weight
    if not math.isfinite(optimal):
        raise ValueError("optimal_value not finite: the relaxation's sum of eigenvalue terms overflows")
    # argmin is closed under conjugation: one real dimension per character
    mult = len(argmin)
    certified = (
        dims.all_even()
        and 2 * p == dims.order
        and argmin == [minus_one_character(dims)]
    )
    return RelaxationSolution(
        p=p,
        lambda_trivial=lam_triv,
        lambda_min=lam_min,
        argmin_characters=tuple(argmin),
        multiplicity=mult,
        sphere_dimension=mult - 1,
        optimal_value=float(optimal),
        tie_tol=float(tie_tol),
        is_checkerboard_certified=certified,
    )


@dataclass(frozen=True)
class CheckerboardCertificate(RelaxationSolution):
    """The relaxation at half filling, p = |G|/2, and what it says about the checkerboards.

    When certified, the two checkerboards are the unique minimisers of
    fractional energy, hence of total energy, hence (as cosets, whose
    members all experience the same energy) of maximal energy, up to the
    stated tie tolerance.  Otherwise offenders lists the non-trivial
    characters attaining the minimum and gap_to_minus_one the amount by
    which the character (-1, ..., -1) misses it.
    """

    dims: GridDims
    offenders: tuple[Character, ...]
    gap_to_minus_one: float
    checkerboard_e_max: float
    conclusion: str

    @property
    def certified(self) -> bool:
        return self.is_checkerboard_certified

    @property
    def checkerboard_e_tot(self) -> float:
        return self.p * self.checkerboard_e_max


def checkerboard_certificate(
    dims: GridDims,
    metric: Metric,
    f: EnergyFunction,
    tie_tol: float | None = None,
) -> CheckerboardCertificate:
    """Build the kernel, transform it, and read the checkerboards off the relaxation at p = |G|/2.

    A reported energy or gap that overflows, although every eigenvalue is
    finite, is a ValueError naming it.
    """
    minus_one = minus_one_character(dims)  # refuses an odd size before any work
    eigs = eigen_table(build_kernel(dims, metric, f))
    sol = solve_relaxation(eigs, dims.order // 2, tie_tol)
    lam_minus_one = eigs.value_at(minus_one)
    gap = lam_minus_one - sol.lambda_min
    # the checkerboard indicator is (1 + chi_minus_one) / 2, so every member
    # experiences the same energy (lambda(one) + lambda(minus_one)) / 2
    e_max = (sol.lambda_trivial + lam_minus_one) / 2.0
    for name, value in (("checkerboard_e_max", e_max), ("checkerboard_e_tot", sol.p * e_max),
                        ("gap_to_minus_one", gap)):
        if not math.isfinite(value):
            raise ValueError(f"{name} not finite: a sum or multiple of finite eigenvalues overflows")
    offenders = tuple(chi for chi in sol.argmin_characters if chi != minus_one)
    if sol.is_checkerboard_certified:
        conclusion = (
            "certified: the non-trivial eigenvalue minimum is attained only at "
            f"(-1, ..., -1) (tie tolerance {sol.tie_tol:.3g}), so the two "
            "checkerboards are the unique minimisers of fractional energy at "
            "half filling, hence of total energy, and as cosets also of "
            "maximal energy."
        )
    else:
        conclusion = (
            "not certified: the non-trivial eigenvalue minimum is attained at characters other "
            f"than (-1, ..., -1) (offenders: {len(offenders)}; gap from (-1, ..., -1) to the "
            f"minimum: {gap:.6g}); the relaxation does not single out the checkerboards."
        )
    return CheckerboardCertificate(
        **vars(sol),
        dims=dims,
        offenders=offenders,
        gap_to_minus_one=float(gap),
        checkerboard_e_max=e_max,
        conclusion=conclusion,
    )
