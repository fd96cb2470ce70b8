"""Eigenvalues of the energy kernel, the exact fractional relaxation, and checkerboard certificates.

The kernel acts by convolution, so its eigenbasis is the character basis of
the grid group and the eigenvalue at a character chi is

    lambda(chi) = sum over g != 0 of u(g, 0) * chi(g),

the discrete Fourier transform of the kernel table.  Minimising the
quadratic form (x | A x) over the sphere (x | x) = (x | one) = p is solved
exactly by the smallest eigenvalue over the non-trivial characters: the
optimum is

    lambda(one) * p^2 / |G|  +  lambda_min * (p - p^2 / |G|).

When p = |G|/2, all sizes are even, and the non-trivial minimum is attained
only at the character (-1, ..., -1), the only optimisers are the two
checkerboard characteristic vectors, which certifies them as the unique
minimisers of total energy, and (being cosets) of maximal energy as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyFunction, KernelTable, build_kernel
from .grid import (
    Character,
    GridDims,
    Metric,
    index_to_site,
    minus_one_character,
    site_index,
)

__all__ = [
    "EigenTable",
    "eigen_table",
    "default_tie_tol",
    "min_nontrivial",
    "RelaxationSolution",
    "solve_relaxation",
    "CheckerboardCertificate",
    "checkerboard_certificate",
]

# |Im| of any transform output must stay below this times (1 + sum |u|).
IMAG_RTOL = 1e-9


@dataclass
class EigenTable:
    """Real eigenvalue table over characters, in the same mixed-radix order as sites."""

    dims: GridDims
    values: np.ndarray = field(repr=False)

    def value_at(self, chi: Character) -> float:
        return float(self.values[site_index(self.dims, chi)])


def eigen_table(kernel: KernelTable) -> EigenTable:
    """Fourier-transform the kernel table into its eigenvalue table.

    The transform of a symmetric real table is real: any imaginary residue
    beyond tolerance means the kernel is not symmetric and is reported as
    an error.
    """
    dims = kernel.dims
    # ifftn uses the +2*pi*i convention and divides by |G|; undo the division.
    flat = (np.fft.ifftn(np.reshape(kernel.values, dims.sizes)) * dims.order).ravel()
    residue = float(np.abs(flat.imag).max()) if dims.order else 0.0
    tol = IMAG_RTOL * (1.0 + float(np.abs(kernel.values).sum()))
    if residue > tol:
        raise ValueError(
            f"kernel not symmetric: imaginary residue {residue:.3e} exceeds {tol:.3e}"
        )
    real = flat.real.copy().reshape(dims.sizes)
    # conjugate characters carry equal eigenvalues; average out the rounding
    # asymmetry of the transform so equality holds exactly in the stored table
    conj_index = np.ix_(*[(-np.arange(n)) % n for n in dims.sizes])
    values = ((real + real[conj_index]) / 2.0).ravel()
    return EigenTable(dims=dims, values=values)


def default_tie_tol(lambda_min: float) -> float:
    """Tolerance under which eigenvalues count as tied with the minimum."""
    return 1e-9 * (1.0 + abs(lambda_min))


def min_nontrivial(eigs: EigenTable, tie_tol: float | None = None) -> tuple[float, list[Character]]:
    """Minimum eigenvalue over non-trivial characters and every character within tie_tol of it.

    The returned set is closed under conjugation because conjugate
    characters share their eigenvalue exactly in the stored real table.
    """
    if eigs.dims.order < 2:
        raise ValueError("need at least two sites for a non-trivial character")
    if tie_tol is not None and not (math.isfinite(tie_tol) and tie_tol >= 0):
        raise ValueError(f"tie_tol must be finite and >= 0, got {tie_tol!r}")
    vals = eigs.values
    lam_min = float(vals[1:].min())
    if tie_tol is None:
        tie_tol = default_tie_tol(lam_min)
    hits = np.flatnonzero(vals[1:] <= lam_min + tie_tol) + 1
    argmin = [index_to_site(eigs.dims, int(i)) for i in hits]
    return lam_min, argmin


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
    """Solve the relaxation exactly from the eigenvalue table."""
    dims = eigs.dims
    if not 0 <= p <= dims.order:
        raise ValueError(f"particle count {p} out of range 0..{dims.order}")
    if dims.order < 2:
        raise ValueError("relaxation needs at least two sites")
    lam_triv = float(eigs.values[0])
    lam_min, argmin = min_nontrivial(eigs, tie_tol)
    if tie_tol is None:
        tie_tol = default_tie_tol(lam_min)
    weight = p - p * p / dims.order
    optimal = lam_triv * (p * p / dims.order) + lam_min * weight
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
class CheckerboardCertificate:
    """Outcome of the spectral certificate at half filling.

    When certified, the two checkerboards are the unique minimisers of
    fractional energy, hence of total energy, hence (as cosets, whose
    members all experience the same energy) of maximal energy, up to the
    stated tie tolerance.  Otherwise offenders lists the non-trivial
    characters attaining the minimum and gap_to_minus_one the amount by
    which the character (-1, ..., -1) misses it.
    """

    dims: GridDims
    metric: Metric
    p: int
    certified: bool
    lambda_trivial: float
    lambda_min: float
    argmin_characters: tuple[Character, ...]
    offenders: tuple[Character, ...]
    gap_to_minus_one: float
    multiplicity: int
    optimal_value: float
    checkerboard_e_tot: float
    checkerboard_e_max: float
    tie_tol: float
    conclusion: str


def checkerboard_certificate(
    dims: GridDims,
    metric: Metric,
    f: EnergyFunction,
    tie_tol: float | None = None,
) -> CheckerboardCertificate:
    """Build the kernel, transform it, and certify the checkerboards at p = |G|/2."""
    if not dims.all_even():
        odd = [n for n in dims.sizes if n % 2]
        raise ValueError(f"certificate needs all even sizes, got odd {odd} in {dims.sizes}")
    kernel = build_kernel(dims, metric, f)
    eigs = eigen_table(kernel)
    sol = solve_relaxation(eigs, dims.order // 2, tie_tol)
    minus_one = minus_one_character(dims)
    lam_minus_one = eigs.value_at(minus_one)
    gap = lam_minus_one - sol.lambda_min
    offenders = tuple(chi for chi in sol.argmin_characters if chi != minus_one)
    # the checkerboard indicator is (1 + chi_minus_one) / 2, so every member
    # experiences the same energy (lambda(one) + lambda(minus_one)) / 2
    e_max = (sol.lambda_trivial + lam_minus_one) / 2.0
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
            "not certified: the non-trivial eigenvalue minimum is attained at "
            f"{list(offenders)} (gap from (-1, ..., -1) to the minimum: {gap:.6g}); "
            "the relaxation does not single out the checkerboards."
        )
    return CheckerboardCertificate(
        dims=dims,
        metric=metric,
        p=sol.p,
        certified=sol.is_checkerboard_certified,
        lambda_trivial=sol.lambda_trivial,
        lambda_min=sol.lambda_min,
        argmin_characters=sol.argmin_characters,
        offenders=offenders,
        gap_to_minus_one=float(gap),
        multiplicity=sol.multiplicity,
        optimal_value=sol.optimal_value,
        checkerboard_e_tot=sol.p * e_max,
        checkerboard_e_max=e_max,
        tie_tol=sol.tie_tol,
        conclusion=conclusion,
    )
