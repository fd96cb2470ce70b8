"""Shared oracles and fixed reference data for the test suite.

The oracles here recompute quantities from their definitions (full double
sums, set arithmetic, breadth-first closures) and deliberately avoid the
library's factored fast paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from toric_lab.energy import KernelTable, Tabulated
from toric_lab.grid import GridDims, Metric, Site, distance, distance_table, enumerate_sites

# 12 * eigenvalue table of the 4x4 harmonic instance, rows/cols indexed by
# character indices 0..3 per axis.
TWELVE_LAMBDA_4X4 = np.array(
    [
        [103, 13, -9, 13],
        [13, -9, -19, -9],
        [-9, -19, -25, -19],
        [13, -9, -19, -9],
    ],
    dtype=float,
)

# The three total-energy-optimal 4-particle patterns on the 4x4 grid, up to
# translation: two cyclic-subgroup patterns and one non-coset pattern.
P4_OPTIMAL_PATTERNS = [
    frozenset({(0, 0), (0, 2), (2, 1), (2, 3)}),
    frozenset({(0, 0), (1, 2), (2, 0), (3, 2)}),
    frozenset({(0, 0), (1, 1), (2, 3), (3, 2)}),
]

ROW_CONFIG_4X4 = [(0, 0), (0, 1), (0, 2), (0, 3)]


def direct_eigen_oracle(kernel: KernelTable) -> np.ndarray:
    """Eigenvalues by the defining O(|G|^2) cosine double sum.

    Phases are accumulated from exact integer products per axis, so the
    oracle stays accurate for every grid size used in the tests.
    """
    dims = kernel.dims
    order = dims.order
    coords = np.stack(np.unravel_index(np.arange(order), dims.sizes), axis=1)
    phase = np.zeros((order, order))
    for axis, n in enumerate(dims.sizes):
        phase += ((coords[:, None, axis] * coords[None, :, axis]) % n) / n
    return (np.cos(2.0 * np.pi * phase) * kernel.values[None, :]).sum(axis=1)


def brute_min_total(dims: GridDims, metric: Metric, f, p: int) -> float:
    """Minimum total energy over all p-subsets, by definition (no increments)."""
    sites = list(enumerate_sites(dims))
    best = math.inf
    for subset in itertools.combinations(sites, p):
        tot = 0.0
        for g in subset:
            for h in subset:
                if g != h:
                    tot += f(distance(metric, g, h, dims))
        best = min(best, tot)
    return 0.0 if p <= 1 else best


def tabulated_from_instance(dims: GridDims, metric: Metric, base) -> Tabulated:
    """A table covering exactly the attainable nonzero distances of an instance."""
    attained = sorted(set(distance_table(dims, metric).ravel().tolist()) - {0})
    return Tabulated({x: base(x) for x in attained})


def translate_oracle(
    dims: GridDims, sites
) -> tuple[tuple[Site, ...], int, tuple[Site, ...] | None]:
    """Canonical translate, orbit size and coset subgroup of a site set, by definition.

    All |G| shifts are applied with set arithmetic.  The canonical translate
    is the least sorted site tuple (row-major indices order sites the same
    way); the subgroup is S - min(S) if that set is closed under
    subtraction, else None.
    """
    members = frozenset(map(tuple, sites))

    def shifted(points, shift, sign):
        return frozenset(
            tuple((x + sign * s) % n for x, s, n in zip(point, shift, dims.sizes))
            for point in points
        )

    translates = {shifted(members, shift, 1) for shift in enumerate_sites(dims)}
    canonical = min(tuple(sorted(t)) for t in translates)
    base = shifted(members, min(members), -1)
    closed = all(shifted(base, b, -1) <= base for b in base)
    return canonical, len(translates), tuple(sorted(base)) if closed else None


def _index_add_table(dims: GridDims) -> np.ndarray:
    coords = np.stack(np.unravel_index(np.arange(dims.order), dims.sizes), axis=1)
    sizes = np.array(dims.sizes, dtype=np.int64)
    summed = (coords[:, None, :] + coords[None, :, :]) % sizes
    return np.ravel_multi_index(tuple(np.moveaxis(summed, 2, 0)), dims.sizes)


def enumerate_subgroups(dims: GridDims) -> list[frozenset[Site]]:
    """All subgroups, by closing known subgroups under one extra generator."""
    add = _index_add_table(dims)

    def closure(indices: frozenset[int]) -> frozenset[int]:
        current = np.array(sorted(indices | {0}), dtype=np.int64)
        while True:
            grown = np.unique(add[np.ix_(current, current)])
            if len(grown) == len(current):
                return frozenset(int(i) for i in current)
            current = grown

    found = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        h = frontier.pop()
        for g in range(dims.order):
            if g in h:
                continue
            extended = closure(h | {g})
            if extended not in found:
                found.add(extended)
                frontier.append(extended)
    as_sites = [
        frozenset(tuple(int(c) for c in np.unravel_index(i, dims.sizes)) for i in sub)
        for sub in found
    ]
    return sorted(as_sites, key=lambda s: (len(s), sorted(s)))


def cosets_of(dims: GridDims, subgroup: frozenset[Site]) -> list[frozenset[Site]]:
    seen = set()
    out = []
    for shift in enumerate_sites(dims):
        coset = frozenset(
            tuple((x + s) % n for x, s, n in zip(member, shift, dims.sizes))
            for member in subgroup
        )
        if coset not in seen:
            seen.add(coset)
            out.append(coset)
    return out
