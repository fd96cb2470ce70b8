"""Toric grid model: the product group Z/n1 x ... x Z/nd, its characters, and its metrics.

Sites and characters are plain integer tuples.  Every table over the grid
is indexed by the row-major site index (last coordinate fastest), numpy's
C-order ravel: all modules do site arithmetic with `np.ravel_multi_index`
and `np.unravel_index`, and `index_to_sites` unravels indices into sites.
Tables that depend on a site only through its per-axis wraps (distances,
kernels, eigenvalues) are stored on the fundamental block of wraps
0..n_i // 2, of shape `block_shape`: `axis_wraps` is the wrap of each
coordinate, `distance_key` the one integer key of every metric at given
wraps, `distance_table` the metric over the block, and `expand_block`
gives a block's full table.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

Site = tuple[int, ...]
Character = tuple[int, ...]

__all__ = [
    "Site",
    "Character",
    "Metric",
    "GridDims",
    "distance_table",
    "distance_key",
    "axis_wraps",
    "block_shape",
    "expand_block",
    "site_index",
    "index_to_sites",
    "minus_one_character",
]


class Metric(Enum):
    """Translation-invariant distances between grid sites."""

    LEE = "lee"
    EUCLIDEAN_SQUARED = "euclid-sq"
    EUCLIDEAN = "euclid"
    CHEBYSHEV = "chebyshev"


def _integers(values: Iterable, name: str) -> tuple[int, ...]:
    """The values as Python ints; a value that is not an integer, such as a float or a str, is refused."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{name} must be integers, got {values}") from None


@dataclass(frozen=True)
class GridDims:
    """Sizes n1..nd of the grid; the site space is the direct product of the Z/ni."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = _integers(self.sizes, "grid sizes")
        if len(sizes) == 0:
            raise ValueError("grid needs at least one dimension")
        if any(n < 1 for n in sizes):
            raise ValueError(f"grid sizes must be positive, got {sizes}")
        order = 1
        for n in sizes:
            order *= n
            if order > sys.maxsize:
                raise ValueError(f"grid with sizes {sizes} is too large to index")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "_order", order)

    @classmethod
    def of(cls, *sizes: int) -> GridDims:
        return cls(tuple(sizes))

    @property
    def order(self) -> int:
        """Number of sites."""
        return self._order  # type: ignore[attr-defined]

    @property
    def ndim(self) -> int:
        return len(self.sizes)

    def all_even(self) -> bool:
        return all(n % 2 == 0 for n in self.sizes)

    def __str__(self) -> str:
        return "x".join(str(n) for n in self.sizes)


def _check_site(dims: GridDims, s: Sequence[int], name: str) -> None:
    if len(s) != dims.ndim:
        raise ValueError(
            f"{name} has {len(s)} coordinates but the grid has {dims.ndim} dimensions"
        )


def axis_wraps(n: int) -> np.ndarray:
    """Per-axis wrap map: entry g is min(g, n - g), the fundamental-block index of g.

    The wrap of any integer coordinate c is entry c % n.
    """
    r = np.arange(n)
    return np.minimum(r, n - r)


def block_shape(dims: GridDims) -> tuple[int, ...]:
    """Shape of the fundamental block, one entry per wrap 0..n // 2 on each axis."""
    return tuple(n // 2 + 1 for n in dims.sizes)


def _check_block(dims: GridDims, block: np.ndarray, name: str) -> None:
    """Refuse a table stored on the fundamental block whose shape is not `block_shape(dims)`."""
    if block.shape != block_shape(dims):
        raise ValueError(f"{name} block has shape {block.shape}, expected {block_shape(dims)} for grid {dims}")


def expand_block(dims: GridDims, block: np.ndarray) -> np.ndarray:
    """Full table of shape `dims.sizes` whose entry at g is block[wrap(g)], axis by axis."""
    return block[np.ix_(*[axis_wraps(n) for n in dims.sizes])]


def distance_key(metric: Metric, wraps: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Integer distance key at per-axis wraps, written into out and returned.

    The key is the sum of the wraps for Lee, the sum of their squares for
    both Euclidean metrics (the Euclidean distance is its square root) and
    their maximum for Chebyshev.  The wraps broadcast to out's shape; out
    defaults to wraps[0], so the keys of a difference table are made in its
    own memory.  The Euclidean metrics square the wraps in place, and refuse
    wraps whose squares could overflow out's integer type.
    """
    if out is None:
        out = wraps[0]
    if metric is Metric.LEE:
        combine = np.add
    elif metric is Metric.CHEBYSHEV:
        combine = np.maximum
    elif metric in (Metric.EUCLIDEAN_SQUARED, Metric.EUCLIDEAN):
        if sum(int(w.max()) ** 2 for w in wraps) > np.iinfo(out.dtype).max:
            raise ValueError(f"squared distances overflow {out.dtype} keys on this grid")
        combine = np.add
        for w in wraps:
            np.multiply(w, w, out=w)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    if out is not wraps[0]:
        out[...] = wraps[0]
    for w in wraps[1:]:
        combine(out, w, out=out)
    return out


def distance_table(dims: GridDims, metric: Metric) -> np.ndarray:
    """Distance to the origin over the fundamental block, an array of shape `block_shape(dims)`.

    Every metric depends on a site only through its per-axis wraps, so the
    entry at wraps (w1, ..., wd) is the distance of every site with those
    wraps; `expand_block` gives the table over all sites.
    """
    shape = block_shape(dims)
    key = distance_key(metric, np.ix_(*[np.arange(m) for m in shape]), np.empty(shape, dtype=np.int64))
    return np.sqrt(key) if metric is Metric.EUCLIDEAN else key


def site_index(dims: GridDims, site: Sequence[int]) -> int:
    """Row-major index of a site; coordinates of any size are reduced in Python, not by an int64 ravel."""
    _check_site(dims, site, "site")
    idx = 0
    for c, n in zip(site, dims.sizes):
        idx = idx * n + (c % n)
    return idx


def index_to_sites(dims: GridDims, indices: Sequence[int] | np.ndarray) -> list[Site]:
    """Inverse of `site_index` over an array, by one `np.unravel_index`; ValueError outside 0..|G|-1."""
    coords = np.unravel_index(np.asarray(indices, dtype=np.int64), dims.sizes)
    return list(zip(*(c.tolist() for c in coords)))


def minus_one_character(dims: GridDims) -> Character:
    """The real character (-1, ..., -1); exists exactly when all sizes are even."""
    if not dims.all_even():
        odd = [n for n in dims.sizes if n % 2]
        raise ValueError(f"(-1, ..., -1) needs all even sizes, got odd {odd} in {dims.sizes}")
    return tuple(n // 2 for n in dims.sizes)
