"""Exact configuration energies, exhaustive and stochastic search over p-subsets.

A configuration is a bitset over site indices.  Search maintains the vector
of per-site energies against the current members incrementally (one kernel
column added or removed per step), which keeps single-site moves at O(|G|)
instead of O(p^2).  Exhaustive search refuses instances whose estimated
work exceeds a budget instead of running for hours.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .energy import EnergyFunction, KernelTable, build_kernel
from .grid import (
    GridDims,
    Metric,
    Site,
    checkerboard_sites,
    index_to_site,
    site_index,
)

__all__ = [
    "Configuration",
    "checkerboard",
    "EnergyReport",
    "energies",
    "CosetCheck",
    "is_coset",
    "SearchHit",
    "brute_force",
    "LocalSearchResult",
    "local_search",
    "BudgetExceededError",
    "DEFAULT_WORK_BUDGET",
]

DEFAULT_WORK_BUDGET = 10**10

# Largest grid for which the dense |G| x |G| kernel matrix may be built.
_MAX_MATRIX_SITES = 2048

_EQUIENERGY_RTOL = 1e-9


class BudgetExceededError(RuntimeError):
    """Raised instead of starting a search that would exceed the work budget."""


@dataclass(frozen=True)
class Configuration:
    """A p-element subset of the grid, stored as a bitset over site indices."""

    dims: GridDims
    members: int

    def __post_init__(self) -> None:
        if self.members < 0 or self.members >> self.dims.order:
            raise ValueError("member bitset out of range for the grid")
        object.__setattr__(self, "_p", self.members.bit_count())

    @classmethod
    def from_indices(cls, dims: GridDims, indices: Iterable[int]) -> Configuration:
        bits = 0
        for i in indices:
            i = int(i)
            if not 0 <= i < dims.order:
                raise ValueError(f"site index {i} out of range for |G| = {dims.order}")
            bits |= 1 << i
        return cls(dims, bits)

    @classmethod
    def from_sites(cls, dims: GridDims, sites: Iterable[Sequence[int]]) -> Configuration:
        return cls.from_indices(dims, (site_index(dims, s) for s in sites))

    @property
    def p(self) -> int:
        return self._p  # type: ignore[attr-defined]

    def indices(self) -> tuple[int, ...]:
        out = []
        m = self.members
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    def sites(self) -> tuple[Site, ...]:
        return tuple(index_to_site(self.dims, i) for i in self.indices())

    def __contains__(self, site: Sequence[int]) -> bool:
        return bool(self.members >> site_index(self.dims, site) & 1)

    def translate(self, shift: Sequence[int]) -> Configuration:
        shifted = (
            tuple((c + s) % n for c, s, n in zip(site, shift, self.dims.sizes))
            for site in self.sites()
        )
        return Configuration.from_sites(self.dims, shifted)

    def canonical(self) -> Configuration:
        """Lexicographically least translate (the orbit representative used everywhere)."""
        best = min(_sorted_translates(_add_index_table(self.dims), self.indices()))
        return Configuration.from_indices(self.dims, best)

    def orbit_size(self) -> int:
        """Number of distinct translates."""
        return len(set(_sorted_translates(_add_index_table(self.dims), self.indices())))


def checkerboard(dims: GridDims, parity: str = "even") -> Configuration:
    """The checkerboard configuration of the given parity; needs all sizes even."""
    return Configuration.from_sites(dims, checkerboard_sites(dims, parity))


@dataclass(frozen=True)
class EnergyReport:
    """Per-site energies of a configuration plus their maximum and sum."""

    per_site: dict[Site, float]
    e_max: float
    e_tot: float
    is_equienergetic: bool
    is_empty: bool = False


def _pair_index(dims: GridDims, idx: np.ndarray, op: np.ufunc) -> np.ndarray:
    """Table T[a, b] = index of op(site idx[a], site idx[b]), op being np.add or np.subtract."""
    coords = np.stack(np.unravel_index(idx, dims.sizes), axis=1)
    combined = op(coords[:, None, :], coords[None, :, :]) % np.array(dims.sizes)
    return np.ravel_multi_index(tuple(np.moveaxis(combined, 2, 0)), dims.sizes)


def _pair_kernel(config: Configuration, kernel: KernelTable) -> tuple[np.ndarray, np.ndarray]:
    """Member indices and the p x p matrix of kernel values over member pairs."""
    idx = np.array(config.indices(), dtype=np.int64)
    return idx, kernel.values[_pair_index(config.dims, idx, np.subtract)]


def energies(config: Configuration, kernel: KernelTable) -> EnergyReport:
    """Energy experienced by each member, from kernel values over member pairs.

    An empty configuration has no energies; zeros are returned with the
    is_empty flag set.
    """
    if kernel.dims != config.dims:
        raise ValueError("configuration and kernel live on different grids")
    if config.p == 0:
        return EnergyReport(per_site={}, e_max=0.0, e_tot=0.0, is_equienergetic=True, is_empty=True)
    idx, pair = _pair_kernel(config, kernel)
    per = pair.sum(axis=1)
    e_max = float(per.max())
    e_tot = float(per.sum())
    spread = float(per.max() - per.min())
    report = {
        index_to_site(config.dims, int(i)): float(v) for i, v in zip(idx, per)
    }
    return EnergyReport(
        per_site=report,
        e_max=e_max,
        e_tot=e_tot,
        is_equienergetic=spread <= _EQUIENERGY_RTOL * (1.0 + abs(e_max)),
    )


@dataclass(frozen=True)
class CosetCheck:
    is_coset: bool
    subgroup: tuple[Site, ...] | None


def is_coset(config: Configuration) -> CosetCheck:
    """Whether the configuration is a coset of a subgroup; returns the subgroup if so.

    Translating by any member must yield the same candidate subgroup, so one
    translation plus a closure check under subtraction suffices.
    """
    if config.p == 0:
        raise ValueError("empty configuration is not a coset")
    dims = config.dims
    sites = config.sites()
    base = sites[0]
    shifted = {
        tuple((c - b) % n for c, b, n in zip(s, base, dims.sizes)) for s in sites
    }
    for a in shifted:
        for b in shifted:
            d = tuple((x - y) % n for x, y, n in zip(a, b, dims.sizes))
            if d not in shifted:
                return CosetCheck(is_coset=False, subgroup=None)
    return CosetCheck(is_coset=True, subgroup=tuple(sorted(shifted)))


def kernel_matrix(kernel: KernelTable) -> np.ndarray:
    """Dense |G| x |G| matrix K[i, j] = u(site_i - site_j); diagonal is zero."""
    dims = kernel.dims
    if dims.order > _MAX_MATRIX_SITES:
        raise BudgetExceededError(
            f"refusing to build a {dims.order} x {dims.order} kernel matrix "
            f"(limit {_MAX_MATRIX_SITES} sites)"
        )
    return kernel.values[_pair_index(dims, np.arange(dims.order), np.subtract)]


def _add_index_table(dims: GridDims) -> np.ndarray:
    """Table T[k, i] = index of site_i + site_k."""
    if dims.order > _MAX_MATRIX_SITES:
        raise BudgetExceededError(
            f"refusing to build a {dims.order} x {dims.order} translation table"
        )
    return _pair_index(dims, np.arange(dims.order), np.add)


def _sorted_translates(add: np.ndarray, indices: Sequence[int]) -> list[tuple[int, ...]]:
    """Sorted member indices of the translate by each site, from the table of _add_index_table."""
    translated = np.sort(add[:, np.asarray(indices, dtype=np.int64)], axis=1)
    return list(map(tuple, translated.tolist()))


@dataclass(frozen=True)
class SearchHit:
    config: Configuration
    value: float
    orbit_size: int


def _estimate_work(order: int, p: int) -> int:
    return math.comb(order, p) * p * p


def _enumerate_leaves(
    K: np.ndarray, order: int, p: int, objective: str
) -> Iterator[tuple[float, tuple[int, ...]]]:
    """All p-subsets in lexicographic order with their objective value.

    cur_e holds the per-site energy against the current partial selection
    and is updated by one kernel column per branch step.
    """
    cur_e = np.zeros(order)
    members: list[int] = []

    def rec(start: int) -> Iterator[tuple[float, tuple[int, ...]]]:
        if len(members) == p:
            sel = cur_e[members]
            value = float(sel.sum()) if objective == "total" else float(sel.max())
            yield value, tuple(members)
            return
        remaining = p - len(members)
        for j in range(start, order - remaining + 1):
            members.append(j)
            np.add(cur_e, K[:, j], out=cur_e)
            yield from rec(j + 1)
            np.subtract(cur_e, K[:, j], out=cur_e)
            members.pop()

    if p == 0:
        yield 0.0, ()
    else:
        yield from rec(0)


def brute_force(
    dims: GridDims,
    metric: Metric,
    f: EnergyFunction,
    p: int,
    objective: str = "total",
    top_k: int = 1,
    reduce: str = "none",
    budget: int | None = None,
) -> list[SearchHit]:
    """Exhaustively rank all p-subsets by total or maximal energy.

    With reduce="translations" only the lexicographically least translate
    of each orbit is kept, so the result is one row per translation orbit.
    Ties are broken by the canonical member tuple, which makes rankings
    reproducible.
    """
    if objective not in ("total", "max"):
        raise ValueError(f"objective must be 'total' or 'max', got {objective!r}")
    if reduce not in ("none", "translations"):
        raise ValueError(f"reduce must be 'none' or 'translations', got {reduce!r}")
    if not 0 <= p <= dims.order:
        raise ValueError(f"particle count {p} out of range 0..{dims.order}")
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    if budget is None:
        budget = DEFAULT_WORK_BUDGET
    work = _estimate_work(dims.order, p)
    if work > budget:
        raise BudgetExceededError(
            f"estimated work {work:.3e} elementary steps exceeds budget {budget:.3e} "
            f"for C({dims.order}, {p}) configurations"
        )
    kernel = build_kernel(dims, metric, f)
    K = kernel_matrix(kernel)
    leaves = _enumerate_leaves(K, dims.order, p, objective)
    if reduce == "translations":
        add = _add_index_table(dims)
        leaves = (
            (value, members)
            for value, members in leaves
            if min(_sorted_translates(add, members)) == members
        )
    hits = []
    for value, members in heapq.nsmallest(top_k, leaves):
        config = Configuration.from_indices(dims, members)
        size = len(set(_sorted_translates(add, members))) if reduce == "translations" else 1
        hits.append(SearchHit(config=config, value=value, orbit_size=size))
    return hits


@dataclass(frozen=True)
class LocalSearchResult:
    config: Configuration
    report: EnergyReport
    value: float


def _descend(
    K: np.ndarray, members: np.ndarray, objective: str, max_steps: int = 10_000
) -> tuple[np.ndarray, float, float]:
    """Best-improvement single-swap descent; returns members, e_max, e_tot.

    For the max objective the descent key is the pair (e_max, e_tot), so
    moves that keep the maximum but lower the total are still taken and
    plateaus of equal maxima can be crossed.  The key strictly decreases
    at every step; max_steps only guards against rounding pathologies.
    """
    order = K.shape[0]
    members = np.sort(np.asarray(members, dtype=np.int64))
    in_set = np.zeros(order, dtype=bool)
    in_set[members] = True
    non = np.flatnonzero(~in_set)
    cur_e = K[:, members].sum(axis=1) if len(members) else np.zeros(order)
    for _ in range(max_steps):
        if len(members) == 0 or len(non) == 0:
            break
        e_tot = float(cur_e[members].sum())
        e_max = float(cur_e[members].max())
        # candidate totals for every (out, in) pair
        new_tot = e_tot + 2.0 * (
            cur_e[non][None, :] - cur_e[members][:, None] - K[np.ix_(members, non)]
        )
        if objective == "total":
            flat = int(new_tot.argmin())
            o_i, i_i = divmod(flat, len(non))
            if not float(new_tot[o_i, i_i]) < e_tot:
                break
        else:
            swap_e = (
                cur_e[None, None, :]
                - K[:, members].T[:, None, :]
                + K[:, non].T[None, :, :]
            )
            mem_e = swap_e[:, :, members].copy()
            ar = np.arange(len(members))
            mem_e[ar, :, ar] = -np.inf
            in_e = swap_e[:, np.arange(len(non)), non]
            new_max = np.maximum(mem_e.max(axis=2), in_e)
            flat = int(np.lexsort((new_tot.ravel(), new_max.ravel()))[0])
            o_i, i_i = divmod(flat, len(non))
            candidate = (float(new_max[o_i, i_i]), float(new_tot[o_i, i_i]))
            if not candidate < (e_max, e_tot):
                break
        out_site, in_site = int(members[o_i]), int(non[i_i])
        cur_e = cur_e - K[:, out_site] + K[:, in_site]
        in_set[out_site] = False
        in_set[in_site] = True
        members = np.flatnonzero(in_set)
        non = np.flatnonzero(~in_set)
    e_tot = float(cur_e[members].sum()) if len(members) else 0.0
    e_max = float(cur_e[members].max()) if len(members) else 0.0
    return members, e_max, e_tot


def local_search(
    dims: GridDims,
    metric: Metric,
    f: EnergyFunction,
    p: int,
    objective: str = "max",
    restarts: int = 1,
    rng_seed: int = 0,
) -> LocalSearchResult:
    """Repeated single-swap hill descent from uniform random p-subsets.

    Deterministic for a fixed seed.  Returns the best configuration seen
    across restarts; no optimality claim is made.
    """
    if objective not in ("total", "max"):
        raise ValueError(f"objective must be 'total' or 'max', got {objective!r}")
    if not 0 <= p <= dims.order:
        raise ValueError(f"particle count {p} out of range 0..{dims.order}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    kernel = build_kernel(dims, metric, f)
    K = kernel_matrix(kernel)
    rng = np.random.default_rng(rng_seed)
    best_key: tuple[float, ...] | None = None
    best_members: np.ndarray | None = None
    for _ in range(restarts):
        start = rng.choice(dims.order, size=p, replace=False)
        members, e_max, e_tot = _descend(K, np.asarray(start), objective)
        key = (e_tot,) if objective == "total" else (e_max, e_tot)
        if best_key is None or key < best_key:
            best_key = key
            best_members = members
    assert best_members is not None
    config = Configuration.from_indices(dims, (int(i) for i in best_members))
    report = energies(config, kernel)
    value = report.e_tot if objective == "total" else report.e_max
    return LocalSearchResult(config=config, report=report, value=value)
