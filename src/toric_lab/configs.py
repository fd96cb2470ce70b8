"""Exact configuration energies, exhaustive and stochastic search over p-subsets.

A configuration is the strictly increasing tuple of its site indices.
Energies and translation structure come from one table of signed per-axis
member differences s_a - s_b: energies() folds it in place into the pairs'
integer distance keys and evaluates f once per distinct key, so its cost
grows with p^2 and not with |G|, and its sorted columns, raveled to site
indices with mode="wrap", are the p translates through site 0, which hold
the canonical translate, the stabiliser and the coset test.  Exhaustive
search is a depth-first, batched branch and bound over sorted prefixes: a
prefix is pruned only when a lower bound on every subset below it exceeds
the top_k-th best value found so far by more than a rounding slack, and each
subset reached reads its member pairs off the kernel matrix, whose entries are
f at the same keys, so hits are ranked by (value, member tuple) exactly as a
full enumeration of energies() values ranks them, with orbit sizes from the
translates the leaves were filtered by.  It refuses a worst-case work estimate
beyond a budget instead of running for hours.  Both searches go through one
entry, _search, which owns every rule they share: the argument checks; each
search's own limits and the kernel matrix's 2048-row limit, all checked
before the kernel is built or f is called; p = 0 as the empty configuration,
which reads no energy; the one kernel matrix; one leaf-value reader; and one
refusal of a hit value that overflows.  Local search reads its winner's
value off the same matrix as a leaf and keeps per-site energies
incrementally: a swap costs O(|G|) to apply, and scoring a step's swaps
O(p (|G| - p)) for the total objective.  For the max it costs
O(H p (|G| - p)) for a lower bound on every swap's new maximum from the
H = _HOT_MEMBERS members of highest energy, plus O(p) for each swap whose
bound does not rule it out, whose exact new maximum is then computed, or
O(p^2 (|G| - p)) in all when so many survive that folding every member in
costs less; the bound and the exact values take the same float
operations, so the pick is the one that scoring every swap exactly gives,
bit for bit.  The O(p^2 (|G| - p)) limit stays the worst case.
Its restarts descend together in batches of about _BATCH_PAIRS / (p (|G| - p))
restarts, so a batch holds a few (restarts, p, |G| - p) score arrays of about
_BATCH_PAIRS entries each, whatever the number of restarts, and the exact
maxima are computed in chunks no larger than those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .energy import EnergyFunction, KernelTable, _tabulate, build_kernel
from .grid import (
    BudgetExceededError,
    GridDims,
    Metric,
    Site,
    _check_even,
    _check_site,
    _finite,
    _integer,
    _integers,
    _particle_count,
    distance_key,
    index_to_sites,
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
    "local_search",
    "BudgetExceededError",
    "DEFAULT_WORK_BUDGET",
]

DEFAULT_WORK_BUDGET = 10**10

# Most sites of the kernel matrix, and most members of a pair difference table.
# Its square bounds the p^2 (|G| - p) swap-scoring terms of one max-objective
# descent step in local search.
_MAX_MATRIX_SITES = 2048

# Most entries exhaustive search gathers at once: leaf rows x p^2, or prefix rows x |G|.
_BATCH_PAIRS = 1 << 16

# Most prefixes in one batch of the exhaustive search tree; of 64, 256, 1024
# and 4096, 256 was fastest on the search workload's exhaustive instances.
_CHUNK_ROWS = 256

# The pruning slack in units of one sum's rounding-error bound (see brute_force).
_SLACK_FACTOR = 4
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

_EQUIENERGY_RTOL = 1e-9
_MAX_DESCENT_STEPS = 10_000

# Members of highest energy whose energies bound a max-objective swap's new
# maximum from below (see _descend).
_HOT_MEMBERS = 8
# The time of one term of a swap's exact new maximum computed on its own, in
# terms folded over every swap at once: 8.4-9.0 against 1.95-2.05 ns at 12x12
# p = 72 (the calls of one 5-restart Chebyshev search, f = 1 below distance 3
# and 0.5 beyond; 2-vCPU host).
_EXACT_COST = 4


@dataclass(frozen=True)
class Configuration:
    """A p-element subset of the grid: its site indices, strictly increasing."""

    dims: GridDims
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = _integers(self.members, "site indices")
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ValueError("site indices must strictly increase")
        for i in members[:1] + members[-1:]:  # the least and the greatest
            if not 0 <= i < self.dims.order:
                raise ValueError(f"site index {i} out of range for |G| = {self.dims.order}")
        object.__setattr__(self, "members", members)

    @classmethod
    def from_indices(cls, dims: GridDims, indices: Iterable[int]) -> Configuration:
        """The configuration of the given site indices, in any order and with repeats."""
        return cls(dims, sorted(set(_integers(indices, "site indices"))))

    @classmethod
    def from_sites(cls, dims: GridDims, sites: Iterable[Sequence[int]]) -> Configuration:
        return cls.from_indices(dims, (site_index(dims, s) for s in sites))

    @property
    def p(self) -> int:
        return len(self.members)

    def sites(self) -> tuple[Site, ...]:
        return tuple(index_to_sites(self.dims, self.members))

    def __contains__(self, site: Sequence[int]) -> bool:
        return site_index(self.dims, site) in self.members

    def translate(self, shift: Sequence[int]) -> Configuration:
        shift = _check_site(self.dims, shift, "shift")
        sizes = self.dims.sizes
        coords = np.unravel_index(np.array(self.members, dtype=np.int64), sizes)
        moved = tuple(c - (n - s % n) for c, s, n in zip(coords, shift, sizes))  # -n..n-2: no overflow
        return Configuration(self.dims, np.sort(np.ravel_multi_index(moved, sizes, mode="wrap")))

    def canonical(self) -> Configuration:
        """Lexicographically least translate (the orbit representative used everywhere)."""
        if self.p == 0:
            return self
        rows = _zero_translates(self.dims, np.array(self.members, dtype=np.int64))
        return Configuration(self.dims, rows[_least_rows(rows)])

    def orbit_size(self) -> int:
        """Number of distinct translates: |G| over the size of the stabiliser."""
        if self.p == 0:
            return 1
        rows = _zero_translates(self.dims, np.array(self.members, dtype=np.int64))
        return self.dims.order // int((rows == rows[0]).all(axis=1).sum())


def checkerboard(dims: GridDims, parity: str = "even") -> Configuration:
    """The sites whose coordinate sum has the given parity; needs all sizes even.

    The even and odd checkerboards partition the grid into two halves that
    are translates of each other by any single-step shift.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    _check_even(dims, "checkerboard")
    coordinate_sum = sum(np.ix_(*[np.arange(n) for n in dims.sizes]))
    want = 0 if parity == "even" else 1
    return Configuration(dims, np.flatnonzero(coordinate_sum % 2 == want))


@dataclass(frozen=True)
class EnergyReport:
    """Per-site energies of a configuration plus their maximum and sum.

    per_site iterates in site-index order, which is the sites' lexicographic
    order: the members are stored sorted.
    """

    per_site: dict[Site, float]
    e_max: float
    e_tot: float
    is_equienergetic: bool
    is_empty: bool = False


def _check_rows(rows: int) -> None:
    """Refuses a kernel matrix or pair table of more than _MAX_MATRIX_SITES rows."""
    if rows > _MAX_MATRIX_SITES:
        raise BudgetExceededError(
            f"refusing to build a {rows} x {rows} kernel matrix or pair table "
            f"(limit {_MAX_MATRIX_SITES} rows)"
        )


def _pair_differences(dims: GridDims, idx: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per axis, D[..., a, b] = coordinate of site idx[..., a] - site idx[..., b], in -(n-1)..n-1.

    Nothing is reduced mod n: `_wraps` and `_zero_translates` fold the signs themselves.
    """
    _check_rows(idx.shape[-1])
    coords = np.unravel_index(idx, dims.sizes)
    return tuple(c[..., :, None] - c[..., None, :] for c in coords)


def _wraps(sizes: Sequence[int], diff: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Signed per-axis differences d, overwritten in place by their wraps min(|d|, n_i - |d|).

    |d| is taken in place before n_i - |d|; nothing of size n_i is built, so
    the cost does not grow with the grid.
    """
    return tuple(np.minimum(np.abs(d, out=d), n - d, out=d) for d, n in zip(diff, sizes))


def _zero_translates(dims: GridDims, idx: np.ndarray) -> np.ndarray:
    """Row b: the sorted site indices of S - s_b, S = idx[..., :]; the least translate is a row.

    The C-order ravel reduces the signed member differences mod n itself (mode="wrap").
    """
    differences = np.ravel_multi_index(_pair_differences(dims, idx), dims.sizes, mode="wrap")
    return np.sort(differences.swapaxes(-1, -2), axis=-1)


def _least_rows(rows: np.ndarray) -> np.ndarray:
    """Index of the lexicographically least row of each matrix in rows[..., :, :]; first on ties."""
    live = np.ones(rows.shape[:-1], dtype=bool)
    for j in range(rows.shape[-1]):
        column = np.where(live, rows[..., j], np.iinfo(rows.dtype).max)
        live &= column == column.min(axis=-1, keepdims=True)
    return live.argmax(axis=-1)


def energies(config: Configuration, metric: Metric, f: EnergyFunction) -> EnergyReport:
    """Energy experienced by each member: u = f(distance) over its member pairs, summed.

    The p x p per-axis member differences become their wraps and then the
    pairs' integer distance keys in place, and f is evaluated once per
    distinct nonzero key, in increasing order, as build_kernel evaluates it
    over the block; no kernel block is built, so the cost grows with p^2
    and not with |G|, and f need only be defined at the members' distances.
    Each pair value is the kernel block's entry at that difference, bit for
    bit.  An empty configuration has no energies; zeros are returned with
    the is_empty flag set.  A member energy or a total that overflows is a
    ValueError.
    """
    if config.p == 0:
        return EnergyReport(per_site={}, e_max=0.0, e_tot=0.0, is_equienergetic=True, is_empty=True)
    idx = np.array(config.members, dtype=np.int64)
    # the other axes' tables are freed before f is tabulated at the keys
    key = distance_key(metric, _wraps(config.dims.sizes, _pair_differences(config.dims, idx)))
    per = _tabulate(key, metric, f).sum(axis=1)
    # f is finite at every key, so a non-finite member energy is an overflowed sum;
    # inf - inf would make the equienergy spread NaN and the flag read False
    _finite(per, "member energies", "a member's sum of pair energies overflows")
    e_max = float(per.max())  # one of the finite member energies
    e_tot = _finite(float(per.sum()), "total energy", "the sum of the member energies overflows")
    spread = float(per.max() - per.min())
    return EnergyReport(
        per_site=dict(zip(index_to_sites(config.dims, idx), per.tolist())),
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

    S is a coset exactly when its translates S - s_b by its own members all
    coincide; that common set is then the subgroup.
    """
    if config.p == 0:
        raise ValueError("empty configuration is not a coset")
    rows = _zero_translates(config.dims, np.array(config.members, dtype=np.int64))
    if not (rows == rows[0]).all():
        return CosetCheck(is_coset=False, subgroup=None)
    return CosetCheck(is_coset=True, subgroup=tuple(index_to_sites(config.dims, rows[0])))


def kernel_matrix(kernel: KernelTable) -> np.ndarray:
    """Dense |G| x |G| matrix K[i, j] = u(site_i - site_j); diagonal is zero.

    The one read of the kernel block at site differences.  Axis a's
    differences are one n_a x n_a table on open-grid axes a and d + a; they
    broadcast in the gather, so no |G| x |G| index array is built.
    """
    sizes, order = kernel.dims.sizes, kernel.dims.order
    _check_rows(order)
    grids = np.ix_(*[np.arange(n) for n in sizes * 2])
    diff = tuple(grids[a] - grids[a + len(sizes)] for a in range(len(sizes)))
    return kernel.block[_wraps(sizes, diff)].reshape(order, order)


@dataclass(frozen=True)
class SearchHit:
    config: Configuration
    value: float
    orbit_size: int


def _search(
    dims: GridDims, metric: Metric, f: EnergyFunction, p: int, objective: str, limit: Callable, find: Callable
) -> list[SearchHit]:
    """The one entry of brute_force and local_search: every rule they share.

    Each search checks the arguments only it reads before it enters.  Here
    the objective and the particle count are checked, then limit(p), the
    search's own limits at that count, so every limit is checked before the
    kernel is built or f is called.  p = 0 is then the empty configuration,
    value 0.0 and orbit size 1, which reads no energy, as energies() treats
    it.  Otherwise the kernel matrix's 2048-row limit is checked, the one
    kernel matrix is built, and the search's algorithm find(K, p) returns
    its hits' values (each read by _leaf_values), member rows and orbit
    sizes, ranked.  A hit value that overflows is a ValueError.
    """
    if objective not in ("total", "max"):
        raise ValueError(f"objective must be 'total' or 'max', got {objective!r}")
    p = _particle_count(dims, p)
    limit(p)
    if p == 0:
        return [SearchHit(config=Configuration(dims, ()), value=0.0, orbit_size=1)]
    _check_rows(dims.order)
    ranked = find(kernel_matrix(build_kernel(dims, metric, f)), p)
    _finite(ranked[0], "hit value", "a hit's sum of pair energies overflows")
    return [SearchHit(Configuration(dims, m), v, size) for v, m, size in zip(*(a.tolist() for a in ranked))]


def _leaf_values(K: np.ndarray, rows: np.ndarray, objective: str) -> np.ndarray:
    """Each row's value: its member pairs read off K, summed per member, then totalled or maximised."""
    per = K[rows[:, :, None], rows[:, None, :]].sum(axis=2)
    return per.sum(axis=1) if objective == "total" else per.max(axis=1)


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

    The subsets are the leaves of a tree of sorted prefixes, searched depth
    first in batches of prefixes with branch and bound.  A prefix P of m
    members carries its site energies E[j] = sum over a in P of u(a - j);
    its children are P + (j,) for j after its last member, visited in order
    of their own prefix energy (total, or the largest member energy), so
    good leaves come early.  With r = p - m members still to add, every leaf
    below P has at least the value
        total:  e_tot(P) + 2 (sum of the r smallest E[j], j after P) + r(r-1) min u,
        max:    max over a in P of E[a] + r min u,
    since each added member adds its energy against P twice to the total, and
    at least min u against each other member, whatever the sign of u.
    A prefix is pruned only when its bound exceeds the incumbent T, the
    top_k-th best value among the leaves evaluated so far (infinite until
    top_k of them exist), by more than a rounding slack.  Both a leaf value
    and a bound are float sums of at most p(p-1) kernel entries, each at most
    U = max |u| in size, so each is off its exact value by at most
    gamma_{p^2} p(p-1) U (gamma_n = n eps / (1 - n eps), eps the unit
    roundoff); the slack is _SLACK_FACTOR = 4 times that: one for the leaf,
    one for the bound, and as much again for rounding T + slack and the
    product r(r-1) min u.  So no leaf whose value ties or beats T is ever
    pruned, and without pruning the search is the full enumeration.

    Each leaf batch's member pairs are read off the kernel matrix, whose
    entries are the block's at the pairs' wraps: f at the distance key where
    energies() takes it, summed over a member's p pairs in the same order,
    so every value equals the energies() value of its configuration bit for
    bit.  Hits are ranked by (value, member tuple): leaves not above the
    limit wait until top_k of them do, then are ranked with the top_k kept.
    With reduce="translations" only the lexicographically least translate of
    each orbit is kept, so the result is one row per translation orbit.
    That translate contains site 0, so only prefixes through site 0 are
    expanded, and each leaf is checked against its p translates through
    site 0; its orbit size is |G| over the number of those equal to itself,
    read off the same table, and 1 without translations.  The work estimate
    checked against the budget is the worst case, every leaf enumerated:
    leaves x p^2 member pairs, so pruning never turns a refusal into a run.
    It and the kernel matrix's 2048-row limit are checked before the kernel
    is built or f is called, and p = 0 is the empty configuration, which
    reads no energy.  The budget must be an integer of at least 0, so NaN
    and inf are refused; each refusal is a ValueError, and so is a hit whose
    value overflows.
    """
    if reduce not in ("none", "translations"):
        raise ValueError(f"reduce must be 'none' or 'translations', got {reduce!r}")
    top_k = _integer(top_k, "top_k", 1)
    budget = DEFAULT_WORK_BUDGET if budget is None else _integer(budget, "budget", 0)

    def limit(p: int) -> None:
        leaves = math.comb(dims.order - 1, p - 1) if reduce == "translations" and p else math.comb(dims.order, p)
        if (work := leaves * p * p) > budget:
            raise BudgetExceededError(
                f"estimated work {work:.3e} member pairs exceeds budget {budget:.3e} "
                f"for p = {p} on {dims.order} sites with reduce={reduce!r}"
            )

    return _search(dims, metric, f, p, objective, limit,
                   lambda K, p: _branch_and_bound(dims, K, p, objective, top_k, reduce == "translations"))


def _rank(seen: list[tuple[np.ndarray, ...]], top_k: int) -> tuple[np.ndarray, ...]:
    """The top_k of the (leaf values, member rows, orbit sizes) batches seen, by (value, member tuple)."""
    values, rows, sizes = map(np.concatenate, zip(*seen))
    ranked = np.lexsort((*rows.T[::-1], values))[:top_k]
    return values[ranked], rows[ranked], sizes[ranked]


def _branch_and_bound(
    dims: GridDims, K: np.ndarray, p: int, objective: str, top_k: int, translations: bool
) -> tuple[np.ndarray, ...]:
    """The top_k leaf values, member rows and orbit sizes of brute_force's search tree, ranked."""
    order = K.shape[0]
    off_diagonal = K[0, 1:]  # u at every nonzero displacement
    min_u = float(off_diagonal.min()) if off_diagonal.size else 0.0
    largest = float(np.abs(off_diagonal).max()) if off_diagonal.size else 0.0
    gamma = p * p * _UNIT_ROUNDOFF / (1 - p * p * _UNIT_ROUNDOFF)
    slack = _SLACK_FACTOR * gamma * p * (p - 1) * largest
    sites = np.arange(order)
    # a stack of batches of prefixes of one length: members, prefix energy (the key
    # children are ordered by), and the parent's site energies with each row's parent
    stack: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def push(prefixes: np.ndarray, keys: np.ndarray, parent: np.ndarray, rows: np.ndarray) -> None:
        m = prefixes.shape[1]
        # a leaf gathers p^2 pairs; a prefix's bound and children take m x |G| entries
        size = max(1, min(_CHUNK_ROWS, _BATCH_PAIRS // (p * p if m == p else order * m)))
        for start in reversed(range(0, len(prefixes), size)):
            chunk = slice(start, start + size)
            stack.append((prefixes[chunk], keys[chunk], parent, rows[chunk]))

    # the first members: any site that leaves room for p - 1 more, or site 0 alone
    firsts = sites[: 1 if translations else order - p + 1]
    push(firsts[:, None], np.zeros(len(firsts)), np.zeros((1, order)), np.zeros(len(firsts), dtype=np.int64))
    # the ranked top_k so far, then the batches of leaves since, none above the limit
    seen, waiting = [(np.empty(0), np.empty((0, p), dtype=np.int64), np.empty(0, dtype=np.int64))], 0
    limit = np.inf  # incumbent plus slack: a bound above it prunes
    while stack:
        prefixes, keys, parent, rows = stack.pop()
        r = p - prefixes.shape[1]
        if r == 0:
            batch = prefixes[~(keys > limit)]
            sizes = np.ones(len(batch), dtype=np.int64)
            if translations:  # each orbit's least translate, and |G| over how many translates equal it
                translates = _zero_translates(dims, batch)
                translates = translates[_least_rows(translates) == 0]
                batch = translates[:, 0]  # row 0 is the leaf itself, S - 0: its first member is site 0
                sizes = order // (translates == translates[:, :1]).all(axis=2).sum(axis=1)
            leaf = _leaf_values(K, batch, objective)
            kept = ~(leaf > limit)
            seen.append((leaf[kept], batch[kept], sizes[kept]))
            waiting += int(kept.sum())
            if waiting >= top_k:  # rank once top_k wait: the rows sorted stay about twice the leaves
                seen, waiting = [_rank(seen, top_k)], 0
                limit = seen[0][0][-1] + slack
            continue
        E = parent[rows] + K[prefixes[:, -1]]
        after = sites > prefixes[:, -1:]
        if objective == "total":
            smallest = np.partition(np.where(after, E, np.inf), r - 1, axis=1)[:, :r].sum(axis=1)
            bounds = keys + 2 * smallest + r * (r - 1) * min_u
        else:
            bounds = keys + r * min_u
        live = ~(bounds > limit)
        prefixes, keys, E = prefixes[live], keys[live], E[live]
        if objective == "total":
            child_keys = keys[:, None] + 2 * E
        else:
            members_E = np.take_along_axis(E, prefixes, axis=1)
            child_keys = np.maximum((members_E[:, :, None] + K[prefixes]).max(axis=1), E)
        children = after[live] & (sites <= order - r)
        if r == 1:  # a leaf's prefix energy is its bound
            children &= ~(child_keys > limit)
        rows, js = np.nonzero(children)
        child_keys = child_keys[rows, js]
        ranked = np.argsort(child_keys, kind="stable")
        rows, js = rows[ranked], js[ranked]
        push(np.concatenate((prefixes[rows], js[:, None]), axis=1), child_keys[ranked], E, rows)
    return _rank(seen, top_k)


def _fold_members(
    new_max: np.ndarray, K: np.ndarray, K_mn: np.ndarray, cur_m: np.ndarray, members: np.ndarray,
    columns: np.ndarray,
) -> None:
    """Max-folds into new_max[r, o, i] the energy (c_a - K[a, o]) + K[a, i] of each member a = columns[r, j].

    One column j at a time, on (rows, p, |G| - p) arrays; a = o, the member
    swapped out, is left out.
    """
    step = np.arange(len(members))
    stay = np.empty_like(new_max)
    for a in columns.T:
        v = cur_m[step, a, None] - K[members[step, a, None], members]
        v[step, a] = -np.inf
        np.add(v[:, :, None], K_mn[step, a, None, :], out=stay)
        np.maximum(new_max, stay, out=new_max)


def _new_maxima(
    K: np.ndarray, K_mn: np.ndarray, cur_m: np.ndarray, members: np.ndarray, bound: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """The exact new maximum of each swap at flat index `at` of _descend's (rows, p, |G| - p) swap array.

    Each is the swap's bound, which holds the incoming site's energy,
    max-folded with every staying member's energy (c_a - K[a, o]) + K[a, i],
    the float operations _descend's bound does on its terms, so the value is
    the one a fold over every member gives, bit for bit.  K[a, i] is read
    off the step's member-by-non-member table K_mn.  The swaps go in
    chunks of at most _BATCH_PAIRS terms and 1 / _EXACT_COST of the swap
    array's entries: a chunk's three (swaps, p) arrays together stay below
    one of the step's score arrays, and _descend computes exact maxima on
    their own only for fewer terms than that in all, so one chunk serves a
    step whose score arrays hold at most _EXACT_COST * _BATCH_PAIRS entries.
    """
    rows, p, q = K_mn.shape
    size = max(1, min(_BATCH_PAIRS // p, rows * q // _EXACT_COST))
    out = np.empty(at.size)
    for start in range(0, at.size, size):
        swaps = at[start:start + size]
        row, o_i = np.divmod(swaps, p * q)
        o_i, i_i = np.divmod(o_i, q)
        # K[a, o] is K.take(a |G| + o)
        stay = K.take(members[row] * K.shape[1] + members[row, o_i, None])
        np.subtract(cur_m[row], stay, out=stay)
        stay[np.arange(swaps.size), o_i] = -np.inf
        stay += K_mn[row, :, i_i]
        np.maximum(stay.max(axis=1), bound.reshape(-1)[swaps], out=out[start:start + size])
    return out


def _descend(
    K: np.ndarray, starts: np.ndarray, objective: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-improvement single-swap descent from each row of starts; members, e_max, e_tot per row.

    The rows descend together, each as if alone: a row leaves the batch
    once no swap lowers its key.  Each step takes the swap of least key,
    the first in (member, non-member) order on ties, members and
    non-members both sorted.  For the max objective the key is the pair
    (e_max, e_tot), so moves that keep the maximum but lower the total are
    still taken and plateaus of equal maxima can be crossed.  The key
    strictly decreases at every step; _MAX_DESCENT_STEPS per row only
    guards against rounding pathologies.  Scoring a step costs O(p (|G| - p)) per
    row for the total, in (rows, p, |G| - p) arrays.  For the max, member
    a's energy after swapping member o out for site i is
    (c_a - K[a, o]) + K[a, i], and the incoming site's is c_i - K[o, i]:
      - bound: the incoming site's energy max-folded with the energies of
        the row's _HOT_MEMBERS members of highest c_a (a = o left out), one
        member at a time, O(H p (|G| - p)) per row.  max is exact, so the
        bound is at most the exact new maximum, bit for bit;
      - threshold: t = min(e_max, exact new maximum of the bound's first
        argmin).  A swap bounded above t has a new maximum above the least
        one, or above e_max, so it cannot be picked, or no swap moves;
      - survivors: the swaps bounded at most t get their exact new maxima
        from _new_maxima, O(p) each, the others +inf, and the pick above
        runs on these values as on a fold over every member.  When so many
        survive that this would cost more than folding the other p - H
        members in (one exact term costs about _EXACT_COST folded ones), they
        are folded in instead, and every value is exact.
    With p at most _HOT_MEMBERS the bound folds every member and is exact.
    A NaN bound or threshold rules nothing out.  K is symmetric, so its
    rows serve as columns.
    """
    rows, p = starts.shape
    order = K.shape[0]
    q = order - p
    in_set = np.zeros((rows, order), dtype=bool)
    in_set[np.arange(rows)[:, None], starts] = True
    members = np.nonzero(in_set)[1].reshape(rows, p)
    cur_e = np.stack([K[:, m].sum(axis=1) for m in members]) if p else np.zeros((rows, order))
    out_members = members.copy()
    out_max, out_tot = np.zeros(rows), np.zeros(rows)
    live = np.arange(rows)  # the batch rows still descending, in order
    if p and q:
        for _ in range(_MAX_DESCENT_STEPS):
            if not live.size:
                break
            step = np.arange(live.size)
            at = step[:, None]
            non = np.nonzero(~in_set)[1].reshape(live.size, q)
            cur_m, cur_n = cur_e[at, members], cur_e[at, non]
            e_tot, e_max = cur_m.sum(axis=1), cur_m.max(axis=1)
            K_mn = K[members[:, :, None], non[:, None, :]]
            # candidate totals for every (out, in) pair: e_tot + 2 ((c_i - c_o) - K[o, i])
            new_tot = np.subtract(cur_n[:, None, :], cur_m[:, :, None])
            new_tot -= K_mn
            new_tot *= 2.0
            new_tot += e_tot[:, None, None]
            flat_tot = new_tot.reshape(live.size, p * q)
            if objective == "total":
                flat = flat_tot.argmin(axis=1)
                moves = flat_tot[step, flat] < e_tot
            else:
                # a lower bound on each swap's new maximum: the incoming site's energy
                # (K[i, i] is zero), then the energies of the row's hottest members
                heat = np.argsort(cur_m, axis=1)
                new_max = cur_n[:, None, :] - K_mn
                _fold_members(new_max, K, K_mn, cur_m, members, heat[:, -_HOT_MEMBERS:])
                flat_max = new_max.reshape(live.size, p * q)
                if p > _HOT_MEMBERS:  # else every member was folded in: the bound is exact
                    # t as in the docstring; a NaN bound, or a NaN t, keeps every swap it touches
                    first = flat_max.argmin(axis=1) + step * (p * q)
                    t = np.minimum(e_max, _new_maxima(K, K_mn, cur_m, members, flat_max, first))
                    candidates = ~(flat_max > t[:, None])
                    if np.count_nonzero(candidates) * p * _EXACT_COST <= (p - _HOT_MEMBERS) * flat_max.size:
                        survivors = np.flatnonzero(candidates)
                        exact = _new_maxima(K, K_mn, cur_m, members, flat_max, survivors)
                        flat_max[~candidates] = np.inf
                        flat_max.reshape(-1)[survivors] = exact
                    else:  # so many survive that folding the other members in costs less
                        _fold_members(new_max, K, K_mn, cur_m, members, heat[:, :-_HOT_MEMBERS])
                least_max = flat_max.min(axis=1)
                ties = flat_max == least_max[:, None]
                least_tot = np.where(ties, flat_tot, np.inf).min(axis=1)
                flat = (ties & (flat_tot == least_tot[:, None])).argmax(axis=1)
                moves = (least_max < e_max) | ((least_max == e_max) & (least_tot < e_tot))
            o_i, i_i = np.divmod(flat, q)
            out_site, in_site = members[step, o_i][moves], non[step, i_i][moves]
            stop = ~moves
            out_members[live[stop]] = members[stop]
            out_max[live[stop]], out_tot[live[stop]] = e_max[stop], e_tot[stop]
            live, in_set = live[moves], in_set[moves]
            cur_e = cur_e[moves] - K[out_site] + K[in_site]
            kept = np.arange(live.size)
            in_set[kept, out_site] = False
            in_set[kept, in_site] = True
            members = np.nonzero(in_set)[1].reshape(live.size, p)
    if p and live.size:  # the rows that ran out of steps, or every row when nothing can swap
        cur_m = cur_e[np.arange(live.size)[:, None], members]
        out_members[live], out_max[live], out_tot[live] = members, cur_m.max(axis=1), cur_m.sum(axis=1)
    return out_members, out_max, out_tot


def local_search(
    dims: GridDims,
    metric: Metric,
    f: EnergyFunction,
    p: int,
    objective: str = "max",
    restarts: int = 1,
    rng_seed: int = 0,
) -> SearchHit:
    """Repeated single-swap hill descent from uniform random p-subsets.

    rng_seed, an integer of at least 0, seeds the one generator, so the
    search is deterministic for a fixed seed; restarts is an integer of at
    least 1.  Both are checked before the kernel is built.  The starts are
    drawn one restart after another from that generator and descend in
    batches of _BATCH_PAIRS // (p (|G| - p)) restarts, at least one (|G|
    stands in for p (|G| - p) where it is larger), so a batch's score arrays
    hold about _BATCH_PAIRS entries however many restarts run.  Every restart's
    descent is the one it would take alone.  Returns the best configuration
    seen, the first restart of least key (e_tot, or (e_max, e_tot) for the
    max objective), with its energies() value, bit for bit, read off the
    kernel matrix as a brute_force leaf reads it; no optimality claim is made.
    The max objective's swap-term limit and the kernel matrix's 2048-row
    limit are checked before the kernel is built or f is called, and p = 0
    is the empty configuration, which reads no energy.  A best value that
    overflows is a ValueError.
    """
    restarts, rng_seed = _integer(restarts, "restarts", 1), _integer(rng_seed, "rng_seed", 0)

    def limit(p: int) -> None:
        # a max-objective step scores each of the p x (|G| - p) swaps against p members
        # when its bound rules none out: bound that worst case, p^2 (|G| - p) work per
        # step and restart
        if objective == "max" and p * p * (dims.order - p) > _MAX_MATRIX_SITES**2:
            raise BudgetExceededError(
                f"refusing the max objective: one descent step scores {p} x {dims.order - p} x {p} "
                f"swap terms (limit {_MAX_MATRIX_SITES ** 2} terms)"
            )

    def find(K: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
        rng = np.random.default_rng(rng_seed)
        # |G| also bounds a batch's (restarts, |G|) site arrays when |G| - p is 0
        size = max(1, _BATCH_PAIRS // max(p * (dims.order - p), dims.order))
        best_key: tuple[float, ...] | None = None
        for first in range(0, restarts, size):
            starts = [rng.choice(dims.order, size=p, replace=False) for _ in range(min(size, restarts - first))]
            members, e_max, e_tot = _descend(K, np.array(starts), objective)
            keys = zip(e_tot.tolist()) if objective == "total" else zip(e_max.tolist(), e_tot.tolist())
            for row, key in zip(members, keys):
                if best_key is None or key < best_key:
                    best_key, best = key, row[None]
        return _leaf_values(K, best, objective), best, np.ones(1, dtype=np.int64)

    return _search(dims, metric, f, p, objective, limit, find)[0]
