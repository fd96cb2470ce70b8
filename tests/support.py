"""Shared oracles and fixed reference data for the test suite.

The oracles here recompute quantities from their definitions (full double
sums, set arithmetic, breadth-first closures) and deliberately avoid the
library's factored fast paths.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Iterator

import numpy as np

from toric_lab.energy import KernelTable, Tabulated
from toric_lab.grid import Character, GridDims, Metric, Site, distance_table, expand_block
from toric_lab.spectrum import EigenTable, default_tie_tol

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

# 2-coordinate sites that are not sites, each with the text an error shows
# it as: a float, a numpy float and a str coordinate
NON_INTEGRAL_SITES = [
    ((1.5, 2), "(1.5, 2)"),
    ((np.float64(1.0), 2), "(np.float64(1.0), 2)"),
    (("1", 2), "('1', 2)"),
]


def wrap_abs(a: int, n: int) -> int:
    """Smallest non-negative representative of +-a modulo n; always <= n // 2."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    r = a % n
    return min(r, n - r)


def distance(metric: Metric, g, h, dims: GridDims) -> float:
    """Distance between two sites under the wrap-around metric of the given kind."""
    wraps = [wrap_abs(hi - gi, n) for gi, hi, n in zip(g, h, dims.sizes, strict=True)]
    if metric is Metric.LEE:
        return sum(wraps)
    if metric is Metric.EUCLIDEAN_SQUARED:
        return sum(w * w for w in wraps)
    if metric is Metric.EUCLIDEAN:
        return math.sqrt(sum(w * w for w in wraps))
    if metric is Metric.CHEBYSHEV:
        return max(wraps)
    raise ValueError(f"unknown metric {metric!r}")


def enumerate_sites(dims: GridDims) -> Iterator[Site]:
    """All sites in row-major order; position of a site equals its `site_index`."""
    return itertools.product(*(range(n) for n in dims.sizes))


def trivial_character(dims: GridDims) -> Character:
    """The character sending every site to 1."""
    return (0,) * dims.ndim


def checkerboard_sites(dims: GridDims, parity: str = "even") -> list[Site]:
    """Sites whose coordinate sum has the given parity; needs all sizes even."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if not dims.all_even():
        odd = [n for n in dims.sizes if n % 2]
        raise ValueError(f"checkerboard needs all even sizes, got odd {odd} in {dims.sizes}")
    want = 0 if parity == "even" else 1
    return [s for s in enumerate_sites(dims) if sum(s) % 2 == want]


def coords_array(dims: GridDims) -> np.ndarray:
    """Integer array of shape (|G|, d) whose row i is the site with index i."""
    return np.stack(np.unravel_index(np.arange(dims.order), dims.sizes), axis=1).astype(np.int64)


def add_sites(dims: GridDims, g, h) -> Site:
    return tuple((a + b) % n for a, b, n in zip(g, h, dims.sizes, strict=True))


def negate_site(dims: GridDims, g) -> Site:
    return tuple((-a) % n for a, n in zip(g, dims.sizes, strict=True))


def conjugate_character(dims: GridDims, chi) -> Site:
    return negate_site(dims, chi)


def character_value(dims: GridDims, chi, g) -> complex:
    """Value of the character at a site: the product of per-axis roots of unity."""
    phase = sum((j * c % n) / n for j, c, n in zip(chi, g, dims.sizes, strict=True))
    return complex(math.cos(2.0 * math.pi * phase), math.sin(2.0 * math.pi * phase))


def full_kernel(kernel: KernelTable) -> np.ndarray:
    """The kernel over all |G| sites, in site-index order, expanded from its block."""
    return expand_block(kernel.dims, kernel.block).ravel()


def direct_eigen_oracle(kernel: KernelTable, dtype=np.float64) -> np.ndarray:
    """Eigenvalues by the defining O(|G|^2) cosine double sum, computed in dtype.

    Phases are accumulated from exact integer products per axis, so the
    oracle stays accurate for every grid size used in the tests.  With
    np.longdouble it is an extended-precision reference on platforms whose
    long double is wider than float64.
    """
    dims = kernel.dims
    order = dims.order
    coords = np.stack(np.unravel_index(np.arange(order), dims.sizes), axis=1)
    phase = np.zeros((order, order), dtype=dtype)
    for axis, n in enumerate(dims.sizes):
        phase += ((coords[:, None, axis] * coords[None, :, axis]) % n).astype(dtype) / dtype(n)
    two_pi = 8 * np.arctan(dtype(1))
    return (np.cos(two_pi * phase) * full_kernel(kernel).astype(dtype)[None, :]).sum(axis=1)


def eigen_block_oracle(kernel: KernelTable) -> np.ndarray:
    """Eigenvalue block by one whole-array `hfft` per axis, each keeping entries 0..n_i // 2.

    The transform `eigen_table` runs in slabs; every 1-D transform here sees
    the same data in the same order, so the two blocks agree bit for bit.
    """
    vals = kernel.block
    for axis, n in enumerate(kernel.dims.sizes):
        vals = np.take(np.fft.hfft(vals, n, axis=axis), np.arange(n // 2 + 1), axis=axis)
    return vals


def full_scan_argmin(eigs, tie_tol: float) -> tuple[float, list[Site]]:
    """Non-trivial minimum and its tie set, by a scan of the full eigenvalue table.

    The table over all |G| characters is expanded from the block here, by
    reading each character's entry at its per-axis wraps min(c, n - c).
    """
    dims = eigs.dims
    coords = coords_array(dims)
    sizes = np.array(dims.sizes, dtype=np.int64)
    full = eigs.block[tuple(np.minimum(coords, sizes - coords).T)]
    lam_min = float(full[1:].min())
    hits = np.flatnonzero(full[1:] <= lam_min + tie_tol) + 1
    return lam_min, [tuple(int(c) for c in coords[i]) for i in hits]


def eigs_csv_oracle(eigs: EigenTable) -> str:
    """The `eigs` CSV by definition: a header, then one line per character in site-index order.

    Each line holds the character's coordinates and its eigenvalue in 17
    significant digits, read from the full table expanded from the block.
    """
    dims = eigs.dims
    values = expand_block(dims, eigs.block).ravel()
    lines = [",".join([f"j{i + 1}" for i in range(dims.ndim)] + ["lambda"])]
    for chi, value in zip(enumerate_sites(dims), values.tolist(), strict=True):
        lines.append(",".join(map(str, chi)) + "," + format(value, ".17g"))
    return "\n".join(lines) + "\n"


def search_text_oracle(hits, fmt: str, header: dict) -> str:
    """The `search` text of a hit list by definition, written hit by hit.

    Each hit's sites come from `Configuration.sites()` and its value from
    `format(value, ".17g")`.  json is the header's fields, then one result
    per hit; csv is a header line, then one line per hit whose sites field,
    "c1,c2;...", is quoted when it holds a comma; ascii-grid is one block per
    hit, a rank line over one line of 0s and 1s per grid row, the blocks
    separated by a blank line.
    """
    if fmt == "json":
        results = [
            {"rank": rank, "value": hit.value, "orbit_size": hit.orbit_size,
             "sites": [list(site) for site in hit.config.sites()]}
            for rank, hit in enumerate(hits, start=1)
        ]
        return json.dumps({**header, "results": results}, indent=2) + "\n"
    lines = ["rank,value,orbit_size,sites"] if fmt == "csv" else []
    for rank, hit in enumerate(hits, start=1):
        value = format(hit.value, ".17g")
        sites = hit.config.sites()
        if fmt == "csv":
            text = ";".join(",".join(str(c) for c in site) for site in sites)
            field = f'"{text}"' if "," in text else text
            lines.append(f"{rank},{value},{hit.orbit_size},{field}")
        else:
            if rank > 1:
                lines.append("")
            lines.append(f"rank={rank} value={value} orbit_size={hit.orbit_size}")
            cells = "".join("1" if site in sites else "0" for site in enumerate_sites(hit.config.dims))
            width = hit.config.dims.sizes[-1]
            lines += [cells[start:start + width] for start in range(0, len(cells), width)]
    return "\n".join(lines) + "\n"


def eigs_summary_oracle(eigs: EigenTable, metric: str, f: str) -> dict:
    """The `eigs` JSON summary at the default tie tolerance, from a scan of the full table."""
    values = expand_block(eigs.dims, eigs.block).ravel()
    lam_min = float(values[1:].min())
    tie_tol = default_tie_tol(lam_min)
    _, argmin = full_scan_argmin(eigs, tie_tol)
    return {
        "dims": list(eigs.dims.sizes),
        "metric": metric,
        "f": f,
        "lambda_trivial": float(values[0]),
        "lambda_min": lam_min,
        "argmin": [list(c) for c in argmin],
        "tie_tol": tie_tol,
    }


def certify_doc_oracle(cert, metric: str, f: str) -> dict:
    """The `certify` JSON document of a certificate, key by key in the order it is written."""
    return {
        "dims": list(cert.dims.sizes),
        "metric": metric,
        "f": f,
        "p": cert.p,
        "certified": cert.certified,
        "lambda_trivial": cert.lambda_trivial,
        "lambda_min": cert.lambda_min,
        "argmin": [list(c) for c in cert.argmin_characters],
        "offenders": [list(c) for c in cert.offenders],
        "gap_to_minus_one": cert.gap_to_minus_one,
        "multiplicity": cert.multiplicity,
        "optimal_value": cert.optimal_value,
        "checkerboard_e_tot": cert.checkerboard_e_tot,
        "checkerboard_e_max": cert.checkerboard_e_max,
        "tie_tol": cert.tie_tol,
        "conclusion": cert.conclusion,
    }


def energy_doc_oracle(config, report, metric: str, f: str) -> dict:
    """The `energy` JSON document of a configuration's energy report, key by key in the order it is written."""
    return {
        "dims": list(config.dims.sizes),
        "metric": metric,
        "f": f,
        "p": config.p,
        "per_site": [{"site": list(site), "energy": value} for site, value in report.per_site.items()],
        "e_max": report.e_max,
        "e_tot": report.e_tot,
        "is_equienergetic": report.is_equienergetic,
        "is_empty": report.is_empty,
    }


def factor_curve_summary_oracle(curve) -> dict:
    """The `factor-curve` JSON summary of a curve, key by key in the order it is written."""
    return {
        "n": curve.n,
        "a": curve.a,
        "power": curve.distance_power,
        "argmin": list(curve.argmin),
        "min_value": curve.min_value,
    }


def factor_curve_oracle(n: int, a: float, powers=(1, 2)) -> dict[int, np.ndarray]:
    """Factor-curve values by one extended-precision cosine sum per index k.

    Each k reads the cosines of its angles 2 pi ((k g) mod n) / n from one
    table of the n angles 2 pi m / n; one cosine row serves every requested
    distance power.
    """
    g = np.arange(n)
    wraps = np.minimum(g, n - g)
    terms = {q: np.longdouble(a) ** -((wraps**q).astype(np.longdouble)) for q in powers}
    pi_l = np.arccos(np.longdouble(-1.0))
    table = np.cos((2.0 * pi_l) * g.astype(np.longdouble) / np.longdouble(n))
    out = {q: np.empty(n, dtype=np.float64) for q in powers}
    for k in range(n):
        cosines = table[(k * g) % n]
        for q in powers:
            out[q][k] = float((terms[q] * cosines).sum())
    return out


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


def descent_oracle(K: np.ndarray, members, objective: str):
    """One restart's best-improvement single-swap descent; returns members, e_max, e_tot.

    The definition the stacked descent in `configs.local_search` must match
    bit for bit: per-site energies kept incrementally, every swap scored on
    its own (for the max objective on the full p x (|G| - p) x p tensor of
    member energies after the swap), the least key (e_tot, or (e_max, e_tot))
    picked by a lexicographic sort, first in (member, non-member) order on
    ties, and a swap taken only when its key is strictly lower.
    """
    order = K.shape[0]
    members = np.sort(np.asarray(members, dtype=np.int64))
    in_set = np.zeros(order, dtype=bool)
    in_set[members] = True
    non = np.flatnonzero(~in_set)
    cur_e = K[:, members].sum(axis=1) if len(members) else np.zeros(order)
    for _ in range(10_000):
        if len(members) == 0 or len(non) == 0:
            break
        e_tot = float(cur_e[members].sum())
        e_max = float(cur_e[members].max())
        K_mn = K[np.ix_(members, non)]
        # candidate totals for every (out, in) pair
        new_tot = e_tot + 2.0 * (cur_e[non][None, :] - cur_e[members][:, None] - K_mn)
        if objective == "total":
            flat = int(new_tot.argmin())
            o_i, i_i = divmod(flat, len(non))
            if not float(new_tot[o_i, i_i]) < e_tot:
                break
        else:
            # mem_e[o, i, a]: member a's energy after swapping out member o for site i
            mem_e = (
                cur_e[members][None, None, :]
                - K[np.ix_(members, members)].T[:, None, :]
                + K_mn.T[None, :, :]
            )
            ar = np.arange(len(members))
            mem_e[ar, :, ar] = -np.inf
            # the incoming site's energy; K[i, i] is zero
            in_e = cur_e[non][None, :] - K_mn
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


def local_search_oracle(K: np.ndarray, p: int, objective: str, restarts: int, rng_seed: int):
    """Members of the first restart of least key, one descent_oracle call per restart.

    Starts are drawn as `local_search` draws them: one rng.choice per
    restart, in order, from a generator seeded with rng_seed.
    """
    rng = np.random.default_rng(rng_seed)
    best_key, best_members = None, None
    for _ in range(restarts):
        start = rng.choice(K.shape[0], size=p, replace=False)
        members, e_max, e_tot = descent_oracle(K, start, objective)
        key = (e_tot,) if objective == "total" else (e_max, e_tot)
        if best_key is None or key < best_key:
            best_key, best_members = key, members
    return best_members


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
