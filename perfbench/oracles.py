"""Independent checks of every benchmark response, in a process of their own.

    python3 perfbench/oracles.py --seed 1

The worker starts this process and, after each request, writes the pickled
(Request, Response) to its stdin; it answers with the pickled list of
failure messages.  The oracles' arrays and caches thus stay out of the
worker, whose peak RSS is a metric.

Each oracle recomputes its answer from the definitions (distances from
wrapped coordinate differences, eigenvalues as cosine sums over the grid,
energies as pairwise sums, rankings by enumerating every subset) without
calling the library.  Expected values are cached per instance, so the
costly ones are computed once per run, outside the timed region.  A check
returns a list of failure messages; an empty list means the response is
correct.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import pickle
import random
import sys
from pathlib import Path

import numpy as np

# Eigenvalues and certificate quantities agree with the cosine sums to this
# share of 1 + sum |u|; it is 100x the rounding error of a length-|G| sum.
EIG_RTOL = 1e-12
# Energies of a given configuration: pairwise sums in another order.
ENERGY_RTOL = 1e-12
# Search values come from incrementally updated per-site sums (one kernel
# column added and removed per enumeration step), so they drift further.
SEARCH_RTOL = 1e-9
# Factor-curve values, relative to the sum of |terms| of the curve.
CURVE_RTOL = 1e-12
# Grids up to this many sites get the full O(|G|^2) cosine-sum table.
DIRECT_TABLE_MAX = 4096
# Random characters spot-checked per large instance.
SPOT_CHARACTERS = 8
_CHUNK = 256


def parse_profile(text: str):
    """Vectorised profile f(x) from a CLI energy spec (inverse-power:A | exp:A[:sq])."""
    head, _, rest = text.partition(":")
    if head == "inverse-power":
        alpha = float(rest)
        return lambda x: np.power(x, -alpha)
    if head == "exp":
        base, _, flag = rest.partition(":")
        a = float(base)
        if flag == "sq":
            return lambda x: np.power(a, -(x * x))
        return lambda x: np.power(a, -x)
    raise ValueError(f"benchmark oracle has no profile {text!r}")


def metric_distance(metric: str, wraps: list[np.ndarray]) -> np.ndarray:
    """Distance from per-axis wrapped offsets (arrays that broadcast together)."""
    if metric == "lee":
        return sum(wraps).astype(np.float64)
    if metric == "euclid-sq":
        return sum(w * w for w in wraps).astype(np.float64)
    if metric == "euclid":
        return np.sqrt(sum(w * w for w in wraps).astype(np.float64))
    if metric == "chebyshev":
        return np.maximum.reduce(np.broadcast_arrays(*wraps)).astype(np.float64)
    raise ValueError(f"benchmark oracle has no metric {metric!r}")


def wrapped(diff: np.ndarray, n: int) -> np.ndarray:
    r = np.mod(diff, n)
    return np.minimum(r, n - r)


def parse_dims(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace("x", ",").split(",") if x.strip())


def flat_index(sizes: tuple[int, ...], site) -> int:
    idx = 0
    for c, n in zip(site, sizes):
        idx = idx * n + int(c) % n
    return idx


def site_of(sizes: tuple[int, ...], index: int) -> tuple[int, ...]:
    return tuple(int(c) for c in np.unravel_index(index, sizes))


def close(a: float, b: float, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


class Instance:
    """One (grid, metric, profile): the kernel table and its character sums."""

    def __init__(self, sizes: tuple[int, ...], metric: str, f: str) -> None:
        self.sizes = sizes
        self.order = math.prod(sizes)
        axes = [np.arange(n) for n in sizes]
        grids = np.ix_(*axes)
        dist = np.broadcast_to(
            metric_distance(metric, [wrapped(g, n) for g, n in zip(grids, sizes)]), sizes
        ).ravel()
        safe = dist.copy()
        safe[0] = 1.0
        u = parse_profile(f)(safe)
        u[0] = 0.0
        self.u = u
        self.sum_u = float(np.sum(u))
        self.band = EIG_RTOL * (1.0 + float(np.sum(np.abs(u))))
        self._spot: dict[int, float] = {}
        self._table: np.ndarray | None = None

    def eigenvalue(self, index: int) -> float:
        """lambda(chi) = sum_g u(g) cos(2 pi <chi, g>), phases from exact integer products."""
        if index not in self._spot:
            chi = site_of(self.sizes, index)
            phase = 0.0
            for axis, (c, n) in enumerate(zip(chi, self.sizes)):
                shape = [1] * len(self.sizes)
                shape[axis] = n
                phase = phase + ((c * np.arange(n)) % n).reshape(shape) / n
            cos = np.broadcast_to(np.cos(2.0 * np.pi * phase), self.sizes).ravel()
            self._spot[index] = float(np.sum(self.u * cos))
        return self._spot[index]

    def table(self) -> np.ndarray:
        """Every eigenvalue by the O(|G|^2) cosine sum; small grids only."""
        if self.order > DIRECT_TABLE_MAX:
            raise ValueError(f"direct table refused for {self.order} sites")
        if self._table is None:
            # <chi, g> in units of 1/L for L = lcm(sizes), exact in integers
            period = math.lcm(*self.sizes)
            cosines = np.cos(2.0 * np.pi * np.arange(period) / period)
            coords = np.stack(np.unravel_index(np.arange(self.order), self.sizes), axis=1).astype(np.int32)
            # u is even, so lambda(chi) = lambda(-chi): sum once per conjugate pair
            conj = np.ravel_multi_index(tuple((-coords % self.sizes).T), self.sizes)
            rows = np.flatnonzero(conj >= np.arange(self.order))
            out = np.empty(self.order)
            for start in range(0, len(rows), _CHUNK):
                chi = coords[rows[start:start + _CHUNK]]
                phase = np.zeros((len(chi), self.order), dtype=np.int32)
                for axis, n in enumerate(self.sizes):
                    phase += np.mod(np.multiply.outer(chi[:, axis], coords[:, axis]), n) * (period // n)
                out[rows[start:start + _CHUNK]] = (cosines[phase % period] * self.u).sum(axis=1)
            out[conj[rows]] = out[rows]
            self._table = out
        return self._table

    def minus_one(self) -> int:
        return flat_index(self.sizes, [n // 2 for n in self.sizes])


def argmin_errors(values: np.ndarray, reported: set[int], threshold: float, band: float,
                  what: str) -> list[str]:
    """Reported tie set against oracle values, allowing only the rounding band at the threshold.

    Index 0 (the trivial character) is never a candidate.
    """
    idx = np.arange(1, len(values))
    v = values[1:]
    sure = set(idx[v <= threshold - band].tolist())
    possible = set(idx[v <= threshold + band].tolist())
    errors = []
    if not reported:
        errors.append(f"{what}: empty argmin")
    if sure - reported:
        errors.append(f"{what}: argmin misses {sorted(sure - reported)[:5]}")
    if reported - possible:
        errors.append(f"{what}: argmin has non-minimal {sorted(reported - possible)[:5]}")
    return errors


def real_multiplicity(sizes: tuple[int, ...], chars: list[tuple[int, ...]]) -> int:
    seen: set[tuple[int, ...]] = set()
    mult = 0
    for chi in chars:
        if chi in seen:
            continue
        conj = tuple((-c) % n for c, n in zip(chi, sizes))
        mult += 1 if conj == chi else 2
        seen.update((chi, conj))
    return mult


class Checker:
    """Validates responses against the shipped JSON schemas and the oracles above."""

    def __init__(self, schema_dir: Path, seed: int) -> None:
        import jsonschema  # test dependency of the package; the checks need it

        self._validators = {
            path.name.split(".")[0]: jsonschema.Draft7Validator(json.loads(path.read_text(encoding="utf-8")))
            for path in schema_dir.glob("*.schema.json")
        }
        if not {"certificate", "eigs-summary", "energy-report", "search-result"} <= set(self._validators):
            raise FileNotFoundError(f"JSON schemas missing under {schema_dir}")
        self._seed = seed
        self._instances: dict[tuple, Instance] = {}
        self._rankings: dict[tuple, np.ndarray] = {}
        self._curves: dict[tuple, tuple[np.ndarray, float]] = {}
        self._verified: set[tuple] = set()

    # -- shared pieces ---------------------------------------------------

    def instance(self, sizes: tuple[int, ...], metric: str, f: str) -> Instance:
        key = (sizes, metric, f)
        if key not in self._instances:
            self._instances[key] = Instance(sizes, metric, f)
        return self._instances[key]

    def spot_characters(self, inst: Instance) -> list[int]:
        rng = random.Random(f"{self._seed}:{inst.sizes}")
        return [rng.randrange(1, inst.order) for _ in range(SPOT_CHARACTERS)]

    def _schema(self, name: str, doc: dict) -> list[str]:
        return [f"schema {name}: {e.message}" for e in self._validators[name].iter_errors(doc)][:3]

    def check(self, req, resp) -> list[str]:
        """All failure messages for one response (empty when correct)."""
        if resp.error is not None:
            return [f"raised {resp.error}"]
        if req.argv is None:
            return self._relax(req, resp.result)
        digest = None
        if req.out is not None:
            try:
                digest = hashlib.sha256(req.out.read_bytes()).hexdigest()
            except OSError as exc:
                return [f"output file unreadable: {exc}"]
        key = (req.argv, resp.rc, resp.stdout, resp.stderr, digest)
        if key in self._verified:
            return []
        opts = _options(req.argv)
        command = req.argv[0]
        try:
            errors = _COMMANDS[command](self, opts, resp, req)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            errors = [f"unparseable response: {exc!r}"]
        if not errors:
            self._verified.add(key)
        return errors

    # -- spectral requests -------------------------------------------------

    def _certificate_values(self, inst: Instance, p: int, vals: dict, label: str) -> tuple[list[str], bool | None]:
        """Checks shared by certify and sweep; returns errors and the forced verdict (None if ambiguous)."""
        lam = inst.table()
        band = inst.band
        n = inst.order
        lam1, lam_neg = float(lam[0]), float(lam[inst.minus_one()])
        lam_min = float(lam[1:].min())
        errors = []
        if p != n // 2:
            errors.append(f"{label}: p {p} != |G|/2")
        expect = {
            "lambda_min": (lam_min, band),
            "gap_to_minus_one": (lam_neg - lam_min, 2 * band),
            "optimal_value": (lam1 * p * p / n + lam_min * (p - p * p / n), band * (1 + p)),
            "checkerboard_e_tot": (n / 2 * (lam1 + lam_neg) / 2, band * n),
            "checkerboard_e_max": ((lam1 + lam_neg) / 2, band),
            "tie_tol": (1e-9 * (1.0 + abs(lam_min)), 1e-9 * band),
        }
        if "lambda_trivial" in vals:
            expect["lambda_trivial"] = (inst.sum_u, band)
        for name, (want, tol) in expect.items():
            if not close(vals[name], want, tol):
                errors.append(f"{label}: {name} {vals[name]!r} != oracle {want!r}")
        threshold = lam_min + float(vals["tie_tol"])
        idx = np.arange(1, n)
        sure = set(idx[lam[1:] <= threshold - band].tolist())
        possible = set(idx[lam[1:] <= threshold + band].tolist())
        m1 = inst.minus_one()
        if sure == {m1} and possible == {m1}:
            verdict = True
        elif sure - {m1} or m1 not in possible:
            verdict = False
        else:
            verdict = None
        return errors, verdict

    def _certify(self, opts: dict, resp, req) -> list[str]:
        doc = json.loads(resp.stdout)
        errors = self._schema("certificate", doc)
        sizes = parse_dims(opts["dims"])
        metric, f = opts.get("metric", "lee"), opts.get("f", "inverse-power:1")
        if (tuple(doc["dims"]), doc["metric"], doc["f"]) != (sizes, metric, f):
            errors.append("certify: instance not echoed")
        inst = self.instance(sizes, metric, f)
        more, verdict = self._certificate_values(inst, doc["p"], doc, "certify")
        errors += more
        argmin = [tuple(c) for c in doc["argmin"]]
        reported = {flat_index(sizes, c) for c in argmin}
        threshold = float(inst.table()[1:].min()) + float(doc["tie_tol"])
        errors += argmin_errors(inst.table(), reported, threshold, inst.band, "certify")
        m1 = site_of(sizes, inst.minus_one())
        if [tuple(c) for c in doc["offenders"]] != [c for c in argmin if c != m1]:
            errors.append("certify: offenders are not argmin minus (-1,...,-1)")
        if doc["multiplicity"] != real_multiplicity(sizes, argmin):
            errors.append("certify: multiplicity does not count the argmin")
        certified = argmin == [m1]
        if doc["certified"] != certified or (verdict is not None and certified != verdict):
            errors.append(f"certify: certified={doc['certified']}, oracle expects {verdict}")
        if resp.rc != (0 if doc["certified"] else 1):
            errors.append(f"certify: exit code {resp.rc} for certified={doc['certified']}")
        return errors

    def _sweep(self, opts: dict, resp, req) -> list[str]:
        rows = list(csv.reader(io.StringIO(resp.stdout)))
        header = ["dims", "certified", "lambda_min", "gap_to_minus_one", "optimal_value",
                  "checkerboard_e_tot", "checkerboard_e_max", "tie_tol"]
        errors = [] if rows and rows[0] == header else ["sweep: bad header"]
        dims_list = [parse_dims(part) for part in opts["dims-list"].split(";") if part.strip()]
        if len(rows) - 1 != len(dims_list):
            return errors + [f"sweep: {len(rows) - 1} rows for {len(dims_list)} grids"]
        metric, f = opts.get("metric", "lee"), opts.get("f", "inverse-power:1")
        all_certified = True
        for sizes, row in zip(dims_list, rows[1:]):
            vals = dict(zip(header, row))
            if parse_dims(vals["dims"]) != sizes:
                errors.append(f"sweep: row {vals['dims']} out of order")
                continue
            inst = self.instance(sizes, metric, f)
            nums = {k: float(v) for k, v in vals.items() if k not in ("dims", "certified")}
            more, verdict = self._certificate_values(inst, inst.order // 2, nums, f"sweep {vals['dims']}")
            errors += more
            certified = vals["certified"] == "true"
            if vals["certified"] not in ("true", "false") or (verdict is not None and certified != verdict):
                errors.append(f"sweep {vals['dims']}: certified={vals['certified']}, oracle expects {verdict}")
            all_certified = all_certified and certified
        if resp.rc != (0 if all_certified else 1):
            errors.append(f"sweep: exit code {resp.rc}")
        return errors

    def _relax(self, req, result) -> list[str]:
        sol, vals = result
        sizes = req.dims
        inst = self.instance(sizes, req.metric, req.f)
        band = inst.band
        n = inst.order
        p = n // 4
        errors = []
        if sol.p != p or vals.shape != (n,):
            errors.append("relax: wrong p or table shape")
            return errors
        lam_min = float(sol.lambda_min)
        if lam_min != float(vals[1:].min()):
            errors.append("relax: lambda_min is not the table minimum")
        for name, got in (("table[0]", vals[0]), ("lambda_trivial", sol.lambda_trivial)):
            if not close(got, inst.sum_u, band):
                errors.append(f"relax: {name} {got!r} != sum u {inst.sum_u!r}")
        if not close(sol.tie_tol, 1e-9 * (1.0 + abs(lam_min)), 1e-9 * band):
            errors.append("relax: tie_tol off the default")
        argmin = [tuple(c) for c in sol.argmin_characters]
        reported = {flat_index(sizes, c) for c in argmin}
        ties = set((np.flatnonzero(vals[1:] <= lam_min + sol.tie_tol) + 1).tolist())
        if reported != ties:
            errors.append("relax: argmin is not the table's tie set")
        for i in sorted(reported)[:8]:
            if not close(inst.eigenvalue(i), lam_min, band):
                errors.append(f"relax: direct lambda at argmin {site_of(sizes, i)} != lambda_min")
        for i in self.spot_characters(inst):
            direct = inst.eigenvalue(i)
            if not close(vals[i], direct, band) or direct < lam_min - band:
                errors.append(f"relax: table at {site_of(sizes, i)} {vals[i]!r} != direct {direct!r}")
        mult = real_multiplicity(sizes, argmin)
        want = inst.sum_u * p * p / n + lam_min * (p - p * p / n)
        if sol.multiplicity != mult or sol.sphere_dimension != mult - 1:
            errors.append("relax: multiplicity does not count the argmin")
        if not close(sol.optimal_value, want, band * (1 + p)):
            errors.append(f"relax: optimal_value {sol.optimal_value!r} != {want!r}")
        if sol.is_checkerboard_certified:
            errors.append("relax: certified away from half filling")
        return errors

    def _eigs(self, opts: dict, resp, req) -> list[str]:
        doc = json.loads(resp.stdout)
        errors = self._schema("eigs-summary", doc)
        sizes = parse_dims(opts["dims"])
        inst = self.instance(sizes, opts.get("metric", "lee"), opts.get("f", "inverse-power:1"))
        if resp.rc != 0:
            errors.append(f"eigs: exit code {resp.rc}")
        text = req.out.read_text(encoding="utf-8")
        head, _, body = text.partition("\n")
        if head != ",".join([f"j{i + 1}" for i in range(len(sizes))] + ["lambda"]):
            errors.append("eigs: bad CSV header")
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        n = inst.order
        if data.shape != (n, len(sizes) + 1):
            return errors + [f"eigs: CSV shape {data.shape}"]
        coords = np.stack(np.unravel_index(np.arange(n), sizes), axis=1)
        if not np.array_equal(data[:, :-1], coords):
            errors.append("eigs: characters not in row-major order")
        vals = data[:, -1]
        lam_min = float(doc["lambda_min"])
        if lam_min != float(vals[1:].min()) or float(doc["lambda_trivial"]) != float(vals[0]):
            errors.append("eigs: summary disagrees with the CSV")
        if not close(vals[0], inst.sum_u, inst.band):
            errors.append(f"eigs: lambda(1) {vals[0]!r} != sum u {inst.sum_u!r}")
        if not close(doc["tie_tol"], 1e-9 * (1.0 + abs(lam_min)), 1e-9 * inst.band):
            errors.append("eigs: tie_tol off the default")
        reported = {flat_index(sizes, c) for c in doc["argmin"]}
        if reported != set((np.flatnonzero(vals[1:] <= lam_min + doc["tie_tol"]) + 1).tolist()):
            errors.append("eigs: argmin is not the CSV's tie set")
        for i in sorted(reported)[:8] + self.spot_characters(inst):
            if not close(vals[i], inst.eigenvalue(i), inst.band):
                errors.append(f"eigs: CSV at {site_of(sizes, i)} {vals[i]!r} != direct {inst.eigenvalue(i)!r}")
        return errors

    # -- configuration requests ----------------------------------------------

    def _energy(self, opts: dict, resp, req) -> list[str]:
        doc = json.loads(resp.stdout)
        errors = self._schema("energy-report", doc)
        sizes = parse_dims(opts["dims"])
        metric, f = opts.get("metric", "lee"), opts.get("f", "inverse-power:1")
        sites = sorted(
            tuple(int(c) for c in line.split(","))
            for line in Path(opts["config"]).read_text(encoding="utf-8").split()
        )
        per = pairwise_energies(sizes, metric, f, sites)
        tol = ENERGY_RTOL * (1.0 + float(per.sum()))
        got_sites = [tuple(e["site"]) for e in doc["per_site"]]
        if resp.rc != 0 or got_sites != sites or doc["p"] != len(sites) or doc["is_empty"]:
            return errors + ["energy: wrong sites, p, exit code or is_empty"]
        for e, want in zip(doc["per_site"], per):
            if not close(e["energy"], want, tol):
                errors.append(f"energy: site {e['site']} {e['energy']!r} != pairwise {want!r}")
        if not close(doc["e_tot"], per.sum(), tol) or not close(doc["e_max"], per.max(), tol):
            errors.append("energy: e_tot or e_max off the pairwise sums")
        spread = float(per.max() - per.min())
        if doc["is_equienergetic"] != (spread <= 1e-9 * (1.0 + abs(float(per.max())))):
            errors.append("energy: is_equienergetic wrong")
        return errors

    def _search(self, opts: dict, resp, req) -> list[str]:
        doc = json.loads(resp.stdout)
        errors = self._schema("search-result", doc)
        sizes = parse_dims(opts["dims"])
        metric, f = opts.get("metric", "lee"), opts.get("f", "inverse-power:1")
        p, objective = int(opts["p"]), opts.get("objective", "total")
        reduce, top_k = opts.get("reduce", "none"), int(opts.get("top-k", "1"))
        local = opts.get("method") == "local"
        if resp.rc != 0 or (doc["p"], doc["objective"], doc["reduce"], doc["top_k"]) != (p, objective, reduce, top_k):
            return errors + [f"search: exit code {resp.rc} or request not echoed"]
        order = math.prod(sizes)
        results = doc["results"]
        seen = set()
        for r in results:
            sites = [tuple(s) for s in r["sites"]]
            idx = sorted(flat_index(sizes, s) for s in sites)
            if len(set(idx)) != p or any(not 0 <= s[a] < sizes[a] for s in sites for a in range(len(sizes))):
                errors.append(f"search: result {r['rank']} is not {p} distinct sites")
                continue
            seen.add(tuple(idx))
            per = pairwise_energies(sizes, metric, f, sites)
            value = float(per.sum() if objective == "total" else per.max())
            if not close(r["value"], value, SEARCH_RTOL * (1.0 + float(per.sum()))):
                errors.append(f"search: result {r['rank']} value {r['value']!r} != recomputed {value!r}")
            if reduce == "translations":
                shifted = translates(sizes, idx)
                if min(shifted) != tuple(idx) or r["orbit_size"] != len(set(shifted)):
                    errors.append(f"search: result {r['rank']} not a canonical orbit representative")
            elif r["orbit_size"] != 1:
                errors.append("search: orbit_size should be 1")
        if len(seen) != len(results):
            errors.append("search: repeated configurations")
        if local:
            if len(results) != 1:
                errors.append("search: local search must return one result")
            return errors
        best = self.ranking(sizes, metric, f, p, objective, reduce)
        if len(results) != min(top_k, len(best)):
            errors.append(f"search: {len(results)} results, expected {min(top_k, len(best))}")
        for r, want in zip(results, best):
            if not close(r["value"], want, SEARCH_RTOL * (1.0 + abs(want))):
                errors.append(f"search: rank {r['rank']} value {r['value']!r} != brute minimum {want!r}")
        return errors

    def ranking(self, sizes, metric, f, p, objective, reduce) -> np.ndarray:
        """Sorted objective values of every p-subset (every orbit, if reduced), by enumeration."""
        key = (sizes, metric, f, p, objective, reduce)
        if key not in self._rankings:
            self._rankings[key] = brute_values(sizes, metric, f, p, objective, reduce)
        return self._rankings[key]

    # -- closed-form requests ------------------------------------------------

    def curve(self, n: int, a: float, power: int) -> tuple[np.ndarray, float]:
        key = (n, a, power)
        if key not in self._curves:
            g = np.arange(n)
            terms = np.power(a, -(np.minimum(g, n - g).astype(np.float64) ** power))
            values = np.array([
                math.fsum(terms * np.cos(2.0 * np.pi * ((k * g) % n) / n)) for k in range(n)
            ])
            self._curves[key] = (values, CURVE_RTOL * float(terms.sum()))
        return self._curves[key]

    def _curve_argmin(self, values: np.ndarray, band: float, reported: set[int], label: str) -> list[str]:
        lo = float(values[1:].min())
        return argmin_errors(values, reported, lo + 1e-12 * (1.0 + abs(lo)), band, label)

    def _factor_curve(self, opts: dict, resp, req) -> list[str]:
        n, a, power = int(opts["n"]), float(opts["a"]), int(opts.get("power", "1"))
        values, band = self.curve(n, a, power)
        rows = list(csv.reader(io.StringIO(resp.stdout)))
        summary = json.loads(resp.stderr)
        errors = [] if resp.rc == 0 and rows[0] == ["k", "value"] else ["factor-curve: exit code or header"]
        got = np.array([float(v) for _, v in rows[1:]])
        if [int(k) for k, _ in rows[1:]] != list(range(n)) or len(got) != n:
            return errors + ["factor-curve: rows are not k = 0..n-1"]
        if not np.all(np.abs(got - values) <= band):
            errors.append(f"factor-curve: values off the cosine sums by {np.abs(got - values).max():.3g}")
        if (summary["n"], summary["a"], summary["power"]) != (n, a, power):
            errors.append("factor-curve: summary does not echo the request")
        if summary["min_value"] != float(got[1:].min()):
            errors.append("factor-curve: min_value is not the CSV minimum")
        return errors + self._curve_argmin(values, band, set(summary["argmin"]), "factor-curve")

    def _bernstein(self, opts: dict, resp, req) -> list[str]:
        n, power = int(opts["n"]), int(opts.get("power", "1"))
        grid = [float(x) for x in opts["a-grid"].split(",") if x.strip()]
        rows = list(csv.reader(io.StringIO(resp.stdout)))
        errors = [] if resp.rc == 0 and rows[0] == ["a", "argmin", "is_minus_one_strict_min", "min_value"] else [
            "bernstein: exit code or header"]
        if len(rows) - 1 != len(grid):
            return errors + ["bernstein: one row per base expected"]
        for a, row in zip(grid, rows[1:]):
            values, band = self.curve(n, a, power)
            argmin = tuple(int(k) for k in row[1].split(";"))
            if float(row[0]) != a or not close(float(row[3]), values[1:].min(), band):
                errors.append(f"bernstein a={a}: base or min_value wrong")
            if (row[2] == "true") != (argmin == (n // 2,)):
                errors.append(f"bernstein a={a}: strict-min flag disagrees with the argmin")
            errors += self._curve_argmin(values, band, set(argmin), f"bernstein a={a}")
        return errors


_COMMANDS = {
    "certify": Checker._certify,
    "sweep": Checker._sweep,
    "eigs": Checker._eigs,
    "energy": Checker._energy,
    "search": Checker._search,
    "factor-curve": Checker._factor_curve,
    "bernstein": Checker._bernstein,
}


def _options(argv: tuple[str, ...]) -> dict[str, str]:
    """--flag value pairs of a CLI request."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def pairwise_energies(sizes, metric: str, f: str, sites) -> np.ndarray:
    """Energy of each listed site against the others, by the pairwise definition."""
    pts = np.array(sites, dtype=np.int64).reshape(len(sites), len(sizes))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = metric_distance(metric, [wrapped(diff[..., a], n) for a, n in enumerate(sizes)])
    off = ~np.eye(len(sites), dtype=bool)
    terms = np.zeros_like(dist)
    terms[off] = parse_profile(f)(dist[off])
    return terms.sum(axis=1)


def translates(sizes, idx: list[int]) -> list[tuple[int, ...]]:
    """Sorted member tuples of every translate of a configuration."""
    coords = np.stack(np.unravel_index(np.array(idx), sizes), axis=1)
    out = []
    for shift in itertools.product(*(range(n) for n in sizes)):
        moved = (coords + np.array(shift)) % np.array(sizes)
        out.append(tuple(sorted(np.ravel_multi_index(tuple(moved.T), sizes).tolist())))
    return out


def brute_values(sizes, metric: str, f: str, p: int, objective: str, reduce: str) -> np.ndarray:
    """Objective of every p-subset (or of each translation orbit), sorted ascending."""
    order = math.prod(sizes)
    coords = np.stack(np.unravel_index(np.arange(order), sizes), axis=1)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = metric_distance(metric, [wrapped(diff[..., a], n) for a, n in enumerate(sizes)])
    np.fill_diagonal(dist, 1.0)
    k = parse_profile(f)(dist)
    np.fill_diagonal(k, 0.0)
    count = math.comb(order, p)
    combos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(order), p)),
                         dtype=np.int64, count=count * p).reshape(count, p)
    values = np.empty(len(combos))
    for start in range(0, len(combos), 20000):
        c = combos[start:start + 20000]
        per = k[c[:, :, None], c[:, None, :]].sum(axis=2)
        values[start:start + 20000] = per.sum(axis=1) if objective == "total" else per.max(axis=1)
    if reduce == "translations":
        weights = order ** np.arange(p - 1, -1, -1, dtype=np.int64)
        own = combos @ weights
        least = own.copy()
        for shift in coords:
            moved = np.ravel_multi_index(tuple(np.moveaxis((coords[combos] + shift) % sizes, 2, 0)), sizes)
            least = np.minimum(least, np.sort(moved, axis=1) @ weights)
        values = values[least == own]
    return np.sort(values)


def serve(argv: list[str] | None = None) -> int:
    """Answer check requests from stdin until it closes."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    checker = Checker(Path(__file__).resolve().parent.parent / "src" / "toric_lab" / "schemas", args.seed)
    while True:
        try:
            req, resp = pickle.load(sys.stdin.buffer)
        except EOFError:
            return 0
        pickle.dump(checker.check(req, resp), sys.stdout.buffer)
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    sys.exit(serve())
