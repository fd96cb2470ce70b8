"""Repelling-force profiles and the energy kernel table u(g, 0) = f(distance(g, 0)).

The kernel is stored on its fundamental block, the per-axis wraps
0..n_i // 2, with the origin entry forced to zero: every metric depends on a
site only through those wraps, so the block fixes the kernel.  The spectrum
and the kernel matrix, the one table the exhaustive leaves read, read it;
configuration energies do not, since they need f only at the member pairs'
distance keys.  Both take f through `_tabulate`, one evaluation per
distinct integer key, so a block entry and a pair energy at the same key
are the same float.  The built-in profiles evaluate a whole array of
distances by libm `pow`, mapped from C over a list of floats; any other
callable f is called once per distance.  The discrete Fourier transform of
the kernel over all sites is exactly the eigenvalue table of the
convolution operator it defines.

Two diagnostic checks live here as well: the alternating sign of integer
forward differences, and a finite-difference proxy for alternating
derivative signs of the smooth profiles.
"""

from __future__ import annotations

import bisect
import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .grid import GridDims, Metric, _check_block, _finite, _fsum, _integer, _integers, _real, distance_table

__all__ = [
    "EnergyFunction",
    "InversePower",
    "ExponentialAtom",
    "Tabulated",
    "KernelTable",
    "build_kernel",
    "forward_difference",
    "check_alternating_differences",
    "check_complete_monotonicity_proxy",
    "SignViolation",
    "SignReport",
]

# Strictness tolerance for "positive" in the sign checks: values inside the
# band are reported as inconclusive rather than as violations.
STRICTNESS_RTOL = 1e-12

# Relative tolerance within which a distance matches a tabulated key, so that
# tables written with fewer than 17 digits (1.4142135623731 for sqrt 2) work.
# Distinct attainable distances differ far more: sqrt(a + 1) - sqrt(a) is
# above 1e-6 relative for every a below 5e5.
TABLE_KEY_RTOL = 1e-9

# _tabulate marks the distance keys present in a table indexed by the key
# when the largest key is below this many times the number of keys given;
# sparser keys (squared distances on one axis or on skewed grids, or a few
# member pairs on a large grid) are sorted.
KEY_TABLE_FACTOR = 2


class EnergyFunction(ABC):
    """A repelling profile f; positive and finite wherever it is defined."""

    @abstractmethod
    def __call__(self, x: float) -> float:
        """Evaluate f at a distance value."""

    def over(self, x: np.ndarray) -> Iterator[float]:
        """f(x_i) for each distance x_i of a 1-D array, in order, bit for bit as f(x_i) gives it."""
        return map(self, x.tolist())


@dataclass(frozen=True)
class InversePower(EnergyFunction):
    """f(x) = x ** -alpha with alpha > 0; defined for x > 0."""

    alpha: float

    def __post_init__(self) -> None:
        _real(self.alpha, "inverse-power exponent", 0)

    def __call__(self, x: float) -> float:
        if x <= 0:
            raise ValueError(f"inverse power undefined at x = {x}")
        return math.pow(x, -self.alpha)

    def over(self, x: np.ndarray) -> Iterator[float]:
        # __call__'s math.pow, mapped from C; _tabulate gives positive distances only
        return map(math.pow, x.tolist(), itertools.repeat(-self.alpha))


@dataclass(frozen=True)
class ExponentialAtom(EnergyFunction):
    """f(x) = a ** -x (or a ** -(x*x)) with a > 1; defined for x >= 0."""

    a: float
    exponent_of: str = "distance"  # "distance" or "distance_squared"

    def __post_init__(self) -> None:
        _real(self.a, "exponential base", 1)
        if self.exponent_of not in ("distance", "distance_squared"):
            raise ValueError(f"unknown exponent_of {self.exponent_of!r}")

    def __call__(self, x: float) -> float:
        if x < 0:
            raise ValueError(f"exponential atom undefined at x = {x}")
        e = float(x) if self.exponent_of == "distance" else float(x) * float(x)
        return math.pow(self.a, -e)

    def over(self, x: np.ndarray) -> Iterator[float]:
        # __call__'s exponent and math.pow, in float64 and mapped from C
        e = x.astype(np.float64)
        if self.exponent_of == "distance_squared":
            e *= e
        return map(math.pow, itertools.repeat(self.a), np.negative(e, out=e).tolist())


@dataclass(frozen=True)
class Tabulated(EnergyFunction):
    """f given by an explicit table from attainable distances to positive values.

    A distance x matches the one key within TABLE_KEY_RTOL * |x| of it; no key
    or more than one key there is an error.
    """

    values: Mapping[float, float]

    def __post_init__(self) -> None:
        table = dict(self.values)
        for x, v in table.items():
            if not math.isfinite(x):
                raise ValueError(f"tabulated distance must be finite, got {x}")
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"tabulated value at {x} must be finite positive, got {v}")
        object.__setattr__(self, "values", table)
        object.__setattr__(self, "_keys", sorted(table))

    def __call__(self, x: float) -> float:
        keys = self._keys  # type: ignore[attr-defined]
        tol = TABLE_KEY_RTOL * abs(x)
        lo, hi = bisect.bisect_left(keys, x - tol), bisect.bisect_right(keys, x + tol)
        if lo == hi:
            raise ValueError(f"no tabulated value at distance {x!r}")
        if hi - lo > 1:
            raise ValueError(
                f"{hi - lo} tabulated distances lie within relative {TABLE_KEY_RTOL} of {x!r}"
            )
        return float(self.values[keys[lo]])


@dataclass(frozen=True)
class KernelTable:
    """The kernel u(g, 0) = f(distance(g, 0)), stored on the fundamental block, with u(0, 0) = 0.

    Every metric depends on a site only through its per-axis wraps, so the
    kernel is even in every axis and fixed by its values at wraps
    0..n_i // 2: `block` holds those, in an array of shape
    `block_shape(dims)`, and u(g, 0) is the block entry at the wraps of g.
    The zero at the origin encodes the exclusion of the self-pair from every
    energy sum, and makes the Fourier transform of the kernel over all sites
    equal to the eigenvalue table.
    """

    dims: GridDims
    block: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_block(self.dims, self.block, "kernel")


def build_kernel(dims: GridDims, metric: Metric, f: EnergyFunction | Callable[[float], float]) -> KernelTable:
    """Tabulate f over the nonzero distances of the fundamental block.

    The block's integer distance keys (see `distance_key`) go through
    `_tabulate`, so f is evaluated once per distinct nonzero key, in
    increasing order: a built-in profile by libm `pow` over the whole key
    array, any other callable by one call per key.  Tabulated profiles only
    need keys for distances that actually occur on the grid.
    """
    key = distance_table(dims, Metric.EUCLIDEAN_SQUARED if metric is Metric.EUCLIDEAN else metric)
    return KernelTable(dims=dims, block=_tabulate(key, metric, f))


def _tabulate(key: np.ndarray, metric: Metric, f: EnergyFunction | Callable[[float], float]) -> np.ndarray:
    """f at the distance of every entry of an integer key array, and 0 where the key is 0.

    The distance of a key is the key itself, or its square root for Euclid
    (`np.sqrt`, correctly rounded like `math.sqrt`).  f is evaluated once per
    distinct nonzero key, in increasing order, so a profile that fails at
    some distances fails first at the least of them, as an inf or NaN value
    does (a ValueError naming that distance).  A profile evaluates
    the distinct distances through `EnergyFunction.over`: `InversePower` and
    `ExponentialAtom` map `math.pow` over them from C, with no Python frame
    per key, and give the same floats as their `__call__`; a `Tabulated`
    profile or any other callable f is called once per distance, with ints
    (floats for Euclid).  Dense keys (every Lee and Chebyshev array, and
    most squared ones of two or more axes) are marked in a table indexed by
    the key; sparse ones are found by sorting.  Both the kernel block and
    the member-pair energies come from here, so they hold the same value at
    the same key.
    """
    def tabulate(keys: np.ndarray) -> np.ndarray:
        # keys are distinct and increasing, so a zero key can only come first
        start = int(keys[0] == 0)
        over = f.over if isinstance(f, EnergyFunction) else lambda x: map(f, x.tolist())
        # the distance array is a temporary that over() turns into a list, so one
        # Python list is held while f runs
        values = over(np.sqrt(keys[start:]) if metric is Metric.EUCLIDEAN else keys[start:])
        # filled as f returns, without a list of result floats: up to ~10^5 keys at 1024^2 euclid
        table = np.fromiter(itertools.chain([0.0] * start, values), dtype=np.float64, count=len(keys))
        if not (finite := np.isfinite(table)).all():
            bad = int(keys[finite.argmin()])  # the least key where f is inf or NaN
            raise ValueError(f"f is not finite at distance {math.sqrt(bad) if metric is Metric.EUCLIDEAN else bad}")
        return table

    top = int(key.max())
    if top < KEY_TABLE_FACTOR * key.size:
        present = np.zeros(top + 1, dtype=bool)
        present[key] = True
        keys = np.flatnonzero(present)
        per_key = np.zeros(top + 1, dtype=np.float64)
        per_key[keys] = tabulate(keys)
        return per_key[key]
    # a sorted copy and a binary search per entry: np.unique's inverse
    # argsorts, at about twice the time and memory on p x p pair keys
    ordered = np.sort(key, axis=None)
    keys = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    del ordered
    return tabulate(keys)[np.searchsorted(keys, key)]


def forward_difference(f: Callable[[float], float], m: int, x: float) -> float:
    """m-th forward difference of f at x, from the binomial expansion; m is an integer of at least 0.

    An inf or NaN f, or a sum that overflows, is a ValueError naming the difference.
    """
    m = _integer(m, "difference order", 0)
    total = _fsum(math.comb(m, k) * (-1) ** (m + k) * f(x + k) for k in range(m + 1))
    return _finite(total, "forward difference", "f is inf or NaN at a point, or its binomial sum overflows")


@dataclass(frozen=True)
class SignViolation:
    order: int
    x: float
    value: float
    severity: str  # "fail" or "inconclusive"


@dataclass(frozen=True)
class SignReport:
    """Outcome of an alternating-sign scan.

    status is "pass" when every checked quantity was strictly positive
    beyond the rounding band, "inconclusive" when some landed inside the
    band, and "fail" on a clear sign violation.  Violations are listed in
    scan order (by order, then by x).
    """

    status: str
    violations: tuple[SignViolation, ...]

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def consistent(self) -> bool:
        """True unless a clear violation was found (proxy-style reading)."""
        return self.status != "fail"


def _sign_report(
    max_order: int, xs: Sequence[float], scan: Callable[[int, float], tuple[float, float]]
) -> SignReport:
    """Scan orders 0..max_order over xs; scan(m, x) gives a value and its rounding band.

    (-1)^m * value must exceed the band; inside it the point is inconclusive,
    below it a failure.
    """
    violations: list[SignViolation] = []
    for m in range(max_order + 1):
        for x in xs:
            value, band = scan(m, x)
            signed = value if m % 2 == 0 else -value
            if signed > band:
                continue
            severity = "inconclusive" if signed >= -band else "fail"
            violations.append(SignViolation(order=m, x=float(x), value=value, severity=severity))
    if any(v.severity == "fail" for v in violations):
        status = "fail"
    elif violations:
        status = "inconclusive"
    else:
        status = "pass"
    return SignReport(status=status, violations=tuple(violations))


def check_alternating_differences(
    f: EnergyFunction | Callable[[float], float],
    max_order: int,
    window: Iterable[int],
) -> SignReport:
    """Check (-1)^m * (m-th forward difference of f) > 0 on an integer window.

    Orders m = 0..max_order are scanned (order zero is positivity of f
    itself), max_order an integer of at least 0.  The window's points must
    be integers: a float such as 1.5, or a str, is refused, not truncated.
    Values within STRICTNESS_RTOL * max(1, |f(x)|) of zero are reported as
    inconclusive rather than failed; a difference that is not finite is a
    ValueError naming it (see forward_difference).
    """
    xs = sorted(set(_integers(window, "window")))
    max_order = _integer(max_order, "max_order", 0)

    def scan(m: int, x: int) -> tuple[float, float]:
        return forward_difference(f, m, x), STRICTNESS_RTOL * max(1.0, abs(f(x)))

    return _sign_report(max_order, xs, scan)


def _central_derivative(f: Callable[[float], float], k: int, x: float, step: float) -> float:
    """Central finite-difference estimate of the k-th derivative at x; one that is not finite is a ValueError."""
    total = _fsum((-1) ** i * math.comb(k, i) * f(x + (k / 2.0 - i) * step) for i in range(k + 1))
    return _finite(total / step**k, "derivative estimate", "f is inf or NaN at a point, or its stencil sum overflows")


def check_complete_monotonicity_proxy(
    f: EnergyFunction | Callable[[float], float],
    max_order: int,
    grid: Iterable[float],
    step: float,
) -> SignReport:
    """Numerically probe (-1)^k f^(k)(x) > 0 on a grid of positive points.

    This is a diagnostic proxy, not a proof: derivative estimates use
    central differences, and estimates smaller than the rounding noise of
    the stencil are reported as inconclusive.  max_order is an integer of
    at least 0; step and every grid point are finite positive real numbers,
    so a NaN point is refused rather than scanned.  Tabulated profiles are
    rejected because the stencil needs off-grid evaluations.  An estimate
    that is not finite is a ValueError naming it.
    """
    if isinstance(f, Tabulated):
        raise ValueError("complete-monotonicity proxy requires a smooth profile, not a table")
    max_order = _integer(max_order, "max_order", 0)
    step = _real(step, "step", 0)
    xs = sorted(set(float(_real(x, "grid point", 0)) for x in grid))
    eps = np.finfo(np.float64).eps

    def scan(k: int, x: float) -> tuple[float, float]:
        # rounding noise of a k-point stencil with O(1) coefficients
        noise = 8.0 * (2.0**k) * eps * max(1.0, abs(f(x))) / step**k
        return _central_derivative(f, k, x, step), noise

    return _sign_report(max_order, xs, scan)
