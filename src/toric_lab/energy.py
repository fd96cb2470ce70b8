"""Repelling-force profiles and the energy kernel table u(g, 0) = f(distance(g, 0)).

The kernel is stored as a single real table over site indices with the
origin entry forced to zero, so that its discrete Fourier transform is
exactly the eigenvalue table of the convolution operator it defines.

Two diagnostic checks live here as well: the alternating sign of integer
forward differences, and a finite-difference proxy for alternating
derivative signs of the smooth profiles.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .grid import GridDims, Metric, distance_table

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


class EnergyFunction(ABC):
    """A repelling profile f; positive and finite wherever it is defined."""

    @abstractmethod
    def __call__(self, x: float) -> float:
        """Evaluate f at a distance value."""


@dataclass(frozen=True)
class InversePower(EnergyFunction):
    """f(x) = x ** -alpha with alpha > 0; defined for x > 0."""

    alpha: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"inverse-power exponent must be positive, got {self.alpha}")

    def __call__(self, x: float) -> float:
        if x <= 0:
            raise ValueError(f"inverse power undefined at x = {x}")
        return float(x) ** -self.alpha


@dataclass(frozen=True)
class ExponentialAtom(EnergyFunction):
    """f(x) = a ** -x (or a ** -(x*x)) with a > 1; defined for x >= 0."""

    a: float
    exponent_of: str = "distance"  # "distance" or "distance_squared"

    def __post_init__(self) -> None:
        if not (self.a > 1 and math.isfinite(self.a)):
            raise ValueError(f"exponential base must exceed 1, got {self.a}")
        if self.exponent_of not in ("distance", "distance_squared"):
            raise ValueError(f"unknown exponent_of {self.exponent_of!r}")

    def __call__(self, x: float) -> float:
        if x < 0:
            raise ValueError(f"exponential atom undefined at x = {x}")
        e = float(x) if self.exponent_of == "distance" else float(x) * float(x)
        return self.a ** -e


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


@dataclass
class KernelTable:
    """Values u(g, 0) = f(distance(g, 0)) over site indices, with u(0, 0) = 0.

    The zero at the origin encodes the exclusion of the self-pair from every
    energy sum, and makes the Fourier transform of this table equal to the
    eigenvalue table directly.
    """

    dims: GridDims
    metric: Metric
    values: np.ndarray = field(repr=False)


def build_kernel(dims: GridDims, metric: Metric, f: EnergyFunction | Callable[[float], float]) -> KernelTable:
    """Tabulate f over all nonzero distances to the origin.

    f is evaluated once per distinct attainable distance, so tabulated
    profiles only need keys for distances that actually occur.
    """
    dist = distance_table(dims, metric).ravel()
    uniq, inverse = np.unique(dist, return_inverse=True)
    per_distance = np.empty(len(uniq), dtype=np.float64)
    for i, x in enumerate(uniq.tolist()):
        per_distance[i] = 0.0 if x == 0 else float(f(x))
    values = per_distance[inverse]
    return KernelTable(dims=dims, metric=metric, values=values)


def forward_difference(f: Callable[[float], float], m: int, x: float) -> float:
    """m-th forward difference of f at x, from the binomial expansion."""
    if m < 0:
        raise ValueError(f"difference order must be non-negative, got {m}")
    return math.fsum(
        math.comb(m, k) * (-1) ** (m + k) * f(x + k) for k in range(m + 1)
    )


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
    orders_checked: int
    points_checked: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def consistent(self) -> bool:
        """True unless a clear violation was found (proxy-style reading)."""
        return self.status != "fail"

    @property
    def first_violation(self) -> SignViolation | None:
        return self.violations[0] if self.violations else None

    def __bool__(self) -> bool:
        return self.passed


def check_alternating_differences(
    f: EnergyFunction | Callable[[float], float],
    max_order: int,
    window: Iterable[int],
) -> SignReport:
    """Check (-1)^m * (m-th forward difference of f) > 0 on an integer window.

    Orders m = 0..max_order are scanned (order zero is positivity of f
    itself).  Values within STRICTNESS_RTOL * max(1, |f(x)|) of zero are
    reported as inconclusive rather than failed.
    """
    xs = sorted(set(int(x) for x in window))
    if max_order < 0:
        raise ValueError(f"max_order must be non-negative, got {max_order}")
    violations: list[SignViolation] = []
    points = 0
    for m in range(max_order + 1):
        for x in xs:
            value = forward_difference(f, m, x)
            signed = value if m % 2 == 0 else -value
            tol = STRICTNESS_RTOL * max(1.0, abs(f(x)))
            points += 1
            if signed > tol:
                continue
            severity = "inconclusive" if signed >= -tol else "fail"
            violations.append(SignViolation(order=m, x=float(x), value=value, severity=severity))
    if any(v.severity == "fail" for v in violations):
        status = "fail"
    elif violations:
        status = "inconclusive"
    else:
        status = "pass"
    return SignReport(
        status=status,
        violations=tuple(violations),
        orders_checked=max_order + 1,
        points_checked=points,
    )


def _central_derivative(f: Callable[[float], float], k: int, x: float, step: float) -> float:
    """Central finite-difference estimate of the k-th derivative at x."""
    return math.fsum(
        (-1) ** i * math.comb(k, i) * f(x + (k / 2.0 - i) * step) for i in range(k + 1)
    ) / step**k


def check_complete_monotonicity_proxy(
    f: EnergyFunction | Callable[[float], float],
    max_order: int,
    grid: Iterable[float],
    step: float,
) -> SignReport:
    """Numerically probe (-1)^k f^(k)(x) > 0 on a grid of positive points.

    This is a diagnostic proxy, not a proof: derivative estimates use
    central differences, and estimates smaller than the rounding noise of
    the stencil are reported as inconclusive.  Tabulated profiles are
    rejected because the stencil needs off-grid evaluations.
    """
    if isinstance(f, Tabulated):
        raise ValueError("complete-monotonicity proxy requires a smooth profile, not a table")
    if max_order < 0:
        raise ValueError(f"max_order must be non-negative, got {max_order}")
    if not (step > 0):
        raise ValueError(f"step must be positive, got {step}")
    xs = sorted(set(float(x) for x in grid))
    if any(x <= 0 for x in xs):
        raise ValueError("grid points must be positive")
    violations: list[SignViolation] = []
    points = 0
    eps = np.finfo(np.float64).eps
    for k in range(max_order + 1):
        for x in xs:
            est = _central_derivative(f, k, x, step)
            signed = est if k % 2 == 0 else -est
            # rounding noise of a k-point stencil with O(1) coefficients
            noise = 8.0 * (2.0**k) * eps * max(1.0, abs(f(x))) / step**k
            points += 1
            if signed > noise:
                continue
            severity = "inconclusive" if signed >= -noise else "fail"
            violations.append(SignViolation(order=k, x=x, value=est, severity=severity))
    if any(v.severity == "fail" for v in violations):
        status = "fail"
    elif violations:
        status = "inconclusive"
    else:
        status = "pass"
    return SignReport(
        status=status,
        violations=tuple(violations),
        orders_checked=max_order + 1,
        points_checked=points,
    )
