"""Closed forms and proof-driven numerical checks for the eigenvalue tables.

Covers the one-dimensional harmonic spectrum and its derivative, the
difference-sum closed form for eigenvalue gaps on the size-two hypercube,
and the per-dimension geometric factor curves of exponential profiles that
drive the multiples-of-four certificate and its squared-Euclidean variant.
Each factor curve is one long-double real transform of its per-axis terms,
O(n log n) for both distance powers and for odd and even n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .energy import EnergyFunction, forward_difference
from .grid import _integer, _real

__all__ = [
    "lambda_1d",
    "kappa",
    "kappa_prime",
    "hypercube_gap",
    "FactorCurve",
    "factor_curve",
    "factor_closed_form",
    "bernstein_sweep",
    "dirichlet_sin_sum",
]

_POLE_GUARD = 1e-6
_ARGMIN_RTOL = 1e-12


def _even_cycle(n: int) -> int:
    """The cycle length n as a Python int; one that is not an even integer of at least 2 is refused."""
    n = _integer(n, "cycle length")
    if n < 2 or n % 2:
        raise ValueError(f"cycle length must be even and at least 2, got {n}")
    return n


def lambda_1d(n: int, f: EnergyFunction | Callable[[float], float], j: int) -> float:
    """Eigenvalue at character index j on the n-cycle:

        sum_{k=1}^{n/2-1} f(k) * 2 cos(2 pi j k / n)  +  f(n/2) * (-1)^j.

    Equals the full transform of the kernel table on a one-dimensional grid.
    """
    n, j = _even_cycle(n), _integer(j, "character index")
    half = n // 2
    terms = [f(k) * 2.0 * math.cos(2.0 * math.pi * ((j * k) % n) / n) for k in range(1, half)]
    terms.append(f(half) * (1.0 if j % 2 == 0 else -1.0))
    return math.fsum(terms)


def kappa(n: int, x: float) -> float:
    """Real interpolation of the harmonic (f(x) = 1/x) cycle spectrum:

        kappa(x) = sum_{k=1}^{n/2-1} (2/k) cos(2 pi x k / n) + (2/n) cos(pi x).

    At integer x this equals lambda_1d(n, 1/x profile, x).  x must be a
    finite real number.
    """
    n, x = _even_cycle(n), _real(x, "x", -math.inf)
    half = n // 2
    terms = [(2.0 / k) * math.cos(2.0 * math.pi * x * k / n) for k in range(1, half)]
    terms.append((2.0 / n) * math.cos(math.pi * x))
    return math.fsum(terms)


def kappa_prime(n: int, x: float) -> float:
    """Closed form of the derivative of kappa:

        kappa'(x) = (2 pi / n) (cos(pi x) - 1) * cos(pi x / n) / sin(pi x / n).

    Non-positive on (0, n/2) and non-negative on (n/2, n), which pins the
    unique interior minimum of kappa at x = n/2.  x must be a finite real
    number, and evaluation is refused within 1e-6 of the poles x = 0 and
    x = n.
    """
    n, x = _even_cycle(n), _real(x, "x", -math.inf)
    if not _POLE_GUARD <= x <= n - _POLE_GUARD:
        raise ValueError(f"x = {x} is within {_POLE_GUARD} of a pole of kappa' (0 or {n})")
    return (
        (2.0 * math.pi / n)
        * (math.cos(math.pi * x) - 1.0)
        * math.cos(math.pi * x / n)
        / math.sin(math.pi * x / n)
    )


def hypercube_gap(d: int, f: EnergyFunction | Callable[[float], float], q: int) -> float:
    """Eigenvalue gap on the size-two grid in d dimensions.

    For two characters differing in one flipped coordinate, with q trivial
    components among the remaining d - 1, the gap is

        2 * sum_{l=0}^{q} C(q, l) * (-1)^(d-1-q) * (Delta^(d-1-q) f)(l + 1),

    which is strictly positive whenever the forward differences of f
    alternate in sign up to order d - 1.
    """
    d, q = _integer(d, "dimension", 1), _integer(q, "q")
    if not 0 <= q <= d - 1:
        raise ValueError(f"q must lie in 0..{d - 1}, got {q}")
    m = d - 1 - q
    sign = -1.0 if m % 2 else 1.0
    return 2.0 * math.fsum(
        math.comb(q, l) * sign * forward_difference(f, m, l + 1) for l in range(q + 1)
    )


@dataclass(frozen=True)
class FactorCurve:
    """Per-dimension factor of an exponential profile over all root indices.

    values[k] = sum over g in Z/n of a^(-(wrap(g) ** power)) * cos(2 pi k g / n),
    the g = 0 term included.  argmin collects the nonzero indices attaining
    the minimum (always a conjugate-closed set; index 0 is the maximum).
    """

    n: int
    a: float
    distance_power: int
    values: np.ndarray = field(repr=False)
    argmin: tuple[int, ...]

    def value_at(self, k: int) -> float:
        return float(self.values[k % self.n])

    @property
    def min_value(self) -> float:
        """The least value over the nonzero indices."""
        return float(self.values[1:].min())

    @property
    def is_minus_one_strict_min(self) -> bool:
        """Whether n/2, the root -1, is the only index at the minimum.

        Never for odd n, where argmin pairs each k with n - k."""
        return self.argmin == (self.n // 2,)


def factor_curve(n: int, a: float, distance_power: int = 1) -> FactorCurve:
    """Evaluate one factor curve by one real transform, in O(n log n).

    The terms a^(-(wrap(g) ** power)) are even in g, so the curve is the
    real transform (np.fft.hfft) of the n // 2 + 1 terms at g = 0..n // 2.
    It runs in extended precision: near a = 1 the alternating sums cancel
    to values several orders below the individual terms, and double
    precision alone would not support the closed-form comparisons.  Each
    value is within one float64 rounding plus
    eps_ld * ceil(log2(n)) * sum(terms) of the exact sum over all n terms,
    eps_ld being the long double epsilon.
    """
    n, a = _integer(n, "cycle length", 2), _real(a, "base", 1)
    distance_power = _integer(distance_power, "distance power")
    if distance_power not in (1, 2):
        raise ValueError(f"distance power must be 1 or 2, got {distance_power}")
    exponent = (np.arange(n // 2 + 1) ** distance_power).astype(np.longdouble)
    values = np.fft.hfft(np.longdouble(a) ** -exponent, n).astype(np.float64)
    nonzero_min = float(values[1:].min())
    tol = _ARGMIN_RTOL * (1.0 + abs(nonzero_min))
    argmin = tuple((np.flatnonzero(values[1:] <= nonzero_min + tol) + 1).tolist())
    return FactorCurve(n=n, a=float(a), distance_power=distance_power, values=values, argmin=argmin)


def factor_closed_form(n: int, a: float, k: int) -> float:
    """Geometric closed form of the distance-power-1 factor at index k (even n):

        (1 -/+ a^(-n/2)) * (1 - a^(-2)) / |1 - a^(-1) zeta|^2

    for zeta^(n/2) = +/-1, with zeta = exp(2 pi i k / n).  Evaluated in a
    cancellation-free arrangement (expm1 / log1p and the half-angle form of
    the denominator) so it stays accurate to rounding for a close to 1.
    """
    n, k, a = _even_cycle(n), _integer(k, "root index"), _real(a, "base", 1)
    q = a - 1.0
    ln_a = math.log1p(q)
    half = n // 2
    if k % 2 == 0:
        lead = -math.expm1(-half * ln_a)  # 1 - a^(-n/2)
    else:
        lead = 1.0 + math.exp(-half * ln_a)  # 1 + a^(-n/2)
    one_minus_a2 = -math.expm1(-2.0 * ln_a)  # 1 - a^(-2)
    s = math.sin(math.pi * k / n)
    denom = (q / a) ** 2 + 4.0 * s * s / a  # |1 - zeta/a|^2
    return lead * one_minus_a2 / denom


def bernstein_sweep(n: int, metric_power: int, a_grid: Iterable[float]) -> list[FactorCurve]:
    """Factor curves for a range of bases; is_minus_one_strict_min flags where -1 is the strict minimum.

    For n divisible by 4 at power 1 every base passes; for n = 2 mod 4 (n
    at least 6) the minimum migrates away from -1 for small bases, and the
    curves expose the witnessing a.  Each base is read by `factor_curve`'s
    rule, as given: a str is refused, not converted.
    """
    n = _even_cycle(n)
    grid = list(a_grid)
    if not grid:
        raise ValueError("a_grid must be nonempty")
    return [factor_curve(n, a, metric_power) for a in grid]


def dirichlet_sin_sum(m: int, x: float) -> float:
    """Closed form of sum_{k=1}^{m} sin(k x):

        (cos(x/2) - cos((m + 1/2) x)) / (2 sin(x/2)),

    valid away from multiples of 2 pi, for an integer m of at least 0 and a
    finite real x.  This is the identity behind the telescoped derivative
    of kappa.
    """
    m, x = _integer(m, "m", 0), _real(x, "x", -math.inf)
    s = math.sin(x / 2.0)
    if s == 0.0:
        raise ValueError(f"x = {x} is a pole of the closed form")
    return (math.cos(x / 2.0) - math.cos((m + 0.5) * x)) / (2.0 * s)
