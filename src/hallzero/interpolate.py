"""Exact recovery of Hall polynomials from prime-field counts.

The polynomial is fitted by Newton interpolation in integer arithmetic
through oracle counts at the smallest primes, where an inexact division
means no integer polynomial fits, then validated at one held-out prime
(at two when the degree budget forces the zero polynomial).
Floating point is never used here.
"""

from __future__ import annotations

from operator import index
from typing import Iterable

from .errors import InfeasibleError, InterpolationError
from .oracle import SUPPORTED_PRIMES, hall_number, weight_cap
from .partitions import Partition


def n_stat(p: Partition) -> int:
    """The statistic sum of (row index) * part, rows counted from zero.

    Bounds the degree of the Hall polynomial: the budget for the triple
    (quotient, sub, outer) is n_stat(outer) - n_stat(quotient) - n_stat(sub).
    """
    return sum(i * v for i, v in enumerate(p.parts))


class IntPoly:
    """Dense integer polynomial; coefficients constant term first.

    Coefficients go through operator.index, so a float or Fraction raises
    TypeError instead of being truncated.  Trailing zeros are stripped.
    Instances are immutable and hashable, and equal only to polynomials."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        coeffs = list(map(index, coeffs))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: IntPoly is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: IntPoly is immutable")

    def __reduce__(self) -> tuple:
        return (IntPoly, (self.coeffs,))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly(coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __str__(self) -> str:
        """Canonical ascending form with every coefficient shown,
        e.g. "-1 + 0*t + 1*t^2"; the zero polynomial is "0"."""
        if not self.coeffs:
            return "0"
        chunks: list[str] = []
        for d, c in enumerate(self.coeffs):
            mag = str(abs(c)) if d == 0 else (
                f"{abs(c)}*t" if d == 1 else f"{abs(c)}*t^{d}"
            )
            if not chunks:
                chunks.append(mag if c >= 0 else f"-{mag}")
            else:
                chunks.append(f"+ {mag}" if c >= 0 else f"- {mag}")
        return " ".join(chunks)


def usable_primes(weight: int) -> list[int]:
    """Sample primes whose enumeration cap admits the given weight."""
    return [p for p in SUPPORTED_PRIMES if weight <= weight_cap(p)]


def _newton_integer(xs: list[int], ys: list[int]) -> list[int]:
    """Coefficients, constant term first, of the polynomial of degree
    below len(xs) through the points (xs[i], ys[i]), from its divided
    differences on ints.  At integer nodes a polynomial has integer
    coefficients exactly when all those are integers, so an inexact
    division raises InterpolationError."""
    c = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            c[i], rest = divmod(c[i] - c[i - 1], xs[i] - xs[i - k])
            if rest:
                raise InterpolationError(
                    f"no integer polynomial fits the counts {ys} at {xs}"
                )
    # Horner on the Newton form: coeffs <- coeffs * (t - x_k) + c_k.
    coeffs: list[int] = []
    for ck, xk in zip(reversed(c), reversed(xs)):
        coeffs.insert(0, 0)
        for d in range(len(coeffs) - 1):
            coeffs[d] -= xk * coeffs[d + 1]
        coeffs[0] += ck
    return coeffs


def interpolate_hall_poly(
    quotient: Partition, sub: Partition, outer: Partition
) -> IntPoly:
    """Exact Hall polynomial for the triple, or raise.

    Fits through oracle counts at the first budget+1 usable primes and
    validates at the next one.  A negative degree budget forces the zero
    polynomial, so it is clamped at -1: no prime is fitted and the first
    two check that the count vanishes.  Raises InfeasibleError when
    fewer than budget+2 primes admit the weight (none does above every
    cap), InterpolationError on any inconsistency.
    """
    if quotient.weight + sub.weight != outer.weight:
        raise ValueError(
            f"weight mismatch: |{quotient}| + |{sub}| != |{outer}|"
        )
    primes = usable_primes(outer.weight)
    budget = max(-1, n_stat(outer) - n_stat(quotient) - n_stat(sub))
    if len(primes) < budget + 2:
        raise InfeasibleError(
            f"({quotient}, {sub}, {outer}) needs {budget + 2} sample primes, "
            f"{len(primes)} admit weight {outer.weight}: infeasible at desk scale"
        )
    xs = primes[: budget + 1]
    ys = [hall_number(outer, quotient, sub, p) for p in xs]
    poly = IntPoly(tuple(_newton_integer(xs, ys)))
    for check in primes[budget + 1 : max(budget, 0) + 2]:
        expected = hall_number(outer, quotient, sub, check)
        got = poly(check)
        if got != expected:
            raise InterpolationError(
                f"validation failed at p={check}: polynomial gives {got}, "
                f"enumeration gives {expected}"
            )
    return poly
