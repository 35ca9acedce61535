"""Cross-check suite wiring the algebra against the enumeration oracle."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .algebra import constant_term, f_map, h0_multiply
from .degeneration import leq_deg, partitions_of
from .errors import InfeasibleError
from .interpolate import interpolate_hall_poly
from .monoid import check_extension_bound
from .oracle import _check_cap, hall_number
from .partitions import Partition


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _pairs(n: int) -> Iterator[tuple[Partition, Partition]]:
    """Every pair (a, b) of partitions with |a| + |b| = n, by |a| first."""
    for wa in range(n + 1):
        for a in partitions_of(wa):
            for b in partitions_of(n - wa):
                yield a, b


def check_fmap_multiplicative(max_weight: int) -> CheckResult:
    """f_map turns generic extension (partition addition) into the product."""
    name = "fmap_multiplicative"
    pairs = 0
    for n in range(max_weight + 1):
        for a, b in _pairs(n):
            pairs += 1
            if h0_multiply(f_map(a), f_map(b)) != f_map(a + b):
                return CheckResult(name, False, f"fails at {a} * {b}")
    return CheckResult(name, True, f"{pairs} products checked")


def check_ones_constant_terms(max_weight: int) -> CheckResult:
    """For all-ones factors the constant term is 1 exactly on the support
    of the count at p=2, and 0 elsewhere."""
    name = "ones_constant_terms"
    triples = 0
    for n in range(max_weight + 1):
        for m in range(max_weight + 1 - n):
            a = Partition((1,) * n)
            b = Partition((1,) * m)
            for g in partitions_of(n + m):
                triples += 1
                value = constant_term(a, b, g)
                positive = hall_number(g, a, b, 2) > 0
                if value not in (0, 1) or (value == 1) != positive:
                    return CheckResult(
                        name, False, f"fails at ({a}, {b}, {g}): {value}"
                    )
    return CheckResult(name, True, f"{triples} triples checked")


def check_extension_extremality(max_weight: int) -> CheckResult:
    """Every extension counted at p=2 sits between the generic extension
    (the prefix-sum bound) and the direct sum; the generic extension
    itself is always counted."""
    name = "extension_extremality"
    checked = 0
    for n in range(max_weight + 1):
        for quo, sub in _pairs(n):
            if hall_number(quo + sub, quo, sub, 2) <= 0:
                return CheckResult(
                    name, False, f"generic extension of ({quo}, {sub}) not counted"
                )
            for mid in partitions_of(n):
                if hall_number(mid, quo, sub, 2) <= 0:
                    continue
                checked += 1
                if not (
                    check_extension_bound(mid, quo, sub)
                    and leq_deg(mid, quo.union(sub))
                ):
                    return CheckResult(name, False, f"fails at ({mid}; {quo}, {sub})")
    return CheckResult(name, True, f"{checked} extensions checked")


def check_interpolation_agreement(max_weight: int) -> CheckResult:
    """Wherever interpolation is feasible the constant term of the
    polynomial, which `interpolate_hall_poly` has fitted through the
    enumeration and validated at a held-out prime, matches the matrix
    algorithm."""
    name = "interpolation_agreement"
    feasible = skipped = 0
    for w in range(max_weight + 1):
        for outer in partitions_of(w):
            for quo, sub in _pairs(w):
                try:
                    poly = interpolate_hall_poly(quo, sub, outer)
                except InfeasibleError:
                    skipped += 1
                    continue
                feasible += 1
                if poly.constant != constant_term(quo, sub, outer):
                    return CheckResult(
                        name, False, f"constant mismatch at ({quo}, {sub}, {outer})"
                    )
    return CheckResult(
        name, True, f"{feasible} feasible triples checked, {skipped} infeasible"
    )


def run_all(max_weight: int = 5) -> list[CheckResult]:
    """Every check up to max_weight.  Two of them count at p = 2, so a
    max_weight above the oracle's cap there raises CapExceededError
    before any check runs."""
    _check_cap(max_weight, 2)
    return [
        check_fmap_multiplicative(max_weight),
        check_ones_constant_terms(max_weight),
        check_extension_extremality(max_weight),
        check_interpolation_agreement(max_weight),
    ]
