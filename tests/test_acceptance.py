"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run pytest
with -s to see them) and enforces the stated exactness and runtime
budget.
"""

import time

from hallzero.algebra import constant_term
from hallzero.degeneration import leq_deg, moebius_row, partitions_of, poset_of
from hallzero.oracle import count_all_subspaces, gaussian_binomial, hall_number
from hallzero.partitions import Partition, parse_partition
from hallzero.verification import (
    check_extension_extremality,
    check_fmap_multiplicative,
    check_interpolation_agreement,
    check_ones_constant_terms,
)

P = parse_partition


def _finish(number, label, failures, started, budget):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status} [{elapsed:.2f}s]")
    assert not failures, failures[:10]
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_golden_constant_terms():
    started = time.perf_counter()
    expected = [
        ("(1^3)", "(1^2)", "(1^5)", 1),
        ("(1^3)", "(1^2)", "(2,1^3)", 1),
        ("(1^3)", "(1^2)", "(2^2,1)", 1),
        ("(1^3)", "(2)", "(3,1^2)", 1),
        ("(1^3)", "(2)", "(2,1^3)", 0),
        ("(2,1)", "(1^2)", "(2,1^3)", 0),
        ("(2,1)", "(1^2)", "(2^2,1)", 0),
        ("(2,1)", "(1^2)", "(3,1^2)", 1),
        ("(2,1)", "(1^2)", "(3,2)", 1),
        ("(2,1)", "(2)", "(2^2,1)", 0),
        ("(2,1)", "(2)", "(3,2)", 0),
        ("(2,1)", "(2)", "(4,1)", 1),
        ("(2,1)", "(2)", "(3,1^2)", -1),
    ]
    failures = []
    for left, right, target, value in expected:
        got = constant_term(P(left), P(right), P(target))
        if got != value:
            failures.append(f"({left},{right},{target}): got {got}, want {value}")
    _finish(1, "golden constant terms", failures, started, budget=1.0)


def _run_check(number, label, check, max_weight, budget):
    started = time.perf_counter()
    result = check(max_weight)
    _finish(number, label, [] if result.passed else [result.detail], started, budget)
    return result


def test_criterion_2_all_ones_constant_terms():
    result = _run_check(
        2, "all-ones constant terms", check_ones_constant_terms, 6, budget=30.0
    )
    assert result.detail == "165 triples checked"


def test_criterion_3_embedding_multiplicative():
    result = _run_check(
        3, "embedding is multiplicative", check_fmap_multiplicative, 6, budget=30.0
    )
    assert result.detail == "139 products checked"


def test_criterion_4_oracle_algebra_agreement():
    result = _run_check(
        4, "oracle/algebra agreement", check_interpolation_agreement, 5, budget=600.0
    )
    assert result.detail == "340 feasible triples checked, 55 infeasible"


def test_criterion_5_extension_extremality():
    result = _run_check(
        5, "generic extension extremality", check_extension_extremality, 5, budget=300.0
    )
    assert result.detail == "131 extensions checked"


def test_criterion_6_duality_and_order_structure():
    started = time.perf_counter()
    failures = []
    small = [p for w in range(13) for p in partitions_of(w)]
    for a in small:
        for b in small:
            if a.union(b).conjugate() != a.conjugate() + b.conjugate():
                failures.append(f"duality fails at {a}, {b}")
    for n in range(11):
        poset = poset_of(n)
        m = len(poset)
        z = [[poset.zeta[i] >> j & 1 for j in range(m)] for i in range(m)]
        mo = [[0] * m for _ in range(m)]
        for i, lam in enumerate(poset.elements):
            for nu, v in moebius_row(lam):
                mo[i][poset.index(nu)] = v
        for i in range(m):
            if z[i][i] != 1:
                failures.append(f"n={n}: not reflexive at {i}")
            for j in range(m):
                if i != j and z[i][j] and z[j][i]:
                    failures.append(f"n={n}: antisymmetry fails at ({i},{j})")
                if z[i][j] and any(z[j][k] and not z[i][k] for k in range(m)):
                    failures.append(f"n={n}: transitivity fails at ({i},{j})")
                prod = sum(z[i][k] * mo[k][j] for k in range(m))
                if prod != (1 if i == j else 0):
                    failures.append(f"n={n}: zeta*moebius != id at ({i},{j})")
                prod = sum(mo[i][k] * z[k][j] for k in range(m))
                if prod != (1 if i == j else 0):
                    failures.append(f"n={n}: moebius*zeta != id at ({i},{j})")
        if n >= 1:
            row = Partition((n,))
            ones = Partition((1,) * n)
            for p in poset.elements:
                if not leq_deg(row, p) or not leq_deg(p, ones):
                    failures.append(f"n={n}: extremes fail at {p}")
        for a in poset.elements:
            for b in poset.elements:
                if leq_deg(a, b) != leq_deg(b.conjugate(), a.conjugate()):
                    failures.append(f"n={n}: anti-isomorphism fails at ({a},{b})")
    _finish(6, "duality and order structure", failures, started, budget=60.0)


def test_criterion_7_oracle_sanity():
    started = time.perf_counter()
    failures = []
    for p in (2, 3):
        for n in range(6):
            expected = sum(gaussian_binomial(n, k, p) for k in range(n + 1))
            got = count_all_subspaces(n, p)
            if got != expected:
                failures.append(f"count_all({n},{p}) = {got}, want {expected}")
            ones = Partition((1,) * n)
            for k in range(n + 1):
                expected = gaussian_binomial(n, k, p)
                got = hall_number(
                    ones, Partition((1,) * (n - k)), Partition((1,) * k), p
                )
                if got != expected:
                    failures.append(f"[{n},{k}]_{p}: got {got}, want {expected}")
    _finish(7, "oracle sanity", failures, started, budget=60.0)
