import subprocess
import sys
import time
from itertools import islice

import pytest

from hallzero import oracle
from hallzero.degeneration import partitions_of
from hallzero.errors import CapExceededError
from hallzero.oracle import (
    JordanModule,
    Subspace,
    _invariant_bases,
    count_all_subspaces,
    enumerate_invariant_subspaces,
    gaussian_binomial,
    hall_number,
    hall_number_table,
    jordan_type,
    weight_cap,
)
from hallzero.partitions import ZERO, Partition, parse_partition

P = parse_partition


def rank_gf(rows, p):
    """Row reduction from scratch, for independent invariance checks."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] % p:
                f = m[i][c]
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[rank])]
        rank += 1
    return rank


def mat_pow(m, e, p):
    """e-th power of a square matrix over F_p, by repeated multiplication."""
    n = len(m)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = [
            [sum(out[i][t] * m[t][j] for t in range(n)) % p for j in range(n)]
            for i in range(n)
        ]
    return out


def submodule_count(lam, nu, q):
    """Birkhoff's closed form for the number of submodules of type nu of the
    module of type lam over F_q (Macdonald, Symmetric Functions and Hall
    Polynomials, 2nd ed., Ch. II): the product over i of
    q^(nu'_{i+1} (lam'_i - nu'_i)) [lam'_i - nu'_{i+1}, nu'_i - nu'_{i+1}]_q."""
    lc, nc = lam.conjugate().parts, nu.conjugate().parts
    length = max(len(lc), len(nc)) + 1
    lc += (0,) * (length - len(lc))
    nc += (0,) * (length - len(nc))
    if any(b > a for a, b in zip(lc, nc)):
        return 0
    out = 1
    for i in range(length - 1):
        out *= q ** (nc[i + 1] * (lc[i] - nc[i])) * gaussian_binomial(
            lc[i] - nc[i + 1], nc[i] - nc[i + 1], q
        )
    return out


def jordan_type_from_ranks(ranks):
    """Jordan type from the ranks dim, r_1, r_2, ... of the powers of a
    nilpotent operator: r_(i-1) - r_i blocks have size at least i."""
    at_least = [a - b for a, b in zip(ranks, ranks[1:])]
    return Partition(tuple(a for a in at_least if a)).conjugate()


def joint_table(outer, p):
    """(quotient type, sub type) tally over every enumerated subspace, with
    both types from ranks of matrix powers computed here."""
    module = JordanModule(outer, p)
    n = module.dim
    powers = [mat_pow(module.matrix, i, p) for i in range(n + 1)]
    table = {}
    for sub in enumerate_invariant_subspaces(module):
        basis = [list(row) for row in sub.basis]
        images = [
            [
                [sum(v[t] * m[t][j] for t in range(n)) % p for j in range(n)]
                for v in basis
            ]
            for m in powers
        ]
        sub_type = jordan_type_from_ranks([rank_gf(rows, p) for rows in images])
        quo_type = jordan_type_from_ranks(
            [rank_gf(m + basis, p) - sub.dim for m in powers]
        )
        table[quo_type, sub_type] = table.get((quo_type, sub_type), 0) + 1
    return table


def assert_dim_tables_match_joint(p, dims):
    """hall_number_table(outer, p, dim=k) equals the dimension-k part of
    joint_table, for every outer of weight at most 5 and every k in dims(n)."""
    for n in range(6):
        for outer in partitions_of(n):
            joint = joint_table(outer, p)
            for k in dims(n):
                expected = {key: c for key, c in joint.items() if key[1].weight == k}
                assert hall_number_table(outer, p, dim=k) == expected, (outer, k)


class TestPrimeField:
    """Every entry point that takes a prime accepts the same ones."""

    def test_supported(self):
        assert JordanModule(P("(1)"), 7).p == 7
        assert hall_number(P("(1)"), P("(1)"), ZERO, 7) == 1
        assert (weight_cap(3), weight_cap(5), weight_cap(7)) == (8, 6, 6)

    @pytest.mark.parametrize("bad", [0, 1, 4, 6, 17])
    def test_rejected(self, bad):
        with pytest.raises(ValueError, match="unsupported prime"):
            JordanModule(P("(1)"), bad)
        with pytest.raises(ValueError, match="unsupported prime"):
            hall_number(P("(1)"), P("(1)"), ZERO, bad)
        with pytest.raises(ValueError, match="unsupported prime"):
            weight_cap(bad)


class TestJordanModule:
    def test_matrix_blocks(self):
        m = JordanModule(P("(2,1)"), 2)
        assert m.matrix == ((0, 1, 0), (0, 0, 0), (0, 0, 0))

    def test_nilpotency_index(self):
        for shape in partitions_of(5):
            m = JordanModule(shape, 3)
            top = shape.parts[0]
            power = mat_pow(m.matrix, top, 3)
            assert not any(any(row) for row in power)
            if top > 1:
                below = mat_pow(m.matrix, top - 1, 3)
                assert any(any(row) for row in below)


class TestJordanType:
    def test_zero_operator(self):
        assert jordan_type([[0] * 3 for _ in range(3)], 2) == P("(1^3)")

    def test_single_block(self):
        assert jordan_type(JordanModule(P("(3)"), 2).matrix, 2) == P("(3)")

    def test_mixed_blocks(self):
        assert jordan_type(JordanModule(P("(2^2,1)"), 3).matrix, 3) == P("(2^2,1)")

    def test_round_trip_all_shapes(self):
        for n in range(6):
            for shape in partitions_of(n):
                for p in (2, 5):
                    assert jordan_type(JordanModule(shape, p).matrix, p) == shape

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            jordan_type([[int(i == j) for j in range(3)] for i in range(3)], 3)
        # Ranks of the powers fall to 1 and stay there.
        with pytest.raises(ValueError):
            jordan_type([[0, 1, 0], [0, 0, 0], [0, 0, 1]], 3)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            jordan_type([[0] * 3 for _ in range(2)], 2)

    def test_entries_are_integers(self):
        # int() would truncate 1.9 to 1 and report the type (2).
        with pytest.raises(TypeError):
            jordan_type([[0, 1.9], [0, 0]], 2)
        assert jordan_type([[False, True], [False, False]], 2) == P("(2)")


class TestEnumeration:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chain_module(self, p):
        subs = list(enumerate_invariant_subspaces(JordanModule(P("(2)"), p)))
        assert len(subs) == 3

    def test_zero_module(self):
        subs = list(enumerate_invariant_subspaces(JordanModule(ZERO, 2)))
        assert subs == [Subspace(())]

    @pytest.mark.parametrize("shape", ["()", "(2,1)"])
    def test_walk_outside_dimensions_is_empty(self, shape):
        # The walk places k rows; k = 0 and k above the dimension give none.
        module = JordanModule(P(shape), 3)
        assert list(_invariant_bases(module, 0)) == []
        assert list(_invariant_bases(module, module.dim + 1)) == []

    def test_zero_operator_takes_all(self):
        subs = list(enumerate_invariant_subspaces(JordanModule(P("(1^2)"), 2)))
        assert len(subs) == 5

    def test_unique_representatives(self):
        subs = list(enumerate_invariant_subspaces(JordanModule(P("(2,1)"), 3)))
        assert len(subs) == len(set(subs)) == 10

    def test_bases_are_invariant_and_echelon(self):
        for shape in partitions_of(4):
            module = JordanModule(shape, 3)
            for sub in enumerate_invariant_subspaces(module):
                rows = [list(r) for r in sub.basis]
                assert rank_gf(rows, 3) == sub.dim
                pivots = sub.pivots
                assert list(pivots) == sorted(pivots)
                for row in rows:
                    # The operator acts on row vectors by v -> vM.
                    image = [
                        sum(row[i] * module.matrix[i][j] for i in range(len(row))) % 3
                        for j in range(len(row))
                    ]
                    assert rank_gf(rows + [image], 3) == sub.dim

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            list(enumerate_invariant_subspaces(JordanModule(P("(1^9)"), 2)))
        with pytest.raises(CapExceededError):
            list(enumerate_invariant_subspaces(JordanModule(P("(1^7)"), 5)))

    def test_walk_is_lazy(self):
        # Dimension 4 alone has about 7.6e7 leaves here; the first few
        # must come without walking or storing the rest.
        module = JordanModule(P("(1^8)"), 3)
        start = time.perf_counter()
        assert len(list(islice(enumerate_invariant_subspaces(module), 5))) == 5
        # The walk yields batches: the dimension-4 bases that share their
        # three lower rows and their pivots, one per admissible top row.
        seen = [
            (len(below), len(pivots), bool(tops))
            for below, pivots, tops in islice(_invariant_bases(module, 4), 5)
        ]
        assert seen == [(3, 4, True)] * 5
        assert time.perf_counter() - start < 1.0

    def test_cap_checked_at_call(self):
        # The call raises; nothing is iterated.
        with pytest.raises(CapExceededError):
            enumerate_invariant_subspaces(JordanModule(P("(1^7)"), 5))


class TestHallNumbers:
    def test_lines_in_the_plane(self):
        assert hall_number(P("(1^2)"), P("(1)"), P("(1)"), 2) == 3

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_unique_proper_submodule(self, p):
        assert hall_number(P("(2)"), P("(1)"), P("(1)"), p) == 1

    def test_planes_in_three_space(self):
        assert hall_number(P("(1^3)"), P("(1)"), P("(1^2)"), 2) == 7

    def test_weight_mismatch_is_zero(self):
        assert hall_number(P("(2)"), P("(2)"), P("(1)"), 2) == 0

    def test_non_int_prime_rejected(self):
        for bad in (2.0, 3.0, "3"):
            with pytest.raises(ValueError, match="unsupported prime"):
                weight_cap(bad)
        with pytest.raises(ValueError, match="unsupported prime"):
            hall_number(P("(1)"), P("(1)"), ZERO, 3.0)
        with pytest.raises(ValueError, match="unsupported prime"):
            hall_number(P("(2,1)"), P("(1)"), P("(2)"), 2.0)

    def test_bad_prime_rejected_before_weight_check(self):
        with pytest.raises(ValueError, match="unsupported prime"):
            hall_number(P("(1)"), P("(1)"), P("(1)"), 4)

    def test_trivial_submodules(self):
        for n in range(5):
            for shape in partitions_of(n):
                assert hall_number(shape, shape, ZERO, 2) == 1
                assert hall_number(shape, ZERO, shape, 2) == 1

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            hall_number(P("(1^9)"), P("(1^4)"), P("(1^5)"), 2)
        with pytest.raises(CapExceededError):
            hall_number(P("(1^7)"), P("(1^3)"), P("(1^4)"), 7)

    def test_leaf_budget(self, monkeypatch):
        # Each table's walk is bounded by the bases it reaches, not only by
        # the weight; a walk past the budget leaves no table behind.
        oracle._type_tables.cache_clear()
        monkeypatch.setattr(oracle, "MAX_LEAVES", 100)
        try:
            with pytest.raises(CapExceededError, match="leaf budget of 100"):
                hall_number(P("(1^4)"), P("(1^2)"), P("(1^2)"), 3)  # 130 bases
            assert hall_number(P("(1^4)"), P("(1^3)"), P("(1)"), 3) == 40
            monkeypatch.undo()
            assert hall_number(P("(1^4)"), P("(1^2)"), P("(1^2)"), 3) == 130
        finally:
            oracle._type_tables.cache_clear()

    @pytest.mark.parametrize("p", [2, 3])
    def test_walked_half_matches_leaf_by_leaf(self, p):
        # The tables with 2k <= n are walked in batches and tallied by
        # groups of top rows; each must equal the tally built leaf by leaf.
        assert_dim_tables_match_joint(p, lambda n: range(n // 2 + 1))

    @pytest.mark.parametrize("p", [2, 3])
    def test_dual_half_matches_leaf_by_leaf(self, p):
        # The tables with 2k > n are read off their duals; each must equal
        # the tally of its own dimension built leaf by leaf.
        assert_dim_tables_match_joint(p, lambda n: range(n // 2 + 1, n + 1))

    def test_table_dim_contract(self):
        assert hall_number_table(P("(2,1)"), 2, dim=4) == {}
        with pytest.raises(ValueError):
            hall_number_table(P("(2,1)"), 2, dim=-1)
        # dim goes through operator.index before any walk.
        for bad in ("1", 1.0):
            with pytest.raises(TypeError):
                hall_number_table(P("(2,1)"), 2, dim=bad)
        assert hall_number_table(P("(2,1)"), 2, dim=True) == hall_number_table(
            P("(2,1)"), 2, dim=1
        )

    @pytest.mark.parametrize("p,max_weight", [(2, 6), (3, 6), (5, 4)])
    def test_marginals_match_birkhoff(self, p, max_weight):
        for n in range(max_weight + 1):
            for outer in partitions_of(n):
                by_sub, by_quotient = {}, {}
                for (quo, sub), count in hall_number_table(outer, p).items():
                    by_sub[sub] = by_sub.get(sub, 0) + count
                    by_quotient[quo] = by_quotient.get(quo, 0) + count
                for k in range(n + 1):
                    for nu in partitions_of(k):
                        # By duality as many submodules have quotient type nu.
                        expected = submodule_count(outer, nu, p)
                        assert by_sub.get(nu, 0) == expected, (outer, nu)
                        assert by_quotient.get(nu, 0) == expected, (outer, nu)

    @pytest.mark.parametrize(
        "p,shapes",
        [
            (7, ["(3,1)", "(2,2)", "(2,1,1)", "(1^4)"]),
            (11, ["(3,2)", "(2,2,1)"]),
            (13, ["(3,1)", "(2,2)", "(2,1,1)", "(1^3)"]),
        ],
    )
    def test_joint_tables_at_large_primes(self, p, shapes):
        # Most leaves share their classification with an earlier one at
        # these primes; the tables must still equal one built leaf by leaf.
        for text in shapes:
            outer = P(text)
            assert hall_number_table(outer, p) == joint_table(outer, p), text

    @pytest.mark.parametrize("p", [2, 3])
    def test_table_totals_match_enumeration(self, p):
        for n in range(5):
            for outer in partitions_of(n):
                total = sum(hall_number_table(outer, p).values())
                module = JordanModule(outer, p)
                assert total == sum(1 for _ in enumerate_invariant_subspaces(module))


class TestCountAllSubspaces:
    def test_plane_count(self):
        assert count_all_subspaces(2, 2) == 5

    def test_point(self):
        assert count_all_subspaces(0, 2) == 1

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            count_all_subspaces(-1, 2)

    def test_five_space(self):
        assert count_all_subspaces(5, 2) == 374


class TestGaussianBinomial:
    def test_rejects_a_q_below_two(self):
        for bad in (1, 0, -1):
            with pytest.raises(ValueError, match="at least 2"):
                gaussian_binomial(3, 1, bad)
        with pytest.raises(TypeError):
            gaussian_binomial(3, 1, 2.0)

    def test_small_values(self):
        assert gaussian_binomial(5, 2, 2) == 155
        assert gaussian_binomial(4, 2, 3) == 130
        assert gaussian_binomial(3, 0, 7) == 1
        assert gaussian_binomial(3, 4, 2) == 0

    def test_symmetry(self):
        for n in range(7):
            for k in range(n + 1):
                for q in (2, 3, 5):
                    assert gaussian_binomial(n, k, q) == gaussian_binomial(
                        n, n - k, q
                    )


def test_imports_without_numpy():
    code = "import sys, hallzero, hallzero.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
