import re
import subprocess
import sys
import time
from collections import Counter
from itertools import islice

import pytest

from hallzero import oracle
from hallzero.degeneration import partitions_of
from hallzero.errors import CapExceededError
from hallzero.oracle import (
    JordanModule,
    _invariant_bases,
    count_all_subspaces,
    enumerate_invariant_subspaces,
    gaussian_binomial,
    hall_number,
    hall_number_table,
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


def jordan_matrix(shape):
    """The nilpotent Jordan matrix with the given block sizes, built from
    them alone: a 1 at (j, j + 1) wherever j and j + 1 lie in one block,
    so that v -> vM moves each entry one place further into its block."""
    n = shape.weight
    m = [[0] * n for _ in range(n)]
    start = 0
    for size in shape.parts:
        for j in range(start, start + size - 1):
            m[j][j + 1] = 1
        start += size
    return m


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
    powers = [mat_pow(jordan_matrix(outer), i, p) for i in range(n + 1)]
    table = {}
    for sub in enumerate_invariant_subspaces(module):
        basis = [list(row) for row in sub]
        images = [
            [
                [sum(v[t] * m[t][j] for t in range(n)) % p for j in range(n)]
                for v in basis
            ]
            for m in powers
        ]
        sub_type = jordan_type_from_ranks([rank_gf(rows, p) for rows in images])
        quo_type = jordan_type_from_ranks(
            [rank_gf(m + basis, p) - len(sub) for m in powers]
        )
        table[quo_type, sub_type] = table.get((quo_type, sub_type), 0) + 1
    return table


def walk_calls(spied_calls, outer, k, p):
    """The `_rows_with_pivot` calls that the torus walk of the dimension-k
    submodules of M(outer) itself makes, and the bases its batches stand for."""
    module = JordanModule(outer, p)
    return spied_calls(
        lambda: sum(
            oracle._bases(gens, comp, p) for _, _, (_, gens), comp in _invariant_bases(module, k)
        ),
        "_rows_with_pivot",
    )


def table_calls(spied_calls, outer, k, p):
    """The `_rows_with_pivot` calls that building the dimension-k table of
    `outer` over F_p makes, and the table, with no table or walk kept."""
    clear_tables()
    try:
        return spied_calls(lambda: oracle._type_tables(outer, k, p), "_rows_with_pivot")
    finally:
        clear_tables()


def clear_tables():
    """Drop the kept tables and the kept walks they read."""
    oracle._type_tables.cache_clear()
    oracle._tally.cache_clear()


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
    @pytest.mark.parametrize(
        "shape,depth,room,block",
        [
            ("(3,1)", (0, 1, 2, 0), (2, 1, 0, 0), (0, 0, 0, 1)),
            ("(2,2,1)", (0, 1, 0, 1, 0), (1, 0, 1, 0, 0), (0, 0, 1, 1, 2)),
        ],
    )
    def test_coordinate_tables(self, shape, depth, room, block):
        # Each coordinate's place in its block, the places after it, and
        # the block's index: all the walk reads of the operator.
        module = JordanModule(P(shape), 3)
        assert (module.depth, module.room, module.block) == (depth, room, block)


class TestEnumeration:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chain_module(self, p):
        subs = list(enumerate_invariant_subspaces(JordanModule(P("(2)"), p)))
        assert len(subs) == 3

    def test_zero_module(self):
        subs = list(enumerate_invariant_subspaces(JordanModule(ZERO, 2)))
        assert subs == [()]

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
            module, matrix = JordanModule(shape, 3), jordan_matrix(shape)
            for sub in enumerate_invariant_subspaces(module):
                rows = [list(r) for r in sub]
                assert rank_gf(rows, 3) == len(sub)
                pivots = [next(j for j, v in enumerate(r) if v) for r in rows]
                assert list(pivots) == sorted(pivots)
                for row in rows:
                    # The operator acts on row vectors by v -> vM.
                    image = [
                        sum(row[i] * matrix[i][j] for i in range(len(row))) % 3
                        for j in range(len(row))
                    ]
                    assert rank_gf(rows + [image], 3) == len(sub)

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
        # three lower rows and their pivots, with the affine space of their
        # top rows, whose base row is 1 at the top pivot.
        seen = [
            (len(below), len(pivots), base[pivots[0]])
            for below, pivots, (base, _), _ in islice(_invariant_bases(module, 4), 5)
        ]
        assert seen == [(3, 4, 1)] * 5
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "shape,p",
        [(s, p) for s in ["(2,1^3)", "(2,2,1)", "(3,1,1)", "(1^4)", "(2^3)"] for p in [5, 7]]
        + [(s, p) for s in ["(1^3)", "(2,1,1)", "(2,2)"] for p in [11, 13]],
    )
    def test_orbits_expand_to_every_basis_once(self, shape, p):
        # The stream walks without the torus, keeping every lower row, as
        # over F_2: every basis must come exactly once, in reduced echelon
        # form and invariant, as many in each dimension as Birkhoff's count.
        # In (2^3) some top rows' generators reach into two blocks, and
        # p = 11 and 13 give the lower rows more nonzero entries to take.
        outer = P(shape)
        module = JordanModule(outer, p)
        n, matrix = module.dim, jordan_matrix(outer)
        subs = list(enumerate_invariant_subspaces(module))
        assert len(subs) == len(set(subs))
        by_dim = Counter(map(len, subs))
        for k in range(n + 1):
            assert by_dim[k] == sum(submodule_count(outer, nu, p) for nu in partitions_of(k))
        for sub in subs:
            pivots = [next(j for j, v in enumerate(row) if v) for row in sub]
            assert pivots == sorted(set(pivots))
            for x, c in enumerate(pivots):
                assert [row[c] for row in sub] == [int(y == x) for y in range(len(sub))]
            for row in sub:
                # The image vM lies in the span: it is the sum of the rows
                # times its entries at their pivots.
                image = [sum(row[i] * matrix[i][j] for i in range(n)) % p for j in range(n)]
                combo = [
                    sum(image[c] * other[j] for c, other in zip(pivots, sub)) % p
                    for j in range(n)
                ]
                assert image == combo

    def test_stream_keeps_every_lower_row(self, monkeypatch):
        # The stream never picks torus representatives, so it needs no
        # orbit bookkeeping to come out whole.
        def refuse(*args):
            raise AssertionError("the stream picked torus representatives")

        monkeypatch.setattr(oracle, "_representatives", refuse)
        outer = P("(2^3)")
        by_dim = Counter(map(len, enumerate_invariant_subspaces(JordanModule(outer, 7))))
        for k in range(7):
            assert by_dim[k] == sum(submodule_count(outer, nu, 7) for nu in partitions_of(k))

    def test_cap_checked_at_call(self):
        # The call raises; nothing is iterated.
        with pytest.raises(CapExceededError):
            enumerate_invariant_subspaces(JordanModule(P("(1^7)"), 5))

    def test_leaf_budget_bounds_every_walk(self, monkeypatch):
        # The budget is kept by the walk itself, so the stream and
        # count_all_subspaces stop where hall_number does: in dimension 2,
        # whose 130 bases pass a budget of 100.
        monkeypatch.setattr(oracle, "MAX_LEAVES", 100)
        budget = "dimension-2 .* leaf budget of 100 bases"
        with pytest.raises(CapExceededError, match=budget):
            list(enumerate_invariant_subspaces(JordanModule(P("(1^4)"), 3)))
        with pytest.raises(CapExceededError, match=budget):
            count_all_subspaces(4, 3)
        monkeypatch.undo()
        assert count_all_subspaces(4, 3) == 1 + 40 + 130 + 40 + 1


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
        # Each table is bounded by the submodules it counts, not only by
        # the weight: (1^4) walks nothing, as it has no block of size >= 2,
        # but a total past the budget raises and leaves no table behind.
        clear_tables()
        monkeypatch.setattr(oracle, "MAX_LEAVES", 100)
        try:
            with pytest.raises(CapExceededError, match="leaf budget of 100"):
                hall_number(P("(1^4)"), P("(1^2)"), P("(1^2)"), 3)  # 130 bases
            assert hall_number(P("(1^4)"), P("(1^3)"), P("(1)"), 3) == 40
            monkeypatch.undo()
            assert hall_number(P("(1^4)"), P("(1^2)"), P("(1^2)"), 3) == 130
        finally:
            clear_tables()

    def test_walk_lists_only_followed_lower_rows(self, spied_calls):
        # In (2,1^3) a top row with pivot 0 maps to e_1, so of the 13^3
        # lower rows with pivot 1 only e_1 admits one.  Listing every lower
        # row and trying every top pivot under it takes 2,582 calls here,
        # listing the followed ones without the torus 392, and with it 23;
        # one row per torus orbit with no filter on them takes 30.
        outer = P("(2,1^3)")
        calls, bases = walk_calls(spied_calls, outer, 2, 13)
        assert len(calls) == 23
        assert bases == sum(submodule_count(outer, nu, 13) for nu in partitions_of(2))

    def test_walk_lists_one_lower_row_per_torus_orbit(self, spied_calls):
        # (2,1^4) has five blocks, so a lower row with entries in several
        # of them stands for up to 12^4 rows at p = 13; listing every row
        # that some top row can follow takes 67,762 calls here, and one row
        # per torus orbit 145.
        outer = P("(2,1^4)")
        calls, bases = walk_calls(spied_calls, outer, 3, 13)
        assert len(calls) <= 200
        assert bases == sum(submodule_count(outer, nu, 13) for nu in partitions_of(3))

    def test_tables_walk_only_the_blocks_above_one(self, spied_calls):
        # M = N + S, S the blocks of size 1: the table of (2,1^5) walks
        # only N = (2) and counts the rest of its 1,891 submodules.
        outer = P("(2,1^5)")
        calls, table = table_calls(spied_calls, outer, 3, 2)
        assert {module.shape for module, _, _ in calls} == {P("(2)")}
        assert sum(table.values()) == sum(
            submodule_count(outer, nu, 2) for nu in partitions_of(3)
        ) == 1891

    def test_shape_without_ones_walks_unsplit(self, spied_calls):
        # No block of size 1, so nothing is split off: the table walks M
        # itself, (4,2) in exactly the 32 calls it took before the split.
        # (2^3) pins the filter on the rows under a top pivot 0: without
        # it the walk takes 75 calls.
        for shape, k, p, count, total in (("(4,2)", 3, 3, 32, 13), ("(2^3)", 3, 13, 58, 33307)):
            outer = P(shape)
            calls, table = table_calls(spied_calls, outer, k, p)
            assert len(calls) == count, shape
            assert {module.shape for module, _, _ in calls} == {outer}
            assert sum(table.values()) == total

    def test_shapes_with_the_same_blocks_above_one_share_their_walks(self, spied_calls):
        # (2^2,1) and (2^2,1^2) both split off N = (2^2).  The dimension-2
        # table of the first walks N at k' = 2 and 1, the second needs N at
        # k' = 2, 1 and 0, and k' = 0 walks nothing: it reads kept walks only.
        clear_tables()
        try:
            hall_number_table(P("(2^2,1)"), 3, dim=2)
            outer = P("(2^2,1^2)")
            calls, table = spied_calls(
                lambda: hall_number_table(outer, 3, dim=2), "_rows_with_pivot"
            )
            assert calls == []
            fresh_calls, fresh = table_calls(spied_calls, outer, 2, 3)
            assert fresh_calls and table == fresh
        finally:
            clear_tables()

    def test_leaf_budget_on_the_split(self, monkeypatch):
        # Both raise naming M and the walked dimension: (2,1^3) has 157
        # dimension-2 submodules at p = 3, though its walks of N = (2)
        # yield one basis each; the dimension-2 walk of N = (2^2) inside
        # the dimension-3 table of (2^2,1^2) yields 13 bases itself.
        clear_tables()
        monkeypatch.setattr(oracle, "MAX_LEAVES", 10)
        try:
            for shape, k in (("(2,1^3)", 2), ("(2^2,1^2)", 3)):
                budget = rf"dimension-{k} submodules of M{re.escape(shape)} .* budget of 10"
                with pytest.raises(CapExceededError, match=budget):
                    hall_number_table(P(shape), 3, dim=k)
            monkeypatch.undo()
            assert sum(hall_number_table(P("(2,1^3)"), 3, dim=2).values()) == 157
            assert sum(hall_number_table(P("(2^2,1^2)"), 3, dim=3).values()) == 508
        finally:
            clear_tables()

    @pytest.mark.parametrize(
        "shape,k", [("(2,1^3)", 2), ("(2,2,1)", 2), ("(1^4)", 2), ("(2,1^4)", 3)]
    )
    def test_batch_weights_count_every_basis(self, shape, k):
        # A batch stands for its orbit under the torus (F_13^x)^l, of size
        # 12^(l - number of components), each member with as many top rows.
        outer = P(shape)
        bases = sum(
            12 ** (len(comp) - len(set(comp))) * 13 ** len(gens)
            for _, _, (_, gens), comp in _invariant_bases(JordanModule(outer, 13), k)
        )
        assert bases == sum(submodule_count(outer, nu, 13) for nu in partitions_of(k))

    def test_torus_walk_over_f2_is_the_plain_walk(self):
        # Over F_2 every nonzero entry is 1, so the torus representatives
        # are every row listed: the torus walk's batches are the plain
        # walk's, in the same order, and each stands for itself alone.
        for n in range(7):
            for shape in partitions_of(n):
                module = JordanModule(shape, 2)
                for k in range(n + 1):
                    batches = list(_invariant_bases(module, k))
                    plain = list(_invariant_bases(module, k, torus=False))
                    assert [b[:3] for b in batches] == [b[:3] for b in plain]
                    assert all(oracle._orbit_size(comp, 2) == 1 for *_, comp in batches)

    @pytest.mark.parametrize("p", [2, 3])
    def test_walked_half_matches_leaf_by_leaf(self, p):
        # The tables with 2k <= n walk the blocks of size >= 2 in batches
        # whose top rows are counted by their flags, and count the blocks
        # of size 1 in closed form; each must equal the tally built leaf
        # by leaf.
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

    @pytest.mark.parametrize(
        "p,max_weight", [(2, 6), (3, 6), (5, 6), (7, 6), (11, 5), (13, 5)]
    )
    def test_marginals_match_birkhoff(self, p, max_weight):
        # At weight 6 this reaches (2,1^4) and (2,2,1,1), whose tables walk
        # only (2) and (2,2), and (1^6), whose tables walk nothing.
        for n in range(max_weight + 1):
            for outer in partitions_of(n):
                for k in range(n + 1):
                    # The table of dimension min(k, n - k) counts every
                    # submodule, and raises once they pass the leaf budget.
                    walked = min(k, n - k)
                    bases = sum(submodule_count(outer, nu, p) for nu in partitions_of(walked))
                    if bases > oracle.MAX_LEAVES:
                        with pytest.raises(CapExceededError, match="leaf budget"):
                            hall_number_table(outer, p, dim=k)
                        continue
                    by_sub, by_quotient = {}, {}
                    for (quo, sub), count in hall_number_table(outer, p, dim=k).items():
                        by_sub[sub] = by_sub.get(sub, 0) + count
                        by_quotient[quo] = by_quotient.get(quo, 0) + count
                    # By duality as many submodules have quotient type nu
                    # as have sub type nu.
                    for nu in partitions_of(k):
                        expected = submodule_count(outer, nu, p)
                        assert by_sub.get(nu, 0) == expected, (outer, nu)
                    for nu in partitions_of(n - k):
                        expected = submodule_count(outer, nu, p)
                        assert by_quotient.get(nu, 0) == expected, (outer, nu)

    @pytest.mark.parametrize(
        "p,shapes",
        [
            (7, ["(3,1)", "(2,2)", "(2,1,1)", "(1^4)", "(2,1^3)"]),
            (11, ["(3,2)", "(2,2,1)"]),
            (13, ["(3,1)", "(2,2)", "(2,1,1)", "(1^3)"]),
        ],
    )
    def test_joint_tables_at_large_primes(self, p, shapes):
        # At these primes a batch holds up to hundreds of top rows, which are
        # counted, not listed; the tables must equal one built leaf by leaf.
        # (2,1^3) and (2,1,1) walk only (2), and (1^4) and (1^3) nothing.
        for text in shapes:
            outer = P(text)
            assert hall_number_table(outer, p) == joint_table(outer, p), text

    @pytest.mark.parametrize("shape,p", [("(3,1^3)", 3), ("(3,1^2)", 5), ("(3,2,1)", 5)])
    def test_split_tables_match_leaf_by_leaf(self, shape, p):
        # Each count of a walked submodule of N = (3) or (3,2) expands over
        # the subspaces K of the blocks of size 1 and the maps f by their
        # ranks; the tables must equal one built leaf by leaf.
        outer = P(shape)
        assert hall_number_table(outer, p) == joint_table(outer, p)

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

    def test_dimension_is_an_integer(self):
        with pytest.raises(TypeError, match="integer"):
            count_all_subspaces(2.0, 2)

    def test_five_space(self):
        assert count_all_subspaces(5, 2) == 374

    def test_counts_batches_without_streaming(self, monkeypatch):
        # The count adds up the sizes of the torus walk's batches, so F_13^5
        # takes milliseconds, not the seconds of listing its bases.
        def refuse(*args):
            raise AssertionError("count_all_subspaces streamed the bases")

        monkeypatch.setattr(oracle, "enumerate_invariant_subspaces", refuse)
        assert count_all_subspaces(5, 13) == 10581824
        assert count_all_subspaces(4, 3) == 212

    @pytest.mark.parametrize("p", oracle.SUPPORTED_PRIMES)
    def test_matches_gaussian_binomials(self, p):
        for n in range(5 if p > 3 else 7):
            expected = sum(gaussian_binomial(n, k, p) for k in range(n + 1))
            assert count_all_subspaces(n, p) == expected, n

    def test_cap_checked_before_the_module_is_built(self):
        # A huge n must raise the cap error at once, not build a module of
        # that dimension first.
        with pytest.raises(CapExceededError, match="enumeration cap 8 for p=2"):
            count_all_subspaces(2 * 10**6, 2)


class TestGaussianBinomial:
    def test_rejects_a_q_below_two(self):
        for bad in (1, 0, -1):
            with pytest.raises(ValueError, match="at least 2"):
                gaussian_binomial(3, 1, bad)
        with pytest.raises(TypeError):
            gaussian_binomial(3, 1, 2.0)

    def test_dimensions_are_integers(self):
        # A float n would turn the exact count into the float 155.0.
        for n, k in ((5.0, 2), (5, 2.0)):
            with pytest.raises(TypeError):
                gaussian_binomial(n, k, 2)

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
