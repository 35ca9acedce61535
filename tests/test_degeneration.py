import json
import os

import pytest

from hallzero import degeneration
from hallzero.degeneration import (
    DEFAULT_WEIGHT_CAP,
    DegPoset,
    build_poset,
    leq_deg,
    load_poset,
    moebius_row,
    partitions_of,
    poset_of,
    save_poset,
    up_set,
)
from hallzero.errors import CapExceededError
from hallzero.partitions import Partition, parse_partition

P = parse_partition


def dense(poset):
    """The zeta and Moebius matrices as lists of lists, read off the rows."""
    m = len(poset)
    z = [[poset.zeta[i] >> j & 1 for j in range(m)] for i in range(m)]
    mo = [[0] * m for _ in range(m)]
    for i, lam in enumerate(poset.elements):
        for nu, v in moebius_row(lam):
            mo[i][poset.index(nu)] = v
    return z, mo


def naive_leq(lam, nu):
    """Independent prefix-sum test with the conjugates counted elementwise."""
    assert lam.weight == nu.weight
    length = max([0] + list(lam.parts) + list(nu.parts))
    a = [sum(1 for v in lam.parts if v >= i) for i in range(1, length + 1)]
    b = [sum(1 for v in nu.parts if v >= i) for i in range(1, length + 1)]
    sa = sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa > sb:
            return False
    return True


class TestLeqDeg:
    def test_known_relation(self):
        assert leq_deg(P("(3,1^2)"), P("(2^2,1)"))

    def test_reflexive(self):
        for n in range(7):
            for p in partitions_of(n):
                assert leq_deg(p, p)

    def test_incomparable_pair(self):
        # conjugate prefix sums (2,4,6) vs (3,4,5,6) fail in both directions
        assert not leq_deg(P("(3^2)"), P("(4,1^2)"))
        assert not leq_deg(P("(4,1^2)"), P("(3^2)"))

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            leq_deg(P("(2)"), P("(2,1)"))

    def test_matches_independent_implementation(self):
        for n in range(9):
            for a in partitions_of(n):
                for b in partitions_of(n):
                    assert leq_deg(a, b) == naive_leq(a, b)


class TestEnumeration:
    def test_weight_four_order(self):
        assert [str(p) for p in partitions_of(4)] == [
            "(4)",
            "(3,1)",
            "(2^2)",
            "(2,1^2)",
            "(1^4)",
        ]

    def test_weight_zero(self):
        assert partitions_of(0) == [Partition()]

    def test_counts(self):
        assert len(partitions_of(5)) == 7
        assert len(partitions_of(8)) == 22

    def test_cap(self):
        with pytest.raises(CapExceededError):
            partitions_of(31)
        assert len(partitions_of(30)) == 5604

    def test_weight_is_a_non_negative_integer(self):
        # The weight goes through operator.index before the sign and cap
        # checks: 31.0 is not a weight above the cap, nor "3" a weight.  A
        # refused weight is refused on every call and keeps no partitions.
        kept = degeneration._partitions.cache_info().currsize
        for make in (partitions_of, DegPoset):
            for bad in (3.0, 31.0, "3"):
                with pytest.raises(TypeError):
                    make(bad)
            with pytest.raises(ValueError, match="non-negative"):
                make(-1)
            with pytest.raises(CapExceededError):
                make(DEFAULT_WEIGHT_CAP + 1)
        assert degeneration._partitions.cache_info().currsize == kept
        poset = DegPoset(True)
        assert type(poset.n) is int and poset.n == 1
        assert partitions_of(True) == partitions_of(1)

    def test_built_once_per_weight(self):
        # Every call gets a new list of the same kept Partition objects, so
        # changing one list changes no later call, and the poset shares them.
        first = partitions_of(6)
        first.reverse()
        first.append(Partition((1,)))
        again = partitions_of(6)
        assert [str(p) for p in again[:3]] == ["(6)", "(5,1)", "(4,2)"]
        assert len(again) == 11
        for same in (partitions_of(6), DegPoset(6).elements):
            assert len(same) == len(again)
            assert all(a is b for a, b in zip(same, again))

    def test_descending_lexicographic(self):
        for n in range(9):
            parts = [p.parts for p in partitions_of(n)]
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)


class TestPoset:
    def test_weight_two(self):
        poset = build_poset(2)
        assert [str(p) for p in poset.elements] == ["(2)", "(1^2)"]
        assert poset.zeta == (0b11, 0b10)
        assert moebius_row(P("(2)")) == ((P("(2)"), 1), (P("(1^2)"), -1))
        assert moebius_row(P("(1^2)")) == ((P("(1^2)"), 1),)
        assert dense(poset) == ([[1, 1], [0, 1]], [[1, -1], [0, 1]])

    def test_weight_one(self):
        poset = build_poset(1)
        assert poset.zeta == (1,)
        assert dense(poset) == ([[1]], [[1]])

    def test_row_of_3_2(self):
        got = {str(p) for p in poset_of(5).up_set(P("(3,2)"))}
        assert got == {"(3,2)", "(3,1^2)", "(2^2,1)", "(2,1^3)", "(1^5)"}

    def test_up_set_4_1(self):
        got = {str(p) for p in up_set(P("(4,1)"))}
        assert got == {"(4,1)", "(3,2)", "(3,1^2)", "(2^2,1)", "(2,1^3)", "(1^5)"}

    def test_up_set_extremes(self):
        for n in range(1, 8):
            ones = Partition((1,) * n)
            row = Partition((n,))
            assert up_set(ones) == [ones]
            assert set(up_set(row)) == set(partitions_of(n))

    def test_zeta_rows_upper_unitriangular(self):
        # The element order extends the order, as the zeta rows show: row
        # i holds bit i and no lower or outside bit.  Each up-set and each
        # Moebius row is listed in this order.
        for n in range(DEFAULT_WEIGHT_CAP + 1):
            poset = DegPoset(n)
            m = len(poset)
            assert len(poset.zeta) == m
            for i, row in enumerate(poset.zeta):
                assert row >> m == 0 and row & ((2 << i) - 1) == 1 << i, (n, i)

    def test_zeta_bits_match_independent_implementation(self):
        # The rows are the closure of the covers; each is checked whole
        # against the partial-sum test, and against the conjugate counts
        # of naive_leq while those are fast.
        for n in range(19):
            poset = poset_of(n)
            for i, lam in enumerate(poset.elements):
                expected = sum(
                    1 << j for j, nu in enumerate(poset.elements) if leq_deg(lam, nu)
                )
                assert poset.zeta[i] == expected
                if n <= 12:
                    assert expected == sum(
                        1 << j
                        for j, nu in enumerate(poset.elements)
                        if naive_leq(lam, nu)
                    )

    @pytest.mark.parametrize("n", [18, 22, 26])
    def test_moebius_rows_above_dense_range(self, n):
        # Sampled rows, built from the covers alone, against the zeta
        # rows: sum_k mu(i,k) zeta(k,j) is delta_ij over the up-set of i,
        # every entry lies in that up-set, and every value is -1 or 1
        # (Brylawski 1973, dominance lattice).
        poset = poset_of(n)
        for i in range(0, len(poset), 7):
            lam = poset.elements[i]
            row = [(poset.index(nu), v) for nu, v in moebius_row(lam)]
            assert row[0] == (i, 1)
            assert [k for k, _ in row] == sorted(k for k, _ in row)
            for k, v in row:
                assert poset.zeta[i] >> k & 1 and v in (-1, 1)
            for nu in poset.up_set(lam):
                j = poset.index(nu)
                s = sum(v for k, v in row if poset.zeta[k] >> j & 1)
                assert s == (1 if i == j else 0)

    def test_index_rejects_wrong_weight(self):
        with pytest.raises(ValueError):
            poset_of(3).index(P("(2)"))


class TestHasse:
    def test_weight_two(self):
        assert poset_of(2).hasse_edges() == [(P("(2)"), P("(1,1)"))]

    def test_weight_one(self):
        assert poset_of(1).hasse_edges() == []

    def test_weight_four_chain(self):
        edges = poset_of(4).hasse_edges()
        assert [(str(a), str(b)) for a, b in edges] == [
            ("(4)", "(3,1)"),
            ("(3,1)", "(2^2)"),
            ("(2^2)", "(2,1^2)"),
            ("(2,1^2)", "(1^4)"),
        ]

    def test_covers_match_bruteforce(self):
        for n in range(8):
            poset = poset_of(n)
            got = set(poset.hasse_edges())
            expect = set()
            for a in poset.elements:
                for b in poset.elements:
                    if a == b or not leq_deg(a, b):
                        continue
                    between = any(
                        c != a and c != b and leq_deg(a, c) and leq_deg(c, b)
                        for c in poset.elements
                    )
                    if not between:
                        expect.add((a, b))
            assert got == expect

    def test_dot_export(self, capsys, tmp_path):
        # The Graphviz export is written by `poset --dot`; its nodes are
        # the elements and its arrows the Hasse edges, both in order.
        from hallzero.cli import main

        for n in range(7):
            path = tmp_path / f"order-{n}.dot"
            assert main(["poset", str(n), "--dot", str(path)]) == 0
            capsys.readouterr()
            dot = path.read_text()
            assert dot.startswith("digraph degeneration {")
            assert "rankdir=TB;" in dot
            assert dot.rstrip().endswith("}")
            poset = poset_of(n)
            lines = dot.splitlines()[2:-1]
            assert lines == [f'  "{p}";' for p in poset.elements] + [
                f'  "{a}" -> "{b}";' for a, b in poset.hasse_edges()
            ]
            if n == 3:
                assert '"(3)";' in dot
                assert '"(3)" -> "(2,1)";' in dot
                assert '"(2,1)" -> "(1^3)";' in dot

    def test_covering_rule_matches_zeta_rows(self):
        # A cover of i is an element above i that no other element
        # strictly above i lies below.
        for n in range(21):
            poset = poset_of(n)
            expect = []
            for i, row in enumerate(poset.zeta):
                above = row & ~(1 << i)
                covered = 0
                for k in range(len(poset)):
                    if above >> k & 1:
                        covered |= poset.zeta[k] & ~(1 << k)
                expect.extend(
                    (poset.elements[i], nu)
                    for k, nu in enumerate(poset.elements)
                    if (above & ~covered) >> k & 1
                )
            assert poset.hasse_edges() == expect, n


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        cache = str(tmp_path)
        built = build_poset(6, cache_dir=cache)
        assert os.path.exists(os.path.join(cache, "degposet-6.json"))
        loaded = load_poset(6, cache)
        assert loaded.elements == built.elements
        assert loaded.zeta == built.zeta
        with open(os.path.join(cache, "degposet-6.json")) as fh:
            rows = json.load(fh)["zeta_rows"]
        assert rows == [format(row, "x") for row in built.zeta]

    def test_cached_poset_honours_cap(self, tmp_path):
        cache = str(tmp_path)
        with pytest.raises(CapExceededError):
            build_poset(31, cache_dir=cache)
        assert os.listdir(cache) == []
        # A file for a weight above the cap is refused with the same error.
        with open(os.path.join(cache, "degposet-31.json"), "w") as fh:
            json.dump(
                {"format": "degposet/1", "n": 31, "elements": [], "zeta_rows": []}, fh
            )
        with pytest.raises(CapExceededError):
            load_poset(31, cache)
        with pytest.raises(CapExceededError):
            build_poset(31, cache_dir=cache)
        assert os.listdir(cache) == ["degposet-31.json"]

    def test_no_temp_residue(self, tmp_path):
        build_poset(4, cache_dir=str(tmp_path))
        assert all(not f.endswith(".tmp") for f in os.listdir(tmp_path))

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda payload: "{not json",
            lambda payload: json.dumps(
                dict(payload, elements=[5] + payload["elements"][1:])
            ),
            lambda payload: json.dumps(
                dict(payload, zeta_rows=[0x7F] + payload["zeta_rows"][1:])
            ),
            lambda payload: json.dumps([payload]),
            # (3,1^2) no longer below (1^5): a valid shape, a wrong order.
            lambda payload: json.dumps(
                dict(
                    payload,
                    zeta_rows=[
                        format(int(row, 16) & ~(1 << 6) if i == 3 else int(row, 16), "x")
                        for i, row in enumerate(payload["zeta_rows"])
                    ],
                )
            ),
        ],
        ids=[
            "not-json",
            "non-string-element",
            "integer-zeta-row",
            "top-level-list",
            "bit-flipped-zeta-row",
        ],
    )
    def test_corrupt_cache_is_rebuilt(self, tmp_path, corrupt):
        cache = str(tmp_path)
        path = save_poset(build_poset(5), cache)
        with open(path) as fh:
            payload = json.load(fh)
        with open(path, "w") as fh:
            fh.write(corrupt(payload))
        with pytest.raises(ValueError):
            load_poset(5, cache)
        poset = build_poset(5, cache_dir=cache)
        assert len(poset) == 7
        assert P("(1^5)") in poset.up_set(P("(3,1^2)"))
        loaded = load_poset(5, cache)  # rebuilt file is valid again
        assert loaded.zeta == poset.zeta
        with open(path) as fh:
            assert fh.read() == json.dumps(payload)

    def test_matching_file_is_left_untouched(self, tmp_path):
        cache = str(tmp_path)
        path = save_poset(DegPoset(6), cache)
        before = os.stat(path)
        build_poset(6, cache_dir=cache)
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_wrong_weight_rejected(self, tmp_path):
        cache = str(tmp_path)
        save_poset(build_poset(3), cache)
        os.replace(
            os.path.join(cache, "degposet-3.json"),
            os.path.join(cache, "degposet-4.json"),
        )
        with pytest.raises(ValueError):
            load_poset(4, cache)

    def test_loaded_poset_is_usable(self, tmp_path):
        cache = str(tmp_path)
        build_poset(5, cache_dir=cache)
        loaded = build_poset(5, cache_dir=cache)
        assert isinstance(loaded, DegPoset)
        assert {str(p) for p in loaded.up_set(P("(3,2)"))} == {
            "(3,2)",
            "(3,1^2)",
            "(2^2,1)",
            "(2,1^3)",
            "(1^5)",
        }
