import copy
import gc
import pickle
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hallzero.partitions import (
    MAX_WEIGHT,
    ZERO,
    Partition,
    PartitionParseError,
    _parsed,
    parse_partition,
)


def all_partitions(n):
    # local enumeration so these tests do not depend on hallzero.degeneration
    out = []

    def emit(remaining, largest, prefix):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for v in range(min(remaining, largest), 0, -1):
            emit(remaining - v, v, prefix + [v])

    emit(n, n, [])
    return out


def partitions_up_to(n):
    return [p for w in range(n + 1) for p in all_partitions(w)]


class TestConstruction:
    def test_strips_trailing_zeros(self):
        assert Partition([3, 3, 2, 1, 0, 0]).parts == (3, 3, 2, 1)
        # In one pass, not one slice per zero.
        start = time.perf_counter()
        assert Partition((3,) + (0,) * 10**5).parts == (3,)
        assert time.perf_counter() - start < 1.0

    def test_empty_is_zero(self):
        assert Partition([]).parts == ()
        assert Partition([]) == ZERO
        assert not Partition([])

    def test_all_zeros(self):
        assert Partition([0, 0, 0]) == ZERO

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_interior_zero(self):
        with pytest.raises(ValueError):
            Partition([3, 0, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition([3, -1])

    def test_rejects_oversized_part(self):
        assert Partition([MAX_WEIGHT]).weight == MAX_WEIGHT
        with pytest.raises(ValueError, match="exceeds the bound"):
            Partition([MAX_WEIGHT + 1])

    def test_rejects_overweight(self):
        # The bound is on the weight, not on each part.
        with pytest.raises(ValueError, match="exceeds the bound"):
            Partition((MAX_WEIGHT // 2 + 1, MAX_WEIGHT // 2))

    def test_from_multiset_sorts(self):
        assert Partition.from_multiset([1, 3, 2, 3]).parts == (3, 3, 2, 1)

    def test_parts_are_integers(self):
        # Parts go through operator.index: True is 1, a float is refused.
        ones = Partition((True, True))
        assert ones == Partition((1, 1)) and str(ones) == "(1^2)"
        assert all(type(v) is int for v in ones.parts)
        with pytest.raises(TypeError):
            Partition((1.5,))
        with pytest.raises(TypeError):
            Partition((2.0, 1))

    def test_equality_and_hash(self):
        assert Partition([2, 1, 0]) == Partition([2, 1])
        assert hash(Partition([2, 1, 0])) == hash(Partition([2, 1]))
        # Equal only to partitions, never to a bare tuple of parts.
        assert Partition((2, 1)) != (2, 1) and (2, 1) != Partition((2, 1))

    def test_immutable(self):
        p = Partition((2, 1))
        with pytest.raises(AttributeError):
            p.parts = (3,)
        with pytest.raises(AttributeError):
            del p.parts
        with pytest.raises(AttributeError):
            p.weight = 4
        with pytest.raises(AttributeError):
            del p.weight
        with pytest.raises(AttributeError):
            p.extra = 1
        assert p.parts == (2, 1) and p.weight == 3
        back = pickle.loads(pickle.dumps(p))
        assert back == p and back.weight == 3


class TestWeight:
    def test_examples(self):
        assert Partition([3, 3, 2, 1]).weight == 9
        assert ZERO.weight == 0
        assert Partition([5, 5, 2, 1]).weight == 13


class TestConjugate:
    def test_example(self):
        assert Partition([3, 3, 2, 1]).conjugate() == Partition([4, 3, 2])

    def test_row_to_column(self):
        assert Partition([4]).conjugate() == Partition([1, 1, 1, 1])

    def test_zero(self):
        assert ZERO.conjugate() == ZERO

    def test_linear_time(self):
        # Time proportional to parts[0] + len(parts), not their product.
        start = time.perf_counter()
        conj = parse_partition("(20000,1^20000)").conjugate()
        assert str(conj) == "(20001,1^19999)"
        assert time.perf_counter() - start < 1.0

    def test_involution_exhaustive(self):
        for p in partitions_up_to(8):
            assert p.conjugate().conjugate() == p
            assert p.conjugate().weight == p.weight


class TestAddAndUnion:
    def test_add_example(self):
        assert Partition([3, 3, 2, 1]) + Partition([2, 2]) == Partition([5, 5, 2, 1])

    def test_add_identity(self):
        for p in partitions_up_to(8):
            assert p + ZERO == p
            assert ZERO + p == p

    def test_add_componentwise(self):
        assert Partition([1, 1, 1]) + Partition([1, 1]) == Partition([2, 2, 1])

    def test_union_example(self):
        assert Partition([3, 3, 2, 1]).union(Partition([2, 2])) == Partition(
            [3, 3, 2, 2, 2, 1]
        )

    def test_union_identity(self):
        for p in partitions_up_to(6):
            assert p.union(ZERO) == p

    def test_union_reorders(self):
        assert Partition([2]).union(Partition([3])) == Partition([3, 2])

    def test_weight_additive(self):
        for a in partitions_up_to(5):
            for b in partitions_up_to(5):
                assert (a + b).weight == a.weight + b.weight
                assert a.union(b).weight == a.weight + b.weight

    def test_commutative(self):
        for a in partitions_up_to(8):
            for b in partitions_up_to(8):
                assert a + b == b + a
                assert a.union(b) == b.union(a)

    def test_associative(self):
        triples = [
            (a, b, c)
            for a in partitions_up_to(4)
            for b in partitions_up_to(4)
            for c in partitions_up_to(4)
            if a.weight + b.weight + c.weight <= 8
        ]
        for a, b, c in triples:
            assert (a + b) + c == a + (b + c)
            assert a.union(b).union(c) == a.union(b.union(c))

    def test_duality(self):
        for a in partitions_up_to(6):
            for b in partitions_up_to(6):
                assert a.union(b).conjugate() == a.conjugate() + b.conjugate()


class TestText:
    def test_parse_exponent_example(self):
        assert parse_partition("(3^2,2^3,1^4)") == Partition(
            [3, 3, 2, 2, 2, 1, 1, 1, 1]
        )

    def test_parse_zero_forms(self):
        assert parse_partition("0") == ZERO
        assert parse_partition("()") == ZERO

    def test_parse_comma(self):
        assert parse_partition("2,1") == Partition([2, 1])
        assert parse_partition("5") == Partition([5])
        assert parse_partition("3,0") == Partition([3])

    def test_parse_plain_parens(self):
        assert parse_partition("(3,1,1)") == Partition([3, 1, 1])

    def test_parse_zero_multiplicity(self):
        assert parse_partition("(3,2^0)") == Partition([3])
        assert parse_partition(f"(3,0^{MAX_WEIGHT})") == Partition([3])

    def test_format(self):
        assert str(Partition([3, 3, 2, 2, 2, 1, 1, 1, 1])) == "(3^2,2^3,1^4)"
        assert str(Partition([4, 1])) == "(4,1)"
        assert str(ZERO) == "()"
        assert str(Partition([5])) == "(5)"

    def test_round_trip_exhaustive(self):
        shapes = partitions_up_to(10)
        pairs = [(str(p), p) for p in shapes]
        pairs += [(",".join(map(str, p.parts)), p) for p in shapes if p]
        held = [parse_partition(text) for text, _ in pairs]
        assert held == [p for _, p in pairs]
        # While the first results are held, equal texts give those objects.
        assert all(parse_partition(text) is q for (text, _), q in zip(pairs, held))

    def test_equal_texts_share_one_object_while_held(self):
        first = parse_partition("(3,1^2)")
        assert parse_partition("(3,1^2)") is first
        # Another spelling is another text: equal, but parsed on its own.
        assert parse_partition("3,1,1") == first
        assert parse_partition("()") is ZERO

    def test_invalid_text_is_reported_every_time_and_not_kept(self):
        before = dict(_parsed)
        for _ in range(3):
            with pytest.raises(PartitionParseError) as err:
                parse_partition("(3,,1)")
            assert err.value.position == 3
        assert dict(_parsed) == before

    def test_memo_keeps_no_partition_alive(self):
        text = f"(1^{MAX_WEIGHT})"
        big = parse_partition(text)
        assert big.weight == MAX_WEIGHT and _parsed.get(text) is big
        gone = weakref.ref(big)
        del big
        gc.collect()
        assert gone() is None
        assert text not in _parsed

    @pytest.mark.parametrize(
        "value,name",
        [(None, "NoneType"), (31, "int"), ([3, 1], "list"), (b"(3)", "bytes")],
    )
    def test_non_str_raises_type_error(self, value, name):
        with pytest.raises(TypeError, match=f"must be a str, not {name}$"):
            parse_partition(value)

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("1,2", 2),
            ("(1,2)", 3),
            ("3,,1", 2),
            ("(3,", 3),
            ("(3^)", 3),
            ("3, 1", 2),
            (" 3", 0),
            ("(3)x", 3),
            ("abc", 0),
            ("3)", 1),
            ("(3", 2),
            ("()x", 2),
            # Over MAX_WEIGHT, reported at the term that crosses it
            # before the term is expanded.
            (f"(3,1^{MAX_WEIGHT})", 3),
            (f"(2,1^{10**12})", 3),
            (f"{MAX_WEIGHT},1", 8),
            # A number above MAX_WEIGHT, or with more digits than it has,
            # is refused at the start of its term, zero parts included.
            pytest.param("0" * 4999 + "1", 0, id="5000-digits"),
            ("(3,0^1000000000000)", 3),
            ("(99999999^0)", 1),
        ],
    )
    def test_parse_errors_carry_position(self, text, position):
        with pytest.raises(PartitionParseError) as err:
            parse_partition(text)
        assert (err.value.text, err.value.position) == (text, position)
        assert f"position {position}" in str(err.value)
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize(
        "text,position",
        [("(3,,1)", 3), pytest.param("1," * 1250 + "x" + "1" * 2499, 2500, id="5000-chars")],
    )
    @pytest.mark.parametrize(
        "clone",
        [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_parse_error_survives_pickle_and_copy(self, text, position, clone):
        # The long text is quoted only around its position, so the message
        # alone could not give the text back.
        with pytest.raises(PartitionParseError) as err:
            parse_partition(text)
        got = clone(err.value)
        assert type(got) is PartitionParseError
        assert (str(got), got.text, got.position) == (str(err.value), text, position)
        assert len(str(got)) < 200


def partitions(max_part):
    return st.lists(st.integers(1, max_part), max_size=12).map(Partition.from_multiset)


# Fixed examples, no example database: the same cases on every run.
fixed = settings(derandomize=True, database=None)


class TestProperties:
    """The exhaustive tests above stop at small weights; these draw up to
    12 parts, each up to a twelfth of MAX_WEIGHT for the parser (so the
    weight stays within the bound) and up to 40 elsewhere."""

    @fixed
    @given(partitions(MAX_WEIGHT // 12))
    def test_parser_round_trip(self, p):
        assert parse_partition(str(p)) == p
        assert parse_partition(",".join(map(str, p.parts)) or "0") == p

    @fixed
    @given(partitions(40))
    def test_conjugation_is_an_involution(self, p):
        assert p.conjugate().conjugate() == p

    @fixed
    @given(partitions(40), partitions(40))
    def test_conjugation_exchanges_sum_and_union(self, a, b):
        assert (a + b).conjugate() == a.conjugate().union(b.conjugate())
