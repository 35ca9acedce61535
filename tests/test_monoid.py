import pytest

from hallzero.degeneration import partitions_of
from hallzero.monoid import (
    check_extension_bound,
    direct_sum,
    generic_extension,
    generic_extension_dual,
)
from hallzero.partitions import ZERO, Partition, parse_partition

P = parse_partition


def partitions_up_to(n):
    return [p for w in range(n + 1) for p in partitions_of(w)]


class TestGenericExtension:
    def test_known_products(self):
        assert generic_extension(P("(2,1)"), P("(2)")) == P("(4,1)")
        assert generic_extension(P("(1^3)"), P("(2)")) == P("(3,1^2)")

    def test_identity(self):
        for p in partitions_up_to(6):
            assert generic_extension(p, ZERO) == p
            assert generic_extension(ZERO, p) == p

    def test_associative(self):
        for wa in range(10):
            for wb in range(10 - wa):
                for wc in range(10 - wa - wb):
                    for a in partitions_of(wa):
                        for b in partitions_of(wb):
                            for c in partitions_of(wc):
                                assert generic_extension(
                                    generic_extension(a, b), c
                                ) == generic_extension(a, generic_extension(b, c))


class TestDirectSum:
    def test_example(self):
        assert direct_sum(P("(3^2,2,1)"), P("(2^2)")) == P("(3^2,2^3,1)")

    def test_identity(self):
        for p in partitions_up_to(6):
            assert direct_sum(p, ZERO) == p

    def test_multiset_merge(self):
        assert direct_sum(P("(2)"), P("(2)")) == P("(2^2)")


class TestDualRoute:
    def test_example(self):
        # conjugates are (2,1) and (2); their union is (2,2,1), whose
        # conjugate is (3,2)
        assert generic_extension_dual(P("(2,1)"), P("(1^2)")) == P("(3,2)")

    def test_identity(self):
        for p in partitions_up_to(6):
            assert generic_extension_dual(ZERO, p) == p

    def test_all_ones_pattern(self):
        assert generic_extension_dual(P("(1^3)"), P("(1^2)")) == P("(2^2,1)")

    def test_agrees_with_addition(self):
        for a in partitions_up_to(8):
            for b in partitions_up_to(8):
                assert generic_extension_dual(a, b) == a + b


class TestExtensionBound:
    def test_satisfied_case(self):
        # prefix sums 3,4,5 against 4,5,5
        assert check_extension_bound(P("(3,1^2)"), P("(2,1)"), P("(2)"))

    def test_equality_case(self):
        for a in partitions_up_to(4):
            for b in partitions_up_to(4):
                assert check_extension_bound(a + b, a, b)

    def test_violated_case(self):
        assert not check_extension_bound(P("(5)"), P("(2,1)"), P("(2)"))

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_extension_bound(P("(3)"), P("(2,1)"), P("(2)"))
