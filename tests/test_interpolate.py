import pickle
import time
from fractions import Fraction

import pytest

from hallzero.degeneration import partitions_of
from hallzero import interpolate
from hallzero.errors import InfeasibleError, InterpolationError
from hallzero.interpolate import (
    IntPoly,
    interpolate_hall_poly,
    n_stat,
    usable_primes,
)
from hallzero.oracle import hall_number
from hallzero.partitions import ZERO, Partition, parse_partition

P = parse_partition


class TestNStat:
    def test_examples(self):
        assert n_stat(P("(1^5)")) == 10
        assert n_stat(P("(7)")) == 0
        assert n_stat(P("(3,1^2)")) == 3

    def test_binomial_formula(self):
        # n(p) equals the sum of C(c, 2) over the conjugate parts c
        for n in range(11):
            for p in partitions_of(n):
                expected = sum(c * (c - 1) // 2 for c in p.conjugate().parts)
                assert n_stat(p) == expected


class TestIntPoly:
    def test_strips_leading_zeros(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == ()
        # In one pass, not one slice per zero.
        start = time.perf_counter()
        assert IntPoly((1,) + (0,) * 10**5).coeffs == (1,)
        assert time.perf_counter() - start < 1.0

    def test_coefficients_are_integers(self):
        # A Fraction or float is refused, never truncated to an int.
        with pytest.raises(TypeError):
            IntPoly((Fraction(1, 2), 1.9))
        with pytest.raises(TypeError):
            IntPoly((1, 2.0))
        assert IntPoly((True, 2)).coeffs == (1, 2)

    def test_value_semantics(self):
        poly = IntPoly((1, 2, 0))
        assert repr(poly) == "IntPoly(coeffs=(1, 2))"
        assert poly == IntPoly((1, 2)) and hash(poly) == hash(IntPoly((1, 2)))
        assert poly != (1, 2) and pickle.loads(pickle.dumps(poly)) == poly
        with pytest.raises(AttributeError):
            poly.coeffs = (3,)
        with pytest.raises(AttributeError):
            del poly.coeffs
        assert poly.coeffs == (1, 2)

    def test_degree(self):
        assert IntPoly((1, 2)).degree == 1
        assert IntPoly(()).degree == -1

    def test_evaluate(self):
        poly = IntPoly((-1, 0, 1))
        assert [poly(x) for x in (0, 2, 3, 5)] == [-1, 3, 8, 24]
        assert IntPoly()(7) == 0

    def test_text_form(self):
        assert str(IntPoly((-1, 0, 1))) == "-1 + 0*t + 1*t^2"
        assert str(IntPoly((1, 1))) == "1 + 1*t"
        assert str(IntPoly((2, -3))) == "2 - 3*t"
        assert str(IntPoly(())) == "0"
        assert str(IntPoly((5,))) == "5"

    def test_constant(self):
        assert IntPoly((-1, 0, 1)).constant == -1
        assert IntPoly(()).constant == 0


class TestUsablePrimes:
    def test_small_weights_get_all_primes(self):
        assert usable_primes(5) == [2, 3, 5, 7, 11, 13]

    def test_large_weights_get_small_primes(self):
        assert usable_primes(7) == [2, 3]
        assert usable_primes(8) == [2, 3]
        assert usable_primes(9) == []


class TestInterpolation:
    def test_lines_polynomial(self):
        # counts 3, 4 at p = 2, 3; validated against 6 at p = 5
        poly = interpolate_hall_poly(P("(1)"), P("(1)"), P("(1^2)"))
        assert poly.coeffs == (1, 1)

    def test_whole_module_constant_one(self):
        for n in range(5):
            for g in partitions_of(n):
                assert interpolate_hall_poly(g, ZERO, g).coeffs == (1,)

    def test_degree_two_case(self):
        poly = interpolate_hall_poly(P("(2,1)"), P("(2)"), P("(3,1^2)"))
        assert poly.coeffs == (-1, 0, 1)
        assert poly.constant == -1

    def test_degree_zero_case(self):
        poly = interpolate_hall_poly(P("(1^3)"), P("(1^2)"), P("(2^2,1)"))
        assert poly.coeffs == (1,)

    def test_degree_four_case(self):
        # all four-dimensional subspaces of a five-dimensional space
        poly = interpolate_hall_poly(P("(1)"), P("(1^4)"), P("(1^5)"))
        assert poly.coeffs == (1, 1, 1, 1, 1)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interpolate_hall_poly(P("(1)"), P("(1)"), P("(3)"))

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleError):
            interpolate_hall_poly(P("(1^2)"), P("(1^3)"), P("(1^5)"))

    def test_infeasible_weight(self):
        with pytest.raises(InfeasibleError):
            interpolate_hall_poly(P("(1^4)"), P("(1^5)"), P("(1^9)"))

    def test_non_integer_fit_rejected(self, monkeypatch):
        # Degree budget 2, so the fit runs through p = 2, 3, 5.  The counts
        # 0, 0, 1 fit only (t - 2)(t - 3) / 6, which is not integral.
        counts = {2: 0, 3: 0, 5: 1, 7: 0}
        monkeypatch.setattr(
            interpolate, "hall_number", lambda outer, quo, sub, p: counts[p]
        )
        with pytest.raises(InterpolationError, match="no integer polynomial"):
            interpolate_hall_poly(P("(2,1)"), P("(2)"), P("(3,1^2)"))

    def test_negative_budget_gives_zero(self):
        poly = interpolate_hall_poly(P("(1^3)"), P("(2)"), P("(5)"))
        assert poly.is_zero()

    def test_negative_budget_with_nonzero_count_rejected(self, monkeypatch):
        # Budget -3: the zero polynomial is fitted and p = 2 validates it.
        monkeypatch.setattr(interpolate, "hall_number", lambda *args: 1)
        with pytest.raises(InterpolationError, match="p=2"):
            interpolate_hall_poly(P("(1^3)"), P("(2)"), P("(5)"))

    def test_negative_budget_validated_at_two_primes(self, monkeypatch):
        # The zero polynomial passes at p = 2; the count at p = 3 refutes it.
        counts = {2: 0, 3: 1}
        monkeypatch.setattr(
            interpolate, "hall_number", lambda outer, quo, sub, p: counts[p]
        )
        with pytest.raises(InterpolationError, match="p=3"):
            interpolate_hall_poly(P("(1^3)"), P("(2)"), P("(5)"))


class TestConstantTermAgreement:
    def test_known_values(self):
        assert interpolate_hall_poly(P("(2,1)"), P("(2)"), P("(4,1)")).constant == 1
        assert interpolate_hall_poly(P("(2,1)"), P("(1^2)"), P("(3,2)")).constant == 1
        assert interpolate_hall_poly(P("(2,1)"), P("(1^2)"), P("(2,1^3)")).constant == 0

    def test_zero_polynomial_iff_zero_count_at_two(self):
        for w in range(6):
            for outer in partitions_of(w):
                for wq in range(w + 1):
                    for quo in partitions_of(wq):
                        for sub in partitions_of(w - wq):
                            try:
                                poly = interpolate_hall_poly(quo, sub, outer)
                            except InfeasibleError:
                                continue
                            assert poly.is_zero() == (
                                hall_number(outer, quo, sub, 2) == 0
                            )
