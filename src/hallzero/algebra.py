"""The degenerate Hall algebra on partition-indexed basis symbols.

The algebra has one basis symbol u_p per partition p, and the structure
constant on u_target in u_left * u_right is the constant term of the
corresponding classical Hall polynomial.  Products are taken in the
basis {f_map(s)}, where f_map(a) * f_map(b) = f_map(a + b): take both
factors to f-coordinates by their sparse Moebius rows, add parts tuples
pairwise once, and add each sum's coefficient along its whole zeta row
at once, into the two's complement bit planes of its weight's
coefficients by a ripple-carry adder on whole rows.  This is the
unitriangular back-substitution along the degeneration order, which is
read only through `_leq_sums`, `moebius_row` and the zeta rows.  A
Moebius row is computed from the covers of its partition, so a single
constant term, which compares partial sums of the parts with the
target's instead of listing an up-set, builds no poset at all.  Each
pair of basis factors is folded once per process for constant terms,
and its folded terms are kept with their partial sums; `h0_multiply`
folds its general elements on its own.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache, reduce
from itertools import accumulate
from operator import add, index, or_

from .degeneration import _leq_sums, _select, moebius_row, poset_of, up_set
from .partitions import Partition

Term = tuple[Partition, int]


def canonical_key(p: Partition) -> tuple[int, tuple[int, ...]]:
    """Sort key: by weight, then descending lexicographic."""
    return (p.weight, tuple(-v for v in p.parts))


class H0Element:
    """Formal integer linear combination of basis symbols u_p.

    Coefficients go through operator.index, so a float or Fraction raises
    TypeError and True counts as 1.  A key that is not a Partition raises
    TypeError too."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: "Mapping[Partition, int] | Iterable[tuple[Partition, int]]" = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Partition, int] = {}
        for part, coeff in items:
            if not isinstance(part, Partition):
                raise TypeError(f"basis key {part!r} is not a Partition")
            acc[part] = acc.get(part, 0) + index(coeff)
        self._terms = {p: c for p, c in acc.items() if c}

    @classmethod
    def basis(cls, p: Partition) -> "H0Element":
        return cls({p: 1})

    def coefficient(self, p: Partition) -> int:
        return self._terms.get(p, 0)

    def items(self) -> list[tuple[Partition, int]]:
        """Terms sorted in the canonical partition order."""
        return sorted(self._terms.items(), key=lambda kv: canonical_key(kv[0]))

    def support(self) -> set[Partition]:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, H0Element):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "H0Element") -> "H0Element":
        if not isinstance(other, H0Element):
            return NotImplemented
        return H0Element(list(self._terms.items()) + list(other._terms.items()))

    def __neg__(self) -> "H0Element":
        return H0Element({p: -c for p, c in self._terms.items()})

    def __sub__(self, other: "H0Element") -> "H0Element":
        if not isinstance(other, H0Element):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar: int) -> "H0Element":
        if not isinstance(scalar, int):
            return NotImplemented
        return H0Element({p: scalar * c for p, c in self._terms.items()})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for p, c in self.items():
            mag = f"u{p}" if abs(c) == 1 else f"{abs(c)}*u{p}"
            if not chunks:
                chunks.append(mag if c > 0 else f"-{mag}")
            else:
                chunks.append(f"+ {mag}" if c > 0 else f"- {mag}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"H0Element({dict(self.items())!r})"

    def to_json_terms(self) -> list[dict]:
        return [{"partition": str(p), "coeff": c} for p, c in self.items()]


def f_map(alpha: Partition) -> H0Element:
    """Image of the module class M(alpha): the sum of u_b over everything
    alpha degenerates to, all coefficients 1."""
    return H0Element({b: 1 for b in up_set(alpha)})


def f_inverse(x: H0Element) -> H0Element:
    """Coordinates of x in the embedded module basis {f_map(b)}: f_map
    inverted by Moebius inversion, one term at a time, in no order."""
    out: dict[Partition, int] = {}
    for p, c in x._terms.items():
        for b, v in moebius_row(p):
            out[b] = out.get(b, 0) + c * v
    return H0Element(out)


def _fold(left: Iterable[Term], right: Iterable[Term]) -> dict[tuple[int, ...], int]:
    """The product of two elements given by their (partition, coefficient)
    coordinates in the basis {f_map(s)}, keyed by the parts tuple of s:
    zero-padded parts add pairwise, and a sum of partitions needs no check."""
    right = [(b.parts, cb) for b, cb in right]
    folded: dict[tuple[int, ...], int] = {}
    for a, ca in left:
        a = a.parts
        for b, cb in right:
            s = tuple(map(add, a, b)) + a[len(b) :] + b[len(a) :]
            folded[s] = folded.get(s, 0) + ca * cb
    return folded


@lru_cache(maxsize=None)
def _pair(left: Partition, right: Partition) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The nonzero folded terms of u_left * u_right in the basis {f_map(s)},
    each as the partial sums of s with its coefficient: one fold per pair."""
    folded = _fold(moebius_row(left), moebius_row(right)).items()
    return tuple((tuple(accumulate(s)), g) for s, g in folded if g)


def constant_term(left: Partition, right: Partition, target: Partition) -> int:
    """Constant term of the Hall polynomial for (left, right, target).

    This is the coefficient of u_target in u_left * u_right: the sum of
    the folded coefficients on the partitions that degenerate to target.
    The pair's folded terms are kept, so each pair is folded once per
    process.  Weight mismatches return 0, matching the grading of the
    algebra, and fold nothing.
    """
    if left.weight + right.weight != target.weight:
        return 0
    target_sums = tuple(accumulate(target.parts))
    return sum(g for sums, g in _pair(left, right) if _leq_sums(sums, target_sums))


def h0_multiply(x: H0Element, y: H0Element) -> H0Element:
    """Bilinear product of two algebra elements, taken in the basis
    {f_map(s)}: one fold of both factors, then each nonzero folded term
    adds its coefficient along its whole zeta row at once.  A weight's
    coefficients, indexed like that poset's elements, are kept as bit
    planes in two's complement, plane k holding bit k of every
    coefficient, and a term is added to them by a ripple-carry adder on
    whole rows.  Only the positions set in some plane are decoded."""
    groups: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    # The fold adds terms in no particular order, so it takes them unsorted.
    for s, g in _fold(f_inverse(x)._terms.items(), f_inverse(y)._terms.items()).items():
        if g:
            groups.setdefault(sum(s), []).append((s, g))
    terms: list[Term] = []
    for n, group in groups.items():
        poset = poset_of(n)
        # Every partial sum lies within the sum of |g|, so one bit more
        # than that sum needs holds it with its sign.
        width = sum(abs(g) for _, g in group).bit_length() + 1
        planes = [0] * width
        for s, g in group:
            row, carry = poset.zeta[poset._index[s]], 0
            for k, a in enumerate(planes):
                b = row if g >> k & 1 else 0
                planes[k] = a ^ b ^ carry
                carry = a & b | carry & (a ^ b)
        for j in _select(range(len(poset)), reduce(or_, planes)):
            c = sum((plane >> j & 1) << k for k, plane in enumerate(planes))
            terms.append((poset.elements[j], c - (c >> (width - 1) << width)))
    return H0Element(terms)
