"""Generic extensions and direct sums, transported to partitions.

The class of the generic extension of M(a) by M(b), the extension with
the smallest endomorphism ring, is a + b; the direct sum is the multiset
union.  Both operations make the set of module classes a commutative
monoid, and conjugation swaps the two pictures.
"""

from __future__ import annotations

from .degeneration import leq_deg
from .partitions import Partition


def generic_extension(a: Partition, b: Partition) -> Partition:
    """Class of the minimal extension of M(a) by M(b) in the degeneration order."""
    return a + b


def direct_sum(a: Partition, b: Partition) -> Partition:
    """Class of M(a) + M(b), the maximal extension in the degeneration order."""
    return a.union(b)


def generic_extension_dual(a_conj: Partition, b_conj: Partition) -> Partition:
    """Generic extension computed on the conjugate side.

    The inputs are read as already-conjugated partitions; the result is
    the conjugate of the union of their conjugates, which must coincide
    with the componentwise sum a_conj + b_conj.
    """
    return a_conj.conjugate().union(b_conj.conjugate()).conjugate()


def check_extension_bound(
    middle: Partition, quotient: Partition, sub: Partition
) -> bool:
    """Prefix-sum bound satisfied by any extension of M(quotient) by M(sub).

    True iff every prefix sum of `middle` is at most the corresponding
    prefix sum of quotient + sub, that is, iff M(quotient + sub)
    degenerates to M(middle).  leq_deg raises ValueError when
    |middle| != |quotient| + |sub|.
    """
    return leq_deg(quotient + sub, middle)
