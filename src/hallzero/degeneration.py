"""The degeneration order on partitions of a fixed weight.

M(lam) degenerates to M(nu) exactly when every prefix sum of the
conjugate of lam is bounded by the corresponding prefix sum of the
conjugate of nu.  Conjugation reverses the dominance order (Macdonald,
Symmetric Functions and Hall Polynomials, Ch. I, (1.11)), so this is the
same as: no partial sum nu_1 + ... + nu_k of the parts of nu exceeds the
partial sum lam_1 + ... + lam_k of lam.  Two partitions are compared
only in that partial-sum form (`leq_deg`); under it the generic
extension a + b is the sum of partial-sum vectors.

Every poset structure comes from the covers of Brylawski's rule (The
lattice of integer partitions, 1973; see `_covers`).  The poset of
weight n is built from n alone; its zeta matrix is one int bitset per
row (the rows the disk cache writes in hex), each the closure of the
covers, and its Hasse edges are the covers.  `moebius_row(lam)` needs no
poset: it reads the covers of lam alone, since the join of two
partitions is the pointwise minimum of their partial sums.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import lru_cache
from itertools import accumulate, compress
from operator import ge, index
from typing import Iterable, Sequence

from .errors import CapExceededError
from .partitions import Partition

DEFAULT_WEIGHT_CAP = 30
CACHE_FORMAT = "degposet/1"


def _leq_sums(lam_sums: Iterable[int], nu_sums: Iterable[int]) -> bool:
    """lam <= nu, given the partial sums of the parts of two partitions of
    the same weight: no partial sum of nu exceeds lam's.  Both sequences
    end at the weight, so stopping at the shorter one loses nothing."""
    return all(map(ge, lam_sums, nu_sums))


def leq_deg(lam: Partition, nu: Partition) -> bool:
    """Degeneration test: does M(lam) degenerate to M(nu)?"""
    if lam.weight != nu.weight:
        raise ValueError(
            f"weight mismatch: |{lam}| = {lam.weight} but |{nu}| = {nu.weight}"
        )
    return _leq_sums(accumulate(lam.parts), accumulate(nu.parts))


def _checked_weight(n: int) -> int:
    n = index(n)
    if n < 0:
        raise ValueError("weight must be non-negative")
    if n > DEFAULT_WEIGHT_CAP:
        raise CapExceededError(
            f"weight {n} exceeds the partition cap {DEFAULT_WEIGHT_CAP}"
        )
    return n


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in descending lexicographic order, as a new
    list.  n goes through operator.index, so a float or a string raises
    TypeError; a negative n raises ValueError and one above
    DEFAULT_WEIGHT_CAP raises CapExceededError.  Each weight's partitions
    are built once per process (`_partitions`) and shared by every call."""
    return list(_partitions(_checked_weight(n)))


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    """The partitions of a checked weight n, kept once per process: all
    weights up to DEFAULT_WEIGHT_CAP together hold 28,629 of them.  The
    parts come from a recursion over (remaining weight, largest part),
    whose own memo lives for one call only."""

    @lru_cache(maxsize=None)
    def tails(remaining: int, largest: int) -> tuple[tuple[int, ...], ...]:
        if remaining == 0:
            return ((),)
        return tuple(
            (v,) + rest
            for v in range(min(remaining, largest), 0, -1)
            for rest in tails(remaining - v, v)
        )

    partitions = tuple(Partition(parts) for parts in tails(n, n))
    tails.cache_clear()  # tails refers to itself: free the memo now, not at a GC pass
    return partitions


class DegPoset:
    """All partitions of weight n, ordered by degeneration.

    Elements are listed in descending lexicographic order.  Row i of
    `zeta` is an int bitset whose bit j is set when element i degenerates
    to element j, that is, when element i dominates element j.  Dominance
    implies lexicographic order (Macdonald, Ch. I §1), so the element order
    extends the degeneration order and the zeta matrix is upper
    unitriangular.  Its zeta rows and Hasse edges come from the covers;
    Moebius rows come from `moebius_row`, which needs no poset.
    The weight n is checked as in `partitions_of`.
    """

    def __init__(self, n: int):
        self.n = n = _checked_weight(n)
        self.elements = _partitions(n)
        self._index = {p.parts: i for i, p in enumerate(self.elements)}
        self.zeta = _zeta_rows(self.elements, self._index)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"DegPoset(n={self.n}, size={len(self.elements)})"

    def index(self, p: Partition) -> int:
        try:
            return self._index[p.parts]
        except KeyError:
            raise ValueError(f"{p} is not a partition of {self.n}") from None

    def up_set(self, lam: Partition) -> list[Partition]:
        """Everything lam degenerates to, in element order (lam included)."""
        return _select(self.elements, self.zeta[self.index(lam)])

    def hasse_edges(self) -> list[tuple[Partition, Partition]]:
        """Covering pairs (lam, nu) with lam strictly below nu, grouped by
        lam and each group in element order, by Brylawski's rule (see
        `_covers`)."""
        elements, at = self.elements, self._index
        return [(lam, elements[at[nu]]) for lam in elements for nu in _covers(lam)]


def _covers(lam: Partition) -> list[tuple[int, ...]]:
    """The parts of the partitions that cover lam, in element order.

    This order is the dominance order reversed, whose covers Brylawski
    (The lattice of integer partitions, 1973) describes: nu covers lam
    exactly when nu is lam with one box moved from row i down to a row
    j > i, where j = i + 1 or lam_i = lam_j + 2."""
    parts = lam.parts
    rows = parts + (0,)
    covers = []
    # Only the last row i of a run of parts above 1 gives up a box.  The
    # runs go bottom up: a box from a later row leaves the earlier parts
    # whole, so that cover comes first in descending lexicographic order.
    i = len(parts) - parts.count(1) - 1
    while i >= 0:
        a = rows[i]
        # The box can only land in j, the first row past those equal to a - 1.
        j = i + 1 + parts.count(a - 1)
        if j == i + 1 or rows[j] == a - 2:
            nu = parts[:i] + (a - 1,) + parts[i + 1 : j]
            covers.append(nu + (rows[j] + 1,) + parts[j + 1 :])
        i = parts.index(a) - 1
    return covers


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _select(items: Sequence, bits: int) -> list:
    """The items at the set bit positions of a non-negative int, in order."""
    # The binary digits, lowest first, as 0/1 bytes for compress: about
    # three times faster than a Python loop over the digits.
    return list(compress(items, bin(bits)[:1:-1].encode().translate(_DIGIT_VALUES)))


def _zeta_rows(elements: Sequence[Partition], at: dict) -> tuple[int, ...]:
    """Row i is bit i OR the rows of element i's covers (an up-set is its
    least element and the up-sets of that element's covers).  Covers come
    later in element order, so walking backwards finds their rows built."""
    rows = [0] * len(elements)
    for i in reversed(range(len(elements))):
        row = 1 << i
        for nu in _covers(elements[i]):
            row |= rows[at[nu]]
        rows[i] = row
    return tuple(rows)


def build_poset(n: int, cache_dir: str | None = None) -> DegPoset:
    """Build the degeneration poset of weight n, through the disk cache
    when cache_dir is given: a file equal to the build is left alone, a
    missing or different one is written.  A weight above
    DEFAULT_WEIGHT_CAP raises CapExceededError and writes nothing."""
    if cache_dir is not None:
        try:
            return load_poset(n, cache_dir)
        except (OSError, ValueError):
            pass
    poset = DegPoset(n)
    if cache_dir is not None:
        save_poset(poset, cache_dir)
    return poset


@lru_cache(maxsize=None)
def poset_of(n: int) -> DegPoset:
    """In-process memoized poset, shared by the algebra routines."""
    return build_poset(n)


def up_set(lam: Partition) -> list[Partition]:
    """Everything lam degenerates to, over the memoized poset of |lam|."""
    return poset_of(lam.weight).up_set(lam)


@lru_cache(maxsize=None)
def moebius_row(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """The nonzero values mu(lam, nu), as (nu, value) pairs in element
    order, computed from the covers of lam alone and kept.

    The interval from lam up to nu is a lattice whose atoms are the
    covers of lam below nu, so by Rota's crosscut theorem (On the
    foundations of combinatorial theory I, 1964; Stanley, Enumerative
    Combinatorics 1, §3.9) mu(lam, nu) is the sum of (-1)^|S| over the
    sets S of covers of lam whose join is nu, and the join is the
    pointwise minimum of the partial sums.  A weight above
    DEFAULT_WEIGHT_CAP raises CapExceededError; at or below it lam has at
    most six covers (distinct parts of at least 2), so 2^6 sets.
    """
    n = _checked_weight(lam.weight)

    def sums(parts: tuple[int, ...]) -> tuple[int, ...]:
        # Padded to n entries, so partitions of different lengths compare.
        return tuple(accumulate(parts + (0,) * (n - len(parts))))

    # Each join, keyed by its partial sums, carries the sum of (-1)^|S|
    # over the sets S of the covers added so far that reach it.
    row = {sums(lam.parts): 1}
    for cover in map(sums, _covers(lam)):
        for s, v in list(row.items()):
            join = tuple(map(min, s, cover))
            row[join] = row.get(join, 0) - v
    # Partial sums order like the parts, so descending is element order.
    return tuple(
        (Partition(tuple(b - a for a, b in zip((0,) + s, s))), v)
        for s, v in sorted(row.items(), reverse=True)
        if v
    )


def _cache_path(cache_dir: str, n: int) -> str:
    return os.path.join(cache_dir, f"degposet-{n}.json")


def _payload(poset: DegPoset) -> dict:
    return {
        "format": CACHE_FORMAT,
        "n": poset.n,
        "elements": [str(p) for p in poset.elements],
        "zeta_rows": [format(row, "x") for row in poset.zeta],
    }


def save_poset(poset: DegPoset, cache_dir: str) -> str:
    """Write the poset cache file atomically (temp file, then rename)."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, poset.n)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(_payload(poset), handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_poset(n: int, cache_dir: str) -> DegPoset:
    """A fresh build of the poset of weight n, if its cache file holds
    exactly the JSON `save_poset` writes for it; any other file raises
    ValueError, so a file never changes the order.  A weight above
    DEFAULT_WEIGHT_CAP raises CapExceededError, as `build_poset` does."""
    with open(_cache_path(cache_dir, n)) as handle:
        payload = json.load(handle)
    poset = DegPoset(n)
    if payload != _payload(poset):
        raise ValueError(f"cache file for weight {n} differs from the build")
    return poset
