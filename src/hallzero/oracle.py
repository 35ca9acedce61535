"""Brute-force Hall number oracle over small prime fields.

Counts submodules of a nilpotent module in Jordan form by searching the
reduced row echelon bases of its invariant subspaces, dimension by
dimension.  Every subspace has a unique reduced echelon basis, so nothing
is counted twice.  All arithmetic is exact modular arithmetic on Python
ints.

Only submodules of dimension at most half the weight are enumerated.
The dual of M(lambda) is isomorphic to M(lambda), and taking the
annihilator of a submodule in the dual swaps its sub type and quotient
type, so g^lambda_{mu nu}(p) = g^lambda_{nu mu}(p) (Macdonald, Symmetric
Functions and Hall Polynomials, 2nd ed., Ch. II); a table of submodules
of dimension k > n - k is read off the one of dimension n - k.

Vectors are rows throughout, and the operator acts by v -> vM with the
Jordan matrix M, which moves every entry one place further into its
block.  The leading index of a vector therefore rises under the action,
so in a reduced echelon basis of an invariant subspace the image of row r
lies in the span of the rows below it.  The search places rows bottom-up
and drops a partial row as soon as it breaks that condition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import index, itemgetter
from typing import Callable, Iterator

from .errors import CapExceededError
from .partitions import ZERO, Partition

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
SMALL_PRIME_WEIGHT_CAP = 8  # p in {2, 3}
LARGE_PRIME_WEIGHT_CAP = 6  # p >= 5
MAX_LEAVES = 2**24  # bases one table's walk may reach

Row = tuple[int, ...]


def weight_cap(p: int) -> int:
    """The largest module weight the oracle enumerates over F_p.  An
    unsupported prime, a non-int such as 2.0 included, raises ValueError."""
    if not isinstance(p, int) or p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported prime {p}; supported: {SUPPORTED_PRIMES}")
    return SMALL_PRIME_WEIGHT_CAP if p <= 3 else LARGE_PRIME_WEIGHT_CAP


def _check_cap(weight: int, p: int) -> None:
    limit = weight_cap(p)
    if weight > limit:
        raise CapExceededError(
            f"weight {weight} exceeds the enumeration cap {limit} for p={p}"
        )


class JordanModule:
    """A nilpotent operator in Jordan form over F_p, block sizes given by a
    partition; p must be one of SUPPORTED_PRIMES.

    `matrix` has a 1 at (j, j + 1) inside each block; the operator acts on
    row vectors by v -> vM.  `depth[j]` is the place of coordinate j in
    its block, so (vM)[j] is v[j - 1] when depth[j] > 0 and 0 otherwise.
    """

    def __init__(self, shape: Partition, p: int):
        weight_cap(p)  # rejects an unsupported prime
        self.shape = shape
        self.p = p
        self.dim = shape.weight
        self.depth = tuple(i for size in shape.parts for i in range(size))
        self.matrix = tuple(
            tuple(int(j == i + 1 and self.depth[j] > 0) for j in range(self.dim))
            for i in range(self.dim)
        )

    def __repr__(self) -> str:
        return f"JordanModule(shape={self.shape}, p={self.p})"


@dataclass(frozen=True)
class Subspace:
    """A subspace, stored as its unique reduced row echelon basis."""

    basis: tuple[Row, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, v in enumerate(row) if v) for row in self.basis)


def _rank(rows: list[list[int]], p: int) -> int:
    """Rank over F_p of the given integer rows."""
    rows = [row for row in rows if any(row)]
    rank = 0
    while rows:
        pivot = rows.pop()
        c = next(j for j, v in enumerate(pivot) if v)
        scale = pow(pivot[c], p - 2, p)
        rank += 1
        reduced = []
        for row in rows:
            if row[c]:
                f = row[c] * scale
                row = [(a - f * b) % p for a, b in zip(row, pivot)]
                if not any(row):
                    continue
            reduced.append(row)
        rows = reduced
    return rank


def _type_from_ranks(dim: int, rank_of_power: Callable[[int], int]) -> tuple[int, ...]:
    """Conjugate of the Jordan type of a nilpotent operator on a dim-space,
    from the ranks of its powers: part i is rank T^(i-1) - rank T^i.  Once
    a rank is 1 the next is 0, so it is not asked for."""
    conj: list[int] = []
    prev, i = dim, 1
    while prev:
        rank = rank_of_power(i) if prev > 1 else 0
        if rank >= prev:
            raise ValueError("operator is not nilpotent")
        conj.append(prev - rank)
        prev, i = rank, i + 1
    return tuple(conj)


def _matmul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def jordan_type(matrix, p: int) -> Partition:
    """Jordan type of a nilpotent square matrix over F_p.  Entries go
    through operator.index, so a float raises TypeError instead of being
    truncated."""
    weight_cap(p)  # rejects an unsupported prime
    try:
        rows = [list(row) for row in matrix]
    except TypeError:
        raise ValueError("expected a square matrix") from None
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("expected a square matrix")
    rows = [[index(v) % p for v in row] for row in rows]
    powers = [rows]
    while len(powers) < n:
        powers.append(_matmul(powers[-1], rows, p))
    if any(any(row) for row in powers[-1]):
        raise ValueError("operator is not nilpotent")
    conj = _type_from_ranks(n, lambda i: _rank(powers[i - 1], p))
    return Partition(conj).conjugate()


def _rows_with_pivot(
    module: JordanModule, c: int, lower: dict[int, Row]
) -> list[Row]:
    """Every reduced echelon row with pivot c whose image lies in the span
    of the reduced echelon rows `lower` (pivot column -> row), all of
    whose pivots lie right of c.

    With w = vM, the residual w[t] - sum of w[q] * lower[q][t] is zero at
    the lower pivots t and otherwise depends only on v[:t]: on v[t - 1]
    with coefficient 1 when depth[t] > 0, and through the coefficients
    w[q] = v[q - 1] of the lower pivots q < t.  The row is filled left to
    right, and the residual at t + 1 fixes or checks the entry at t.
    """
    n, p, depth = module.dim, module.p, module.depth
    fixed = dict.fromkeys(lower, 0)
    fixed[c] = 1
    prefixes: list[Row] = [(0,) * c]
    for j in range(c, n):
        t = j + 1
        options = (fixed[j],) if j in fixed else range(p)
        if t == n or t in lower:
            prefixes = [v + (x,) for v in prefixes for x in options]
            continue
        terms = [(q - 1, row[t]) for q, row in lower.items() if row[t] and depth[q]]
        extended = []
        for v in prefixes:
            rest = sum(v[x] * coef for x, coef in terms) % p
            if depth[t]:
                if rest in options:
                    extended.append(v + (rest,))
            elif rest == 0:
                extended.extend(v + (x,) for x in options)
        prefixes = extended
    return prefixes


def _invariant_bases(
    module: JordanModule, k: int
) -> Iterator[tuple[tuple[Row, ...], tuple[int, ...], list[Row]]]:
    """The reduced echelon bases, rows top to bottom, of the invariant
    k-dimensional subspaces, k >= 1, in batches (below, pivots, tops):
    the bases (top,) + below for each top in the non-empty list tops,
    all with the pivot columns pivots.

    A depth-first walk over the partial bases, rows placed bottom-up.
    Each pivot c left of the rows placed so far gives the admissible
    rows with pivot c, as `_rows_with_pivot` lists them; the walk goes
    on from each of them, until only the top row is left to place, and
    then hands the whole list over as one batch.  So nothing is done per
    leaf here."""

    def walk(below: tuple[Row, ...], pivots: tuple[int, ...]) -> Iterator:
        # Row r's pivot leaves room for the r rows still to place above it.
        r = k - 1 - len(below)
        lower = dict(zip(pivots, below))
        for c in range(r, pivots[0] if pivots else module.dim):
            rows = _rows_with_pivot(module, c, lower)
            if r:
                for row in rows:
                    yield from walk((row,) + below, (c,) + pivots)
            elif rows:
                yield below, (c,) + pivots, rows

    if k < 1:
        return
    yield from walk((), ())


def enumerate_invariant_subspaces(module: JordanModule) -> Iterator[Subspace]:
    """Stream every invariant subspace exactly once (order unspecified).
    A module above the weight cap of its prime raises CapExceededError
    here, before the stream is returned."""
    _check_cap(module.dim, module.p)
    leaves = (
        Subspace((top,) + below)
        for k in range(1, module.dim + 1)
        for below, _, tops in _invariant_bases(module, k)
        for top in tops
    )
    return chain([Subspace(())], leaves)


@lru_cache(maxsize=None)
def _type_tables(
    shape: Partition, k: int, p: int
) -> dict[tuple[Partition, Partition], int]:
    """Tally of (quotient type, subspace type) over all invariant
    dimension-k subspaces U of the module of the given shape.

    Only the tables with 2k <= n are enumerated.  The dual of M(shape) is
    isomorphic to M(shape), and U -> U^perp, the annihilator of U in the
    dual, takes the dimension-k submodules one to one onto the
    dimension-(n - k) ones, with sub type and quotient type swapped
    (Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed.,
    Ch. II: the Hall algebra is commutative).  So for n >= k > n - k the
    table is the (n - k) table with its two types swapped; a k above n
    still gives the empty table of an empty walk.

    Both types come from ranks of the basis of U on sets of coordinates.
    T^i moves coordinate j to j + i when that stays in its block, so
    rank T^i U is the rank on the coordinates with room >= i before their
    block ends.  The operator induced on the quotient has rank
    dim(im T^i + U) - k, and im T^i is spanned by the coordinates of
    depth >= i: that is their count plus the rank on the coordinates of
    depth < i, minus k.

    A basis is classified once per key, and the key fixes both operators.
    Let the basis rows b_r have pivots c_r.  The row b_r maps to the sum
    over s of b_r[c_s - 1] b_s, taken over the pivots with depth > 0;
    where c_s - 1 is a pivot c_t that coefficient is 1 if r = t and 0
    otherwise, and it is 0 for r >= s.  On V/U, spanned by the free
    coordinates e_j, e_j maps to e_(j+1), or to 0 at the end of a block;
    where j + 1 is a pivot c_s, e_(j+1) is e_(j+1) - b_s modulo U, which
    is minus b_s on the free coordinates.  So the pivots, the rows b_s
    and the entries of column c_s - 1 above them, for the pivots c_s
    that follow a free coordinate in their block, fix T|U and the
    quotient operator, and with them both types.

    The walk hands over a batch of bases that share the pivots and the
    rows b_1, ..., b_(k-1), and every row is read for the key by one
    rule.  A row whose pivot follows a free coordinate in its block is
    read whole; any other row b_r is read at its pivot and at the
    columns c_s - 1 of the rows read whole.  Beyond the entries named
    above, this reads only the pivot entries, which are 1, and the
    entries b_r[c_s - 1] with s < r, which lie left of the pivot c_r
    and so are 0.  The reads of b_1, ..., b_(k-1), with the pivots, are
    the key but its top-row part, once per batch, and a Counter groups
    the top rows by their reads: the bases of a group share one key, so
    one of them is classified and the group's size is added.

    A walk that reaches more than MAX_LEAVES bases raises
    CapExceededError, and no table is kept for it."""
    n = shape.weight
    if k == 0:  # the zero submodule alone
        return {(shape, ZERO): 1}
    if n >= k > n - k:
        return {(sub, quo): c for (quo, sub), c in _type_tables(shape, n - k, p).items()}
    module = JordanModule(shape, p)
    depth = module.depth
    room = [size - 1 - i for size in shape.parts for i in range(size)]
    shifted = [[j for j in range(n) if room[j] >= i] for i in range(n + 1)]
    shallow = [[j for j in range(n) if depth[j] < i] for i in range(n + 1)]

    def rank_on(basis: tuple[Row, ...], cols: list[int]) -> int:
        return _rank([[v[j] for j in cols] for v in basis], p)

    def classify(basis: tuple[Row, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (
            _type_from_ranks(
                n - k, lambda i: n - len(shallow[i]) + rank_on(basis, shallow[i]) - k
            ),
            _type_from_ranks(k, lambda i: rank_on(basis, shifted[i])),
        )

    # Tallied by the conjugates of the two types, which the ranks give.
    counts: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    types: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    leaves = 0
    for below, pivots, tops in _invariant_bases(module, k):
        leaves += len(tops)
        if leaves > MAX_LEAVES:
            raise CapExceededError(
                f"the walk of the dimension-{k} submodules of M{shape} over "
                f"F_{p} passes the leaf budget of {MAX_LEAVES} bases"
            )
        # The columns c_s - 1 before the pivots of the rows read whole.
        cols = [c - 1 for c in pivots if depth[c] and c - 1 not in pivots]
        reads = [tuple if c - 1 in cols else itemgetter(c, *cols) for c in pivots]
        lower = (pivots, tuple([read(row) for read, row in zip(reads[1:], below)]))
        project = reads[0]
        reps = None
        for top, size in Counter(map(project, tops)).items():
            conj = types.get((lower, top))
            if conj is None:
                if reps is None:
                    reps = dict(zip(map(project, tops), tops))
                conj = types[lower, top] = classify((reps[top],) + below)
            counts[conj] = counts.get(conj, 0) + size
    return {
        (Partition(quo).conjugate(), Partition(sub).conjugate()): count
        for (quo, sub), count in counts.items()
    }


def hall_number(outer: Partition, quotient: Partition, sub: Partition, p: int) -> int:
    """Number of submodules of M(outer) of type `sub` with quotient type
    `quotient`, over F_p.  Zero when the weights do not match; an
    unsupported prime raises ValueError whatever the weights, and an
    outer weight above `weight_cap(p)` raises CapExceededError."""
    weight_cap(p)  # rejects an unsupported prime
    if quotient.weight + sub.weight != outer.weight:
        return 0
    _check_cap(outer.weight, p)
    return _type_tables(outer, sub.weight, p).get((quotient, sub), 0)


def hall_number_table(
    outer: Partition, p: int, dim: int | None = None
) -> dict[tuple[Partition, Partition], int]:
    """All (quotient type, sub type) counts for M(outer) at once, or only
    those of submodules of dimension `dim`.  `dim` goes through
    operator.index, so a float or a string raises TypeError.  A `dim`
    above the weight gives an empty table; a negative one raises
    ValueError."""
    if dim is not None:
        dim = index(dim)
        if dim < 0:
            raise ValueError(f"negative submodule dimension {dim}")
    _check_cap(outer.weight, p)
    dims = range(outer.weight + 1) if dim is None else (dim,)
    merged: dict[tuple[Partition, Partition], int] = {}
    for k in dims:
        for key, value in _type_tables(outer, k, p).items():
            merged[key] = merged.get(key, 0) + value
    return merged


def count_all_subspaces(n: int, p: int) -> int:
    """Total number of subspaces of F_p^n, by running the enumeration on
    the zero operator, under which every subspace is invariant."""
    if n < 0:
        raise ValueError(f"negative dimension {n}")
    module = JordanModule(Partition((1,) * n), p)
    return sum(1 for _ in enumerate_invariant_subspaces(module))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-space over a q-element
    field, by the exact product formula.  q goes through operator.index,
    and a q below 2 raises ValueError, since no field has fewer than two
    elements."""
    q = index(q)
    if q < 2:
        raise ValueError(f"a field has at least 2 elements, not {q}")
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den
