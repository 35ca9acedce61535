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

Scaling each Jordan block by its own nonzero scalar commutes with the
operator, so the diagonal torus T = (F_p^x)^l, l the number of blocks,
acts on the invariant subspaces.  It fixes every pivot and keeps both
types, as Hall numbers are isomorphism invariants (Macdonald, Ch. II).
So the searches that count place the rows below the top one up to T:
one partial basis per orbit, with the size of its orbit as its weight.
The stream, which lists every basis, searches without T.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product, repeat
from operator import index
from typing import Iterator

from .errors import CapExceededError
from .partitions import ZERO, Partition

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
SMALL_PRIME_WEIGHT_CAP = 8  # p in {2, 3}
LARGE_PRIME_WEIGHT_CAP = 6  # p >= 5
MAX_LEAVES = 2**24  # bases one walk (one shape, k and p) may yield

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

    The operator acts on row vectors by v -> vM, M the Jordan matrix with
    a 1 at (j, j + 1) inside each block.  `depth[j]` is the place of
    coordinate j in its block, so (vM)[j] is v[j - 1] when depth[j] > 0
    and 0 otherwise; `room[j]` is the number of coordinates after j in its
    block, and `block[j]` is the index of that block.
    """

    def __init__(self, shape: Partition, p: int):
        weight_cap(p)  # rejects an unsupported prime
        self.shape = shape
        self.p = p
        self.dim = shape.weight
        self.depth = tuple(i for size in shape.parts for i in range(size))
        self.room = tuple(size - 1 - i for size in shape.parts for i in range(size))
        self.block = tuple(b for b, size in enumerate(shape.parts) for _ in range(size))

    def __repr__(self) -> str:
        return f"JordanModule(shape={self.shape}, p={self.p})"


def _reduce(row: Row | list[int], echelon: list[tuple[int, list[int]]], p: int) -> list[int]:
    """The row cleared at the echelon's pivot columns by its rows: zero
    exactly when the row lies in their span."""
    for c, e in echelon:
        if row[c]:
            f = row[c]
            row = [(a - f * b) % p for a, b in zip(row, e)]
    return row


def _unit(row: Row | list[int], c: int, p: int) -> list[int]:
    """The row scaled to 1 at column c, where it is nonzero."""
    inv = pow(row[c], p - 2, p)
    return [a * inv % p for a in row]


def _echelon(rows: list[list[int]], p: int) -> list[tuple[int, list[int]]]:
    """An echelon basis over F_p of the rows' span: (pivot column, row)
    pairs, each row 1 at its pivot and 0 at the pivots before it."""
    out: list[tuple[int, list[int]]] = []
    for row in rows:
        row = _reduce(row, out, p)
        c = next((j for j, v in enumerate(row) if v), None)
        if c is not None:
            out.append((c, _unit(row, c, p)))
    return out


def _rows_with_pivot(
    module: JordanModule, c: int, lower: dict[int, Row]
) -> tuple[Row, list[Row]] | None:
    """The reduced echelon rows with pivot c whose image lies in the span
    of the reduced echelon rows `lower` (pivot column -> row), all of
    whose pivots lie right of c: the affine space base + span(gens), or
    None when there are none.

    Such a row v is 1 at c and 0 left of c and at the lower pivots.  Its
    image w = vM is the sum of w[q] lower[q], where w[q] is v[q - 1] if
    depth[q] > 0 and 0 otherwise: 1 at q = c + 1, and an unknown where
    v[q - 1] is open.  At a column t > c + 1 not in lower, w[t] is v[t - 1]
    if depth[t] > 0, which fixes an open v[t - 1]; where depth[t] = 0 or
    t - 1 is a lower pivot, w[t] must be 0.  Those checks are taken left
    to right, each solved for an unknown by a row operation or, with
    none left in it, tested; the first failed test ends the call.  The
    open entries at the end of a block are free."""
    n, p, depth, room = module.dim, module.p, module.depth, module.room
    if room[c] and c + 1 not in lower:
        return None  # w[c + 1] = v[c] = 1, but no lower row reaches column c + 1
    # w = rows[0] + the sum of u_x rows[x] over the unknowns left.
    rows = [lower[c + 1] if room[c] else (0,) * n]
    rows += [v for q, v in lower.items() if depth[q] and q - 1 != c and q - 1 not in lower]
    for t in range(c + 2, n):
        if t in lower or (depth[t] and t - 1 not in lower):
            continue
        x = next((x for x in range(1, len(rows)) if rows[x][t]), 0)
        if x:
            pivot = [(t, _unit(rows.pop(x), t, p))]
            rows = [_reduce(r, pivot, p) for r in rows]
        elif rows[0][t]:
            return None
    # v[j] = w[j + 1] at the open entries that are not at the end of a block.
    right = range(c + 1, n)
    shift = {j for j in right if room[j] and j not in lower}
    tops = [
        (0,) * c + (int(not x),) + tuple([w[j + 1] if j in shift else 0 for j in right])
        for x, w in enumerate(rows)
    ]
    ends = [j for j in right if j not in lower and j not in shift]
    return tops[0], tops[1:] + [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in ends]


def _followed(
    module: JordanModule, c: int, lower: dict[int, Row], space: tuple[Row, list[Row]]
) -> tuple[Row, list[Row]] | None:
    """The part of the batch `space` of rows b with pivot c, as
    `_rows_with_pivot(module, c, lower)` gives it, that may hold rows a top
    row can follow: all of it, one affine piece of it, or None.  It never
    leaves out a b that some top row follows.

    A top row with pivot t < c has T(top) in span(b, W'), W' spanned by
    `lower`, with b's coefficient T(top)[c].  At c = 1 with room[0] > 0
    the only t is 0, and the coefficient is top[0] = 1, so b =
    reduce(T(top), W'), and those b form e_c + span(reduce(e_{j+1}, W'))
    over the open entries j of top with room[j] > 0; that piece is met
    with the batch.  Any other batch is kept whole: the lower rows are
    placed one torus orbit at a time, so deciding it by solving for top
    rows would take more `_rows_with_pivot` calls than it saves."""
    n, p, room = module.dim, module.p, module.room
    if c != 1 or not room[0]:
        return space
    base, gens = space
    zero, echelon = [0] * n, list(lower.items())
    dirs = [
        _reduce([int(x == j + 1) for x in range(n)], echelon, p)
        for j in range(c + 1, n)
        if room[j] and j not in lower
    ]
    # x = base + sum(a g) = e_c + sum(z h), solved on the rows (g | g) and
    # (h | 0): base is 1 at c, so (base - e_c | base) reduces to (0 | x).
    meet = _echelon([[*g, *g] for g in gens] + [[*h, *zero] for h in dirs], p)
    rest = _reduce([0] * (c + 1) + [*base[c + 1 :], *base], meet, p)
    if any(rest[:n]):
        return None
    return tuple(rest[n:]), [tuple(e[n:]) for q, e in meet if q >= n]


def _span(base: Row, gens: list[Row], p: int) -> Iterator[Row]:
    """Every point of base + span(gens) over F_p, gens independent, one at
    a time.  A unit row among gens makes its column take every value, so
    each sum of base and multiples of the other gens is yielded with the
    unit columns set to each tuple of values; by independence no point
    comes twice."""
    units = {g.index(1) for g in gens if sum(g) == 1}
    steps = [[[x * a % p for a in g] for x in range(p)] for g in gens if sum(g) != 1]

    def points(terms: tuple[list[int], ...]) -> Iterator[Row]:
        core = [sum(col) % p for col in zip(base, *terms)]
        return product(*[range(p) if j in units else (v,) for j, v in enumerate(core)])

    return chain.from_iterable(map(points, product(*steps)))


def _representatives(
    rows: Iterator[Row], c: int, comp: tuple[int, ...], block: tuple[int, ...]
) -> Iterator[tuple[Row, tuple[int, ...]]]:
    """One row with pivot c of each orbit in `rows` of the torus elements
    that fix the rows placed so far, with `comp` updated for it.

    comp[b] is the first block of block b's component, and those torus
    elements are the ones constant on each component.  Such an element
    scales the entries of a row in a component C by t_C / t_D, D the
    pivot's component, and maps the rows the walk admits onto themselves.
    So the row kept of each orbit is the one whose first nonzero entry in
    each component C other than D that it meets is 1, and its stabiliser
    is constant on D and those C together: comp merges them into D."""
    home = comp[block[c]]
    others = [(j, comp[block[j]]) for j in range(c + 1, len(block)) if comp[block[j]] != home]
    for row in rows:
        met = {home}
        for j, x in others:
            if row[j] and x not in met:
                if row[j] != 1:
                    break
                met.add(x)
        else:
            yield row, comp if len(met) == 1 else tuple(home if x in met else x for x in comp)


def _orbit_size(comp: tuple[int, ...], p: int) -> int:
    """The size (p - 1)^(l - #components) of the torus orbit of a partial
    basis whose stabiliser is constant on the components `comp`."""
    return (p - 1) ** (len(comp) - len(set(comp)))


def _bases(gens: list[Row], comp: tuple[int, ...], p: int) -> int:
    """The number of bases a batch stands for: its orbit's size times its
    p^len(gens) top rows."""
    return _orbit_size(comp, p) * p ** len(gens)


def _invariant_bases(
    module: JordanModule, k: int, torus: bool = True
) -> Iterator[tuple[tuple[Row, ...], tuple[int, ...], tuple[Row, list[Row]], tuple[int, ...]]]:
    """The reduced echelon bases, rows top to bottom, of the invariant
    k-dimensional subspaces, k >= 1, in batches (below, pivots, (base,
    gens), comp), one per orbit of the torus T: the bases (top,) + below
    for each top in base + span(gens), all with the pivot columns pivots.
    comp maps each block to the first block of its component, and the
    elements of T that fix `below` are those constant on each component.
    With `torus` false the walk keeps every row, as over F_2, where T is
    trivial: each batch is its own orbit, of weight 1.

    T commutes with the operator and fixes every pivot, so it maps the
    partial bases the walk admits onto themselves, and the top rows over
    t(below) onto those over below, keeping both types.  So a batch
    stands for the batches its orbit holds, one per coset of its
    stabiliser; their number, (p - 1)^(l - #components) =
    `_orbit_size(comp, p)`, is the batch's weight.

    A depth-first walk over the partial bases, rows placed bottom-up.
    Each pivot c left of the rows placed so far gives the admissible
    rows with pivot c, as `_rows_with_pivot` solves for them; the walk
    goes on from one of them in each orbit of the elements of T that fix
    the rows below, as `_representatives` picks them, until only the top
    row is left to place, and then hands the affine space of top rows
    over as one batch.  So nothing is done per leaf here.  One row below
    the top it goes on only from the rows that `_followed` keeps; the
    others yield no batch.

    The walk counts the bases its batches stand for (`_bases`) and
    raises CapExceededError before the batch that would take it past
    MAX_LEAVES."""
    p, block = module.p, module.block
    torus = torus and p > 2  # over F_2 T is trivial: each row is its own orbit
    leaves = 0

    def walk(below: tuple[Row, ...], pivots: tuple[int, ...], comp: tuple[int, ...]) -> Iterator:
        nonlocal leaves
        # Row r's pivot leaves room for the r rows still to place above it.
        r = k - 1 - len(below)
        lower = dict(zip(pivots, below))
        for c in range(r, pivots[0] if pivots else module.dim):
            space = _rows_with_pivot(module, c, lower)
            if space and r == 1:
                space = _followed(module, c, lower, space)
            if space and r:
                rows = _span(*space, p)
                kept = _representatives(rows, c, comp, block) if torus else zip(rows, repeat(comp))
                for row, merged in kept:
                    yield from walk((row,) + below, (c,) + pivots, merged)
            elif space:
                leaves += _bases(space[1], comp, p)
                if leaves > MAX_LEAVES:
                    raise CapExceededError(
                        f"the walk of the dimension-{k} submodules of M{module.shape} "
                        f"over F_{p} passes the leaf budget of {MAX_LEAVES} bases"
                    )
                yield below, (c,) + pivots, space, comp

    if k < 1:
        return
    yield from walk((), (), tuple(range(len(module.shape.parts))))


def enumerate_invariant_subspaces(module: JordanModule) -> Iterator[tuple[Row, ...]]:
    """Stream the reduced echelon basis, rows top to bottom, of every
    invariant subspace exactly once (order unspecified); the zero subspace
    is ().  A module above the weight cap of its prime raises
    CapExceededError here, before the stream is returned; a dimension
    whose walk passes the leaf budget raises it when the stream gets there.

    The walk runs without the torus, as it does over F_2, so each batch
    stands for itself and its top rows are streamed point by point."""
    _check_cap(module.dim, module.p)
    leaves = (
        (top,) + below
        for k in range(1, module.dim + 1)
        for below, _, space, _ in _invariant_bases(module, k, torus=False)
        for top in _span(*space, module.p)
    )
    return chain([()], leaves)


def _moved(ranks: tuple[int, ...], column: int, box: int) -> Partition:
    """The partition whose conjugate is the consecutive differences of
    `ranks`, those of T^0, T^1, ... for a nilpotent T up to an added
    constant, with `box` (1 or -1) added in column `column`, counted
    from 1."""
    conj = [a - b for a, b in zip(ranks, ranks[1:])]
    conj[column - 1] += box
    return Partition(tuple(conj)).conjugate()


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

    A batch of the walk is an invariant (k - 1)-subspace W, spanned by
    the rows below, and the affine space A of its top rows.  The types of
    U = W + <top> follow from the ranks of the powers of T on U and on
    V/U, and so from W and two flags of the top row: h = max{h : top in
    S_h = T^h V + W}, as dim(T^j V + U) = dim(T^j V + W) + [j > h], and
    i = min{i : top in K_i = W + ker T^i}, as rank T^j U = rank T^j W +
    [j < i].  T^h V is spanned by the coordinates of depth >= h, and T^i
    is one to one on those of room >= i and zero on the rest; so top
    lies in S_h, or K_i, when it agrees with a vector of W on the
    coordinates of depth < h, or of room >= i.  W's echelon bases on
    these sets, made once per W, give its ranks and reduce A's rows.

    A top row with pivot c has h <= depth[c] and i > room[c], and lies
    in K_i once T^(i-1) W = 0; only those flag pairs are counted.  The
    top rows in S_h and K_i number 0 or p^(d - r), r the rank of A's d
    generators reduced there, and a flag pair's count is an
    inclusion-exclusion of four such numbers.  The counts are tallied by
    W's ranks and the flags, and each key becomes its two types once, by
    the box rule those identities state (Macdonald, Ch. II): the
    consecutive differences of W's two rank tuples are the conjugates of
    W's type and of V/W's, and U's type is W's with one box added in
    column i, V/U's is V/W's with one box removed in column h + 1.

    A walk past the leaf budget of `_invariant_bases` raises
    CapExceededError, and no table is kept for it."""
    n = shape.weight
    if k == 0:  # the zero submodule alone
        return {(shape, ZERO): 1}
    if n >= k > n - k:
        return {(sub, quo): c for (quo, sub), c in _type_tables(shape, n - k, p).items()}
    module = JordanModule(shape, p)
    depth, room, longest = module.depth, module.room, shape.parts[0]
    shallow = [[x for x in range(n) if depth[x] < j] for j in range(longest + 1)]
    shifted = [[x for x in range(n) if room[x] >= j] for j in range(longest + 1)]
    counts: dict[tuple, int] = {}
    last = None
    for below, pivots, (base, gens), comp in _invariant_bases(module, k):
        if below is not last:
            last, weight = below, _orbit_size(comp, p)
            # At j = 0 and longest a set is empty or whole, where below is W's.
            whole = list(zip(pivots[1:], below))
            on_shallow, on_shifted = (
                [_echelon([[v[x] for x in s] for v in below], p) for s in sets[1:-1]]
                for sets in (shallow, shifted)
            )
            on_shallow, on_shifted = [[], *on_shallow, whole], [whole, *on_shifted, []]
            # dim(T^j V + W) - k and rank T^j W, for j = 0, ..., longest
            ranks = (
                tuple(n - k - len(s) + len(e) for s, e in zip(shallow, on_shallow)),
                tuple(map(len, on_shifted)),
            )
            nil = ranks[1].index(0)  # T^nil W = 0

        def size(h: int, i: int) -> int:
            """The number of top rows in S_h and K_i."""
            checks = [(shallow[h], on_shallow[h])] if h else []
            checks += [(shifted[i], on_shifted[i])] if i <= nil else []
            if not checks:
                return p ** len(gens)
            res = [
                [e for cols, ech in checks for e in _reduce([v[x] for x in cols], ech, p)]
                for v in (base, *gens)
            ]
            ech = _echelon(res[1:], p)
            return 0 if any(_reduce(res[0], ech, p)) else p ** (len(gens) - len(ech))

        c = pivots[0]
        reach = range(room[c] + 1, min(nil + 1, longest) + 1)
        grid = {(h, i): size(h, i) for h in range(depth[c] + 1) for i in reach}
        for (h, i), m in grid.items():
            m -= grid.get((h + 1, i), 0) + grid.get((h, i - 1), 0)
            m += grid.get((h + 1, i - 1), 0)
            if m:
                counts[ranks, h, i] = counts.get((ranks, h, i), 0) + m * weight
    table: dict[tuple[Partition, Partition], int] = {}
    for ((quo_ranks, sub_ranks), h, i), count in counts.items():
        key = _moved(quo_ranks, h + 1, -1), _moved(sub_ranks, i, 1)
        table[key] = table.get(key, 0) + count
    return table


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
    # A key's sub type fixes its dimension, so the tables share no key.
    return {key: c for k in dims for key, c in _type_tables(outer, k, p).items()}


def count_all_subspaces(n: int, p: int) -> int:
    """Total number of subspaces of F_p^n, by walking the zero operator,
    under which every subspace is invariant, and adding up the bases its
    batches stand for, plus 1 for the zero subspace.  n goes through
    operator.index, so a float raises TypeError; an n above `weight_cap(p)`
    raises CapExceededError before anything is built."""
    n = index(n)
    if n < 0:
        raise ValueError(f"negative dimension {n}")
    _check_cap(n, p)
    module = JordanModule(Partition((1,) * n), p)
    return 1 + sum(
        _bases(gens, comp, p)
        for k in range(1, n + 1)
        for _, _, (_, gens), comp in _invariant_bases(module, k)
    )


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-space over a q-element
    field, by the exact product formula.  n, k and q go through
    operator.index, so a float raises TypeError, and a q below 2 raises
    ValueError, since no field has fewer than two elements."""
    n, k, q = index(n), index(k), index(q)
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
