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

M(lambda) is N + S, S = F_p^m spanned by its m blocks of size 1, on which
the operator is 0, and N by the others.  A submodule U is the graph over
U_N = pi_N(U) of a map f: U_N -> S/K, K = U cap S, that kills T U_N, and
its types follow from U_N's, dim K and the ranks of f on the U_N cap T^j N.
So a Hall table walks only N and counts the (K, f) (`_type_tables`).
N's tally is kept per (N, k', p), k' the dimension walked, so the shapes
that share N walk it once per process (`_tally`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product, repeat
from math import prod
from operator import add, index
from typing import Iterator

from .errors import CapExceededError
from .partitions import ZERO, Partition

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
SMALL_PRIME_WEIGHT_CAP = 8  # p in {2, 3}
LARGE_PRIME_WEIGHT_CAP = 6  # p >= 5
MAX_LEAVES = 2**24  # bases one walk, or submodules one Hall table, may count

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


def _over_budget(shape: Partition, k: int, p: int) -> CapExceededError:
    return CapExceededError(
        f"the walk of the dimension-{k} submodules of M{shape} "
        f"over F_{p} passes the leaf budget of {MAX_LEAVES} bases"
    )


def _invariant_bases(
    module: JordanModule, k: int, torus: bool = True
) -> Iterator[tuple[tuple[Row, ...], tuple[int, ...], tuple[Row, list[Row]], tuple[int, ...]]]:
    """The reduced echelon bases, rows top to bottom, of the invariant
    k-dimensional subspaces, k >= 1, in batches (below, pivots, (base,
    gens), comp), one per orbit of the torus T: the bases (top,) + below
    for each top in base + span(gens), all with the pivot columns pivots.
    comp maps each block to the first block of its component, and the
    elements of T that fix `below` are those constant on each component.
    The walk takes torus representatives at every prime; over F_2 they
    are every row, and each weight is 1.  With `torus` false, the stream's
    mode, it keeps every row at every prime, each batch of weight 1.

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
    the top, where that row has pivot 1 and the first block has size >= 2,
    it goes on only from the listed rows that some top row can follow; the
    others would yield no batch.

    The walk counts the bases its batches stand for (`_bases`) and
    raises CapExceededError before the batch that would take it past
    MAX_LEAVES."""
    n, p, block, room = module.dim, module.p, module.block, module.room
    leaves = 0

    def walk(below: tuple[Row, ...], pivots: tuple[int, ...], comp: tuple[int, ...]) -> Iterator:
        nonlocal leaves
        # Row r's pivot leaves room for the r rows still to place above it.
        r = k - 1 - len(below)
        lower = dict(zip(pivots, below))
        for c in range(r, pivots[0] if pivots else n):
            space = _rows_with_pivot(module, c, lower)
            if space and r:
                rows = _span(*space, p)
                if c == 1 and room[0]:  # so r = 1, and a top row has pivot 0
                    # T(top) lies in span(b, W'), W' spanned by `lower`, and is
                    # 1 at column 1, where only b is nonzero: b = reduce(T(top),
                    # W'), which lies in e_1 + span(reduce(e_(j+1), W')) over
                    # top's open j >= 2 with room[j] > 0.  No other b has a top.
                    ends = [j + 1 for j in range(2, n) if room[j] and j not in lower]
                    units = [[int(x == e) for x in range(n)] for e in ends]
                    tails = _echelon([_reduce(u, list(lower.items()), p) for u in units], p)
                    rows = (b for b in rows if not any(_reduce([0, 0, *b[2:]], tails, p)))
                kept = _representatives(rows, c, comp, block) if torus else zip(rows, repeat(comp))
                for row, merged in kept:
                    yield from walk((row,) + below, (c,) + pivots, merged)
            elif space:
                leaves += _bases(space[1], comp, p)
                if leaves > MAX_LEAVES:
                    raise _over_budget(module.shape, k, p)
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

    The walk runs without the torus and keeps every row, so each batch
    stands for itself and its top rows are streamed point by point."""
    _check_cap(module.dim, module.p)
    leaves = (
        (top,) + below
        for k in range(1, module.dim + 1)
        for below, _, space, _ in _invariant_bases(module, k, torus=False)
        for top in _span(*space, module.p)
    )
    return chain([()], leaves)


@lru_cache(maxsize=None)
def _type(ranks: tuple[int, ...]) -> Partition:
    """The type of a nilpotent T with rank T^j = ranks[j], 0 past them."""
    return Partition(tuple(a - b for a, b in zip(ranks, ranks[1:] + (0,)))).conjugate()


@lru_cache(maxsize=None)
def _tally(shape: Partition, k: int, p: int) -> dict[tuple, int]:
    """The invariant dimension-k subspaces U of M(shape) over F_p, kept
    once per process and only read by the caller, counted by three
    tuples over j = 0, ..., L, L the longest block: rank T^j(V/U), rank
    T^j U and delta_j(U) = dim U - dim TU - rank(U on depth < j) + rank(TU
    on depth < j), the dimension of the image of U cap T^j V in U/TU.

    A batch of the walk is an invariant (k - 1)-subspace W, spanned by
    the rows below, and the affine space A of its top rows.  U = W + <top>
    has W's tuples moved by three flags of the top row: h = max{h : top
    in S_h = T^h V + W}, as dim(T^j V + U) = dim(T^j V + W) + [j > h];
    i = min{i : top in K_i = W + ker T^i}, as rank T^j U = rank T^j W +
    [j < i]; and g = max{g <= L : T top in TW + T^g V}, as rank(TU on
    depth < j) = rank(TW on depth < j) + [j > g], so delta_j(U) =
    delta_j(W) + [i = 1] - [j > h] + [j > g].  T^h V is spanned by the
    coordinates of depth >= h, T^i is one to one on those of room >= i
    and zero on the rest, and T^-1(T^g V) = T^(g-1) V + ker T; so top lies
    in S_h, K_i or G_g = W + T^(g-1) V + ker T when it agrees with a vector
    of W on the coordinates of depth < h, of room >= i, or of depth < g - 1
    and room > 0.  T maps the last onto those of depth in [1, g), so W's
    rank on them is TW's on depth < g.  W's echelon bases on these sets,
    made once per W, give its tuples and reduce A's rows.

    A top row with pivot c has h <= depth[c] and i > room[c], and lies in
    K_i once T^(i-1) W = 0; only those flag pairs are counted.  The top
    rows in S_h, K_i and G_g number 0 or p^(d - r), r the rank of A's d
    generators reduced there, and a flag pair's count is an inclusion-
    exclusion of four such numbers, then parted by g, which the walk
    never reads: g > h, as S_h lies in G_(h+1); g = L when i = 1, as K_1 =
    G_L; otherwise g < L, and g <= depth[c] + 1 if room[c] > 0, as T top
    is 1 at c + 1, where TW and larger T^g V vanish."""
    module = JordanModule(shape, p)
    n, depth, room = module.dim, module.depth, module.room
    longest = shape.parts[0] if n else 0
    shallow = [[x for x in range(n) if depth[x] < j] for j in range(longest + 1)]
    shifted = [[x for x in range(n) if room[x] >= j] for j in range(longest + 1)]
    tied = [[x for x in range(n) if room[x] and depth[x] < j - 1] for j in range(longest + 1)]
    zeros = (0,) * (longest + 1)
    if k == 0:  # the zero submodule alone
        return {(tuple(n - len(s) for s in shallow), zeros, zeros): 1}
    counts: dict[tuple, int] = {}
    last = None
    for below, pivots, (base, gens), comp in _invariant_bases(module, k):
        if below is not last:
            last, weight = below, _orbit_size(comp, p)
            # At j = 0 and longest a set is empty or whole, where below is W's.
            whole = list(zip(pivots[1:], below))
            on = [
                [_echelon([[v[x] for x in s] for v in below], p) for s in sets[1:-1]]
                for sets in (shallow, shifted, tied)
            ]
            # tied[longest] is shifted[1], the coordinates of room > 0
            on_shallow, on_shifted = [[], *on[0], whole], [whole, *on[1], []]
            on_tied = [[], *on[2], on_shifted[1]]
            # dim(T^j V + W) - k and rank T^j W, for j = 0, ..., longest
            quo = tuple(n - k - len(s) + len(e) for s, e in zip(shallow, on_shallow))
            sub = tuple(map(len, on_shifted))
            nil = sub.index(0)  # T^nil W = 0
            rows = zip(on_shallow, on_tied)
            deltas = tuple(k - 1 - sub[1] - len(a) + len(b) for a, b in rows)

        def size(h: int, i: int, g: int = 0) -> int:
            """The number of top rows in S_h, K_i and G_g."""
            checks = [(shallow[h], on_shallow[h])] if h else []
            checks += [(shifted[i], on_shifted[i])] if i <= nil else []
            checks += [(tied[g], on_tied[g])] if g else []
            if not checks:
                return p ** len(gens)
            res = [
                [e for cols, ech in checks for e in _reduce([v[x] for x in cols], ech, p)]
                for v in (base, *gens)
            ]
            ech = _echelon(res[1:], p)
            return 0 if any(_reduce(res[0], ech, p)) else p ** (len(gens) - len(ech))

        def within(h: int, i: int, g: int) -> int:
            """The number of top rows with flags h and i in G_g, g > h + 1."""
            return sum(
                s * (size(a, b, g) if g > a + 1 and (a, b) in grid else grid.get((a, b), 0))
                for a, b, s in ((h, i, 1), (h + 1, i, -1), (h, i - 1, -1), (h + 1, i - 1, 1))
            )

        c = pivots[0]
        reach = range(room[c] + 1, min(nil + 1, longest) + 1)
        grid = {(h, i): size(h, i) for h in range(depth[c] + 1) for i in reach}
        top = depth[c] + 1 if room[c] else longest - 1
        for (h, i), x in grid.items():
            x -= grid.get((h + 1, i), 0) + grid.get((h, i - 1), 0)
            x += grid.get((h + 1, i - 1), 0)
            if not x:
                continue
            # The x rows in G_g for g = h + 1, ..., top, and then none
            ends = range(h + 2, top + 1) if i > 1 else ()
            ins = [x, *(within(h, i, g) for g in ends), 0]
            first = longest if i == 1 else h + 1
            quo_u = tuple(r + (j > h) for j, r in enumerate(quo))
            sub_u = tuple(r + (j < i) for j, r in enumerate(sub))
            deltas_hi = tuple(e + (i == 1) - (j > h) for j, e in enumerate(deltas))
            for g, (y, z) in enumerate(zip(ins, ins[1:]), first):
                if y > z:
                    key = quo_u, sub_u, tuple(e + (j > g) for j, e in enumerate(deltas_hi))
                    counts[key] = counts.get(key, 0) + (y - z) * weight
    return counts


@lru_cache(maxsize=None)
def _maps(deltas: tuple[int, ...], w: int, p: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The linear maps f from E_0 to F_p^w counted by their ranks on a flag
    E_0 >= E_1 >= ... of dimensions `deltas`, the last 0: pairs ((w, rank
    f|E_1, rank f|E_2, ...), count).  f is built from the last E_j up: on
    E_j it extends f|E_(j+1), of rank r, over a complement of dimension a =
    dim E_j - dim E_(j+1), and raises the rank by s in p^(ar) [w - r, s]_p
    prod_(t<s) (p^a - p^t) ways, values in f(E_(j+1)) times rank-s maps
    to F_p^w / f(E_(j+1)).  Off E_1 it is free: p^(w dim E_0/E_1) ways."""
    flag = deltas + (0,)
    maps: dict[tuple[int, ...], int] = {(): 1}
    for j in range(len(deltas) - 1, 0, -1):
        a, grown = flag[j] - flag[j + 1], {}
        for ranks, count in maps.items():
            r = ranks[0] if ranks else 0
            for s in range(min(a, w - r) + 1):
                ways = p ** (a * r) * gaussian_binomial(w - r, s, p)
                grown[(r + s, *ranks)] = count * ways * prod(p**a - p**t for t in range(s))
        maps = grown
    free = p ** (w * (flag[0] - flag[1]))
    return tuple(((w, *ranks), count * free) for ranks, count in maps.items())


@lru_cache(maxsize=None)
def _type_tables(
    shape: Partition, k: int, p: int
) -> dict[tuple[Partition, Partition], int]:
    """Tally of (quotient type, subspace type) over all invariant
    dimension-k subspaces U of the module V of the given shape.

    Only the tables with 2k <= n are enumerated.  The dual of M(shape) is
    isomorphic to M(shape), and U -> U^perp, the annihilator of U in the
    dual, takes the dimension-k submodules one to one onto the
    dimension-(n - k) ones, with sub type and quotient type swapped
    (Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed.,
    Ch. II: the Hall algebra is commutative).  So for n >= k > n - k the
    table is the (n - k) table with its two types swapped; a k above n
    still gives the empty table of an empty walk.

    V = N + S, S = F_p^m spanned by the m blocks of size 1, on which T =
    0, and N by the others.  A submodule U gives U_N = pi_N(U), a
    submodule of N, K = U cap S and the linear map f: U_N -> S/K with U =
    {x + s : x in U_N, s + K = f(x)}, well defined as U cap S = K; T(x +
    s) = Tx lies in U exactly when f(Tx) = 0.  So U -> (U_N, K, f) is one
    to one onto the triples with f(T U_N) = 0, and only N is walked, in
    each dimension k - d, d = dim K; the tally of that walk is kept per
    (N, k - d, p) and read by every shape with the same N.  T^j U = T^j
    U_N for j >= 1, so U's type is U_N's with d parts 1 added.  T^j V cap
    U is the x in U_N cap T^j N with f(x) = 0, so rank T^j(V/U) = rank
    T^j(N/U_N) + rank(f on U_N cap T^j N) for j >= 1, and dim V/U = dim
    N/U_N + m - d.  f is a map from U_N/TU_N, where U_N cap T^j N has an
    image of dimension delta_j (`_tally`); `_maps` counts the maps by
    their ranks on that flag, and K takes [m, d]_p values.  A shape with
    no part 1 has S = 0 and walks exactly as without the split.

    A table whose walk, or whose total, passes the leaf budget of
    `_invariant_bases` raises CapExceededError naming this shape and k,
    and no table is kept for it, nor a tally for a walk that raised."""
    n = shape.weight
    if k == 0:  # the zero submodule alone
        return {(shape, ZERO): 1}
    if n >= k > n - k:
        return {(sub, quo): c for (quo, sub), c in _type_tables(shape, n - k, p).items()}
    m = shape.parts.count(1)
    rest = Partition(shape.parts[: len(shape.parts) - m])
    dims = range(max(0, k - rest.weight), min(k, m) + 1)  # d = dim K
    try:
        tallies = [(d, _tally(rest, k - d, p)) for d in dims]
    except CapExceededError:
        raise _over_budget(shape, k, p) from None
    table: dict[tuple[Partition, Partition], int] = {}
    for d, tally in tallies:
        spaces = gaussian_binomial(m, d, p)  # the choices of K
        for (quo, sub, deltas), count in tally.items():
            sub_type = _type((sub[0] + d, *sub[1:]))
            for added, maps in _maps(deltas, m - d, p):
                key = _type(tuple(map(add, quo, added))), sub_type
                table[key] = table.get(key, 0) + count * spaces * maps
    if sum(table.values()) > MAX_LEAVES:
        raise _over_budget(shape, k, p)
    return table


def hall_number(outer: Partition, quotient: Partition, sub: Partition, p: int) -> int:
    """Number of submodules of M(outer) of type `sub` with quotient type
    `quotient`, over F_p.  Zero when the weights do not match; an
    unsupported prime raises ValueError whatever the weights, and an
    outer weight above `weight_cap(p)` raises CapExceededError."""
    if quotient.weight + sub.weight != outer.weight:
        weight_cap(p)  # rejects an unsupported prime
        return 0
    _check_cap(outer.weight, p)  # checks the prime first
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
