"""Brute-force Hall number oracle over small prime fields.

Counts submodules of a nilpotent module in Jordan form by enumerating
reduced row echelon bases dimension by dimension and keeping the
invariant ones.  Every subspace has a unique reduced echelon basis, so
nothing is counted twice.  All arithmetic is exact modular arithmetic;
numpy is used to batch the enumeration, never for approximate math.

Vectors are rows throughout, so the operator acts by right
multiplication with the transpose of the Jordan matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import CapExceededError
from .partitions import Partition

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
SMALL_PRIME_WEIGHT_CAP = 8  # p in {2, 3}
LARGE_PRIME_WEIGHT_CAP = 6  # p >= 5
_BATCH = 1 << 16


@dataclass(frozen=True)
class PrimeField:
    """Prime field of one of the supported sample primes."""

    p: int

    def __post_init__(self) -> None:
        if self.p not in SUPPORTED_PRIMES:
            raise ValueError(
                f"unsupported prime {self.p}; supported: {SUPPORTED_PRIMES}"
            )

    @property
    def weight_cap(self) -> int:
        return SMALL_PRIME_WEIGHT_CAP if self.p <= 3 else LARGE_PRIME_WEIGHT_CAP

    def inverse(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)


def _as_field(p: "int | PrimeField") -> PrimeField:
    return p if isinstance(p, PrimeField) else PrimeField(p)


def _check_cap(weight: int, field: PrimeField, cap: int | None) -> None:
    limit = field.weight_cap if cap is None else cap
    if weight > limit:
        raise CapExceededError(
            f"weight {weight} exceeds the enumeration cap {limit} for p={field.p}"
        )


def _jordan_matrix(parts: tuple[int, ...], n: int) -> np.ndarray:
    t = np.zeros((n, n), dtype=np.int64)
    offset = 0
    for size in parts:
        for i in range(size - 1):
            t[offset + i, offset + i + 1] = 1
        offset += size
    return t


class JordanModule:
    """A nilpotent operator in Jordan form, block sizes given by a partition."""

    def __init__(self, shape: Partition, p: "int | PrimeField"):
        self.shape = shape
        self.field = _as_field(p)
        self.dim = shape.weight
        self.matrix = _jordan_matrix(shape.parts, self.dim)
        self._row_action = np.ascontiguousarray(self.matrix.T)
        self._row_powers = [np.eye(self.dim, dtype=np.int64), self._row_action]

    def row_action_power(self, i: int) -> np.ndarray:
        """i-th power of the operator acting on row vectors."""
        while len(self._row_powers) <= i:
            nxt = self._row_powers[-1] @ self._row_action % self.field.p
            self._row_powers.append(nxt)
        return self._row_powers[i]

    def __repr__(self) -> str:
        return f"JordanModule(shape={self.shape}, p={self.field.p})"


@dataclass(frozen=True)
class Subspace:
    """A subspace, stored as its unique reduced row echelon basis."""

    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, v in enumerate(row) if v) for row in self.basis)


def _rank_mod(a: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p."""
    m = a % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = None
        for i in range(r, rows):
            if m[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = m[r] * inv % p
        for i in range(r + 1, rows):
            if m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        r += 1
    return r


def _type_from_kernel_dims(mat: np.ndarray, p: int, space_dim: int) -> Partition:
    """Jordan type from kernel dimensions of successive powers.

    The i-th conjugate part is dim ker(mat^i) - dim ker(mat^(i-1)).
    Raises if the kernel dimensions stall before filling the space,
    i.e. if the operator is not nilpotent.
    """
    if space_dim == 0:
        return Partition()
    mat = mat % p
    conj: list[int] = []
    prev = 0
    power = mat.copy()
    for _ in range(space_dim):
        kd = space_dim - _rank_mod(power, p)
        step = kd - prev
        if step == 0:
            break
        conj.append(step)
        prev = kd
        if kd == space_dim:
            return Partition(tuple(conj)).conjugate()
        power = power @ mat % p
    raise ValueError("operator is not nilpotent")


def jordan_type(matrix, p: "int | PrimeField") -> Partition:
    """Jordan type of a nilpotent square matrix over F_p."""
    field = _as_field(p)
    m = np.asarray(matrix, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return _type_from_kernel_dims(m, field.p, m.shape[0])


def _free_positions(pivots: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    cols = set(pivots)
    return [
        (r, c)
        for r, pc in enumerate(pivots)
        for c in range(pc + 1, n)
        if c not in cols
    ]


def _rref_batches(
    n: int, k: int, p: int, pivots: tuple[int, ...]
) -> Iterator[np.ndarray]:
    """Batches of shape (N, k, n) covering every reduced echelon basis
    with the given pivot columns exactly once."""
    free = _free_positions(pivots, n)
    total = p ** len(free)
    template = np.zeros((k, n), dtype=np.int64)
    for r, c in enumerate(pivots):
        template[r, c] = 1
    for start in range(0, total, _BATCH):
        count = min(_BATCH, total - start)
        batch = np.repeat(template[None, :, :], count, axis=0)
        codes = np.arange(start, start + count, dtype=np.int64)
        for t, (r, c) in enumerate(free):
            batch[:, r, c] = (codes // p**t) % p
        yield batch


def _invariant_mask(
    batch: np.ndarray, pivots: np.ndarray, row_action: np.ndarray, p: int
) -> np.ndarray:
    """Which bases in the batch span an invariant subspace.

    The image of each basis row lies in the span iff it is reproduced by
    its own coordinates at the pivot columns (a property of reduced
    echelon bases).
    """
    w = batch @ row_action % p
    recon = w[:, :, pivots] @ batch % p
    return (recon == w).all(axis=(1, 2))


def _invariant_bases(
    module: JordanModule, k: int
) -> Iterator[tuple[np.ndarray, tuple[int, ...]]]:
    n = module.dim
    p = module.field.p
    if k == 0:
        yield np.zeros((0, n), dtype=np.int64), ()
        return
    for pivots in itertools.combinations(range(n), k):
        pv = np.asarray(pivots, dtype=np.intp)
        for batch in _rref_batches(n, k, p, pivots):
            mask = _invariant_mask(batch, pv, module._row_action, p)
            for idx in np.nonzero(mask)[0]:
                yield batch[idx], pivots


def _restricted_type(
    module: JordanModule, basis: np.ndarray, pivots: tuple[int, ...]
) -> Partition:
    """Jordan type of the operator restricted to the invariant subspace."""
    k = len(pivots)
    if k == 0:
        return Partition()
    p = module.field.p
    w = basis @ module._row_action % p
    action = w[:, np.asarray(pivots, dtype=np.intp)]
    return _type_from_kernel_dims(action, p, k)


def _quotient_type(
    module: JordanModule, basis: np.ndarray, pivots: tuple[int, ...]
) -> Partition:
    """Jordan type of the operator induced on the quotient space.

    dim ker of the induced i-th power equals dim of the preimage of the
    subspace under the i-th power, minus the subspace dimension.
    """
    n = module.dim
    k = len(pivots)
    if k == n:
        return Partition()
    p = module.field.p
    pv = np.asarray(pivots, dtype=np.intp)
    conj: list[int] = []
    prev = 0
    for i in range(1, n - k + 1):
        ri = module.row_action_power(i)
        reduced = (ri - ri[:, pv] @ basis) % p
        kd = (n - _rank_mod(reduced, p)) - k
        conj.append(kd - prev)
        prev = kd
        if kd == n - k:
            break
    return Partition(tuple(conj)).conjugate()


def enumerate_invariant_subspaces(
    module: JordanModule, cap: int | None = None
) -> Iterator[Subspace]:
    """Stream every invariant subspace exactly once (order unspecified)."""
    _check_cap(module.dim, module.field, cap)
    for k in range(module.dim + 1):
        for basis, _ in _invariant_bases(module, k):
            yield Subspace(tuple(tuple(int(v) for v in row) for row in basis))


@lru_cache(maxsize=None)
def _type_tables(
    shape: Partition, k: int, p: int
) -> dict[tuple[Partition, Partition], int]:
    """Tally of (quotient type, subspace type) over all invariant
    dimension-k subspaces of the module of the given shape."""
    module = JordanModule(shape, p)
    counts: dict[tuple[Partition, Partition], int] = {}
    for basis, pivots in _invariant_bases(module, k):
        key = (
            _quotient_type(module, basis, pivots),
            _restricted_type(module, basis, pivots),
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def hall_number(
    outer: Partition,
    quotient: Partition,
    sub: Partition,
    p: int,
    cap: int | None = None,
) -> int:
    """Number of submodules of M(outer) of type `sub` with quotient type
    `quotient`, over F_p.  Zero when the weights do not match; an
    unsupported prime raises ValueError whatever the weights."""
    field = _as_field(p)
    if quotient.weight + sub.weight != outer.weight:
        return 0
    _check_cap(outer.weight, field, cap)
    return _type_tables(outer, sub.weight, field.p).get((quotient, sub), 0)


def hall_number_table(
    outer: Partition, p: int, dim: int | None = None, cap: int | None = None
) -> dict[tuple[Partition, Partition], int]:
    """All (quotient type, sub type) counts for M(outer) at once."""
    field = _as_field(p)
    _check_cap(outer.weight, field, cap)
    dims = range(outer.weight + 1) if dim is None else (dim,)
    merged: dict[tuple[Partition, Partition], int] = {}
    for k in dims:
        for key, value in _type_tables(outer, k, field.p).items():
            merged[key] = merged.get(key, 0) + value
    return merged


def count_all_subspaces(n: int, p: int, cap: int | None = None) -> int:
    """Total number of subspaces of F_p^n, by running the enumeration."""
    field = _as_field(p)
    _check_cap(n, field, cap)
    total = 0
    for k in range(n + 1):
        if k == 0:
            total += 1
            continue
        for pivots in itertools.combinations(range(n), k):
            for batch in _rref_batches(n, k, field.p, pivots):
                total += batch.shape[0]
    return total


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-space over a q-element
    field, by the exact product formula."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den
