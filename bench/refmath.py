"""Reference combinatorics the benchmark checks answers against.

Nothing here imports hallzero: the answer checks must not trust the code
they check.  Partitions are plain tuples of weakly decreasing positive
integers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, in descending lexicographic order."""
    out: list[tuple[int, ...]] = []

    def emit(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for v in range(min(remaining, largest), 0, -1):
            emit(remaining - v, v, prefix + (v,))

    emit(n, n, ())
    return tuple(out)


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(sum(1 for v in parts if v >= i) for i in range(1, parts[0] + 1))


def add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


@lru_cache(maxsize=None)
def _conjugate_prefix_sums(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Prefix sums of the conjugate, padded to the weight."""
    sums, total = [], 0
    conj = conjugate(parts)
    for i in range(sum(parts)):
        total += conj[i] if i < len(conj) else 0
        sums.append(total)
    return tuple(sums)


def degenerates_to(lam: tuple[int, ...], nu: tuple[int, ...]) -> bool:
    """M(lam) degenerates to M(nu): conjugate prefix sums compare pointwise.
    Both partitions must have the same weight."""
    return all(
        x <= y for x, y in zip(_conjugate_prefix_sums(lam), _conjugate_prefix_sums(nu))
    )


def text(parts: tuple[int, ...]) -> str:
    """Exponent form, e.g. (3^2,1); the zero partition is ()."""
    terms, i = [], 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        terms.append(f"{parts[i]}^{j - i}" if j - i > 1 else f"{parts[i]}")
        i = j
    return "(" + ",".join(terms) + ")"


def parse(s: str) -> tuple[int, ...]:
    """Inverse of :func:`text` (exponent form only, as the CLI prints it)."""
    body = s.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not an exponent-form partition: {s!r}")
    out: list[int] = []
    for term in filter(None, body[1:-1].split(",")):
        value, _, count = term.partition("^")
        out.extend([int(value)] * (int(count) if count else 1))
    return tuple(out)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gaussian_poly(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of the Gaussian binomial [n, k]_t, constant term first."""
    if k < 0 or k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    # [n, k] = [n-1, k-1] + t^k [n-1, k]
    lo, hi = gaussian_poly(n - 1, k - 1), gaussian_poly(n - 1, k)
    out = [0] * max(len(lo), k + len(hi))
    for d, c in enumerate(lo):
        out[d] += c
    for d, c in enumerate(hi):
        out[k + d] += c
    return tuple(out)


def submodule_count(lam: tuple[int, ...], nu: tuple[int, ...], q: int) -> int:
    """Number of submodules of type nu in the module of type lam over F_q.

    The classical Birkhoff-Delsarte product over conjugate parts:
    prod_i q^(nu'_{i+1} (lam'_i - nu'_i)) [lam'_i - nu'_{i+1}, nu'_i - nu'_{i+1}]_q.
    Summed over nu of weight k it counts all invariant k-subspaces; by
    duality it also counts the submodules with quotient type nu.
    """
    lc, nc = conjugate(lam), conjugate(nu)
    length = max(len(lc), len(nc)) + 1
    lc = lc + (0,) * (length - len(lc))
    nc = nc + (0,) * (length - len(nc))
    out = 1
    for i in range(length - 1):
        if nc[i] > lc[i]:
            return 0
        out *= q ** (nc[i + 1] * (lc[i] - nc[i])) * gaussian_binomial(
            lc[i] - nc[i + 1], nc[i] - nc[i + 1], q
        )
    return out
