"""The machine-independent contracts that ROADMAP.md lists, each pinned once.

Every value here is one of those contracts, a count or a digest that no
host's speed moves.  It changes only in a benchmark change made first and
on its own, never to make some other change pass."""

import hashlib
import json
import subprocess
import sys
from collections import Counter

import pytest

from hallzero import algebra, oracle
from hallzero.degeneration import DegPoset, moebius_row, partitions_of
from hallzero.errors import CapExceededError
from hallzero.oracle import count_all_subspaces, hall_number_table, weight_cap

PRIMES = (2, 3, 5, 7, 11, 13)
TABLES = [
    (p, shape, k)
    for p in PRIMES
    for n in range(weight_cap(p) + 1)
    for shape in partitions_of(n)
    for k in range(n + 1)
]
TABLES_DIGEST = "ed873d746b30ccba63d4f292b634af1f06a5421f6ed4a28e2142f82c560207ba"


def oracle_tables(reverse=False):
    """Build every table in TABLES, backwards if `reverse`, from oracle memos
    cleared as in a fresh process.  Returns the number of calls the leaf
    budget refuses and the digest of the tables and refusals, in TABLES order."""
    for memo in (oracle._type_tables, oracle._tally, oracle._maps, oracle._type):
        memo.cache_clear()
    out = {}
    for p, shape, k in reversed(TABLES) if reverse else TABLES:
        try:
            table = hall_number_table(shape, p, dim=k)
            out[p, shape, k] = sorted([str(q), str(s), c] for (q, s), c in table.items())
        except CapExceededError as exc:
            out[p, shape, k] = str(exc)
    digest = hashlib.sha256()
    for key in TABLES:
        digest.update(json.dumps(out[key]).encode())
    return sum(isinstance(got, str) for got in out.values()), digest.hexdigest()


def test_every_oracle_table_up_to_the_weight_caps(spied_calls):
    # hall_number_table(shape, p, dim=k) for every shape and k, at p = 2 and
    # 3 up to weight 8 and at p = 5, 7, 11 and 13 up to weight 6: 1,616
    # tables and the messages of the 10 calls the leaf budget refuses.  The
    # walks make 6,612 `_rows_with_pivot` calls and the tallies and walks
    # 14,960 `_echelon` calls, counts of the enumeration's and the
    # classification's work.
    calls, echelons, (refused, digest) = spied_calls(
        oracle_tables, "_rows_with_pivot", "_echelon"
    )
    got = (refused, len(calls), len(echelons), digest)
    assert got == (10, 6612, 14960, TABLES_DIGEST), got


def test_every_oracle_table_built_in_reverse_order():
    # The same tables with p, the weights and k descending, each weight's
    # shapes ascending.  A table reads the walks of its blocks of size >= 2
    # that earlier tables of other shapes kept, so a walk kept under the
    # wrong key or changed by its reader moves the digest.
    got = oracle_tables(reverse=True)
    assert got == (10, TABLES_DIGEST), got


def test_constant_term_census_up_to_weight_12():
    # All 167,849 triples (a, b, g) with |a| + |b| = |g| <= 12.  Each pair's
    # folded terms are kept after its first constant term and read by every
    # later one, so a stale or mis-keyed entry moves these counts; both
    # memos are cleared so that every pair is folded here.
    algebra._pair.cache_clear()
    moebius_row.cache_clear()
    census = Counter(
        algebra.constant_term(a, b, g)
        for n in range(13)
        for g in partitions_of(n)
        for k in range(n + 1)
        for a in partitions_of(k)
        for b in partitions_of(n - k)
    )
    assert census == {1: 4887, 0: 160993, -1: 1969}, census


def test_every_degeneration_poset_up_to_the_weight_cap():
    # The elements and zeta rows of DegPoset(n) for n = 0..30, hashed in
    # order.  The rows are the closure of the covers; at n = 19..30 no other
    # test compares them with the order, so this digest pins them row for
    # row.
    digest = hashlib.sha256()
    for n in range(31):
        p = DegPoset(n)
        rows = [[str(e) for e in p.elements], [format(r, "x") for r in p.zeta]]
        digest.update(json.dumps(rows).encode())
    expected = "481deb5dd1eb48e827baac2e076995a0f7c0d810b6e50fbc657a19e20b90be53"
    assert digest.hexdigest() == expected, digest.hexdigest()


@pytest.mark.parametrize("n, p, k", [(6, 13, 2), (6, 11, 2), (8, 3, 3)])
def test_counting_every_subspace_past_the_leaf_budget_raises(n, p, k):
    # F_13^6 has about 1.3e10 subspaces.  Each count raises in the walk the
    # README names, in milliseconds, not after hours.
    with pytest.raises(CapExceededError, match=f"walk of the dimension-{k} submodules"):
        count_all_subspaces(n, p)


SHARED_PARSES = """
import gc
from hallzero.degeneration import partitions_of
from hallzero.partitions import ZERO, _parsed, parse_partition
shapes = [p for n in range(21) for p in partitions_of(n)]
texts = [t for p in shapes for t in (str(p), ",".join(map(str, p.parts)) or "0")]
held = [parse_partition(t) for t in texts]
assert len(texts) == 5428, len(texts)
assert all(parse_partition(t) is q for t, q in zip(texts, held))
assert held[::2] == shapes and held[1::2] == shapes
del held
gc.collect()
left = dict(_parsed)
assert left == {"()": ZERO} and left["()"] is ZERO, (len(left), list(left)[:5])
"""


def test_parsed_partitions_are_shared_and_never_kept_alone():
    # Every partition up to weight 20 in both text forms, 5,428 texts.
    # While the results are held, each text parses again to the same
    # object; once they are dropped, the parser's memo holds only what the
    # package itself keeps alive, ZERO.  It runs in a fresh interpreter,
    # since other tests in this one hold parsed partitions.
    run = subprocess.run(
        [sys.executable, "-c", SHARED_PARSES], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
