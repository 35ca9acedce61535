"""Seeded inputs and answer checks for the four workloads.

Inputs depend only on the seed; the program under test receives only the
generated inputs.  Every check here uses :mod:`refmath`, never hallzero.
Each ``check_*`` returns one failure flag and one canonical integer tuple
per operation; the tuples feed the answer digest.
"""

from __future__ import annotations

import hashlib
import json
import random

import refmath as rm

ALGEBRA = "algebra-session"
ORACLE = "oracle-sweep"
VERIFY = "verify"
CLI = "cli-oneshot"
WORKLOADS = (ALGEBRA, ORACLE, VERIFY, CLI)

# The verify workload is one fixed command; its operation count is the
# number of items it checks, read from its own report.
VERIFY_ARGV = ("verify", "--max-weight", "5", "--json")


def digest(answers: list[tuple[int, ...]]) -> str:
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


def _pick(rng: random.Random, n: int) -> tuple[int, ...]:
    return rng.choice(rm.partitions(n))


def _up_set(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [g for g in rm.partitions(sum(lam)) if rm.degenerates_to(lam, g)]


def _flat(terms: dict[tuple[int, ...], int]) -> tuple[int, ...]:
    """Canonical integer tuple of an algebra element: (len, *parts, coeff)..."""
    return tuple(v for g, c in sorted(terms.items()) for v in (len(g), *g, c))


# --- algebra-session -------------------------------------------------------


def make_algebra(
    seed: int, weights: range = range(12, 19), products: int = 54, constants: int = 3
) -> dict:
    """A library session of h0_multiply products and constant_term queries.

    Weights stop at 18.  At 19 to 22 the posets' zeta and Moebius tables
    more than double the session's memory (88 MB against 39 MB peak RSS),
    and on a shared 2-vCPU host its times then spread beyond 0.25 between
    runs of the same code; up to 18 poset builds are still the largest
    share of a pass.

    Target weights ascend block by block, so each poset of weight >= 12 is
    first built by the first operation of its block: the same build pattern
    on every seed.  Each product (a, b) brings `constants` queries (a, b, g):
    g = a + b once, g drawn from the up-set of a + b for half of the rest,
    and g drawn from all partitions of the weight for the others.

    A constant term costs |supp mu(a)| * |supp mu(b)| lookups, and about half
    of the pairs have at most 4 of them.  With three queries per product the
    median operation sits at the 67th percentile of the queries, inside the
    next cost level rather than on its edge, so op_p50_ms does not jump
    between seeds.
    """
    rng = random.Random(seed)
    ops: list[list] = []
    for w in weights:
        block: list[list] = []
        for _ in range(products):
            wa = rng.randint(1, w - 1)
            a, b = _pick(rng, wa), _pick(rng, w - wa)
            block.append(["mul", rm.text(a), rm.text(b)])
            ext = rm.add(a, b)
            ups = _up_set(ext)
            gs = [ext]
            for i in range(constants - 1):
                gs.append(rng.choice(ups) if i % 2 == 0 else _pick(rng, w))
            block.extend(["ct", rm.text(a), rm.text(b), rm.text(g)] for g in gs)
        rng.shuffle(block)
        ops.extend(block)
    return {"workload": ALGEBRA, "seed": seed, "ops": ops}


def check_algebra(inputs: dict, answers: list, cache: dict) -> tuple[list[bool], list[tuple]]:
    """Every product has coefficient 1 on u_{a+b} and its support lies above
    a + b; each constant term equals the product's coefficient on u_g."""
    ops = inputs["ops"]
    products: dict[tuple[str, str], dict[tuple[int, ...], int]] = {}
    failed, canon = [], []
    for op, ans in zip(ops, answers):
        if op[0] != "mul":
            continue
        terms = {tuple(parts): coeff for parts, coeff in ans}
        products[(op[1], op[2])] = terms
    for op, ans in zip(ops, answers):
        if op[0] == "mul":
            terms = products[(op[1], op[2])]
            key = (op[1], op[2], tuple(sorted(terms.items())))
            if key not in cache:
                ext = rm.add(rm.parse(op[1]), rm.parse(op[2]))
                cache[key] = terms.get(ext) == 1 and all(
                    c != 0 and rm.degenerates_to(ext, g) for g, c in terms.items()
                )
            failed.append(not cache[key])
            canon.append(_flat(terms))
        else:
            expected = products[(op[1], op[2])].get(rm.parse(op[3]), 0)
            failed.append(not isinstance(ans, int) or ans != expected)
            canon.append((ans,))
    return failed, canon


# --- oracle-sweep ----------------------------------------------------------

# (weight, prime, shape class) -> the (shape, k) tables queried there.
# Few-part shapes (at most two parts) are enumeration-bound; many-part
# shapes (at least n - 2 parts) are classification-bound.  Each table of
# these cells was timed once at the baseline commit on a 2-vCPU x86 guest,
# and the five below sit at evenly spaced quantiles of the times of those
# that took at most 0.2 s.  With five per cell the costs have no wide gap
# at the 50th and 75th percentile operation, so op_p50_ms and op_tail_ms
# do not jump between two tables.  Larger tables, such as (7) or (1^7) at
# k = 3, p = 3, take 1 s to 55 s each and are left out so that a pass
# stays near 2.5 s and a run makes about ten.
ORACLE_TABLES: dict[tuple[int, int, str], tuple[tuple[tuple[int, ...], int], ...]] = {
    (6, 2, "few"): (((4, 2), 1), ((5, 1), 5), ((6,), 4), ((5, 1), 3), ((4, 2), 2)),
    (6, 2, "many"): (((3, 1, 1, 1), 1), ((1, 1, 1, 1, 1, 1), 1), ((2, 2, 1, 1), 2),
                     ((2, 1, 1, 1, 1), 4), ((1, 1, 1, 1, 1, 1), 4)),
    (6, 3, "few"): (((3, 3), 1), ((4, 2), 5), ((6,), 2), ((3, 3), 4), ((6,), 3)),
    (6, 3, "many"): (((2, 2, 1, 1), 5), ((2, 1, 1, 1, 1), 1), ((3, 1, 1, 1), 2), ((2, 2, 1, 1), 4),
                     ((2, 1, 1, 1, 1), 4)),
    (7, 2, "few"): (((4, 3), 1), ((6, 1), 6), ((7,), 5), ((6, 1), 3), ((5, 2), 4)),
    (7, 2, "many"): (((2, 2, 1, 1, 1), 6), ((1, 1, 1, 1, 1, 1, 1), 1), ((2, 2, 1, 1, 1), 2),
                     ((2, 2, 1, 1, 1), 3), ((2, 1, 1, 1, 1, 1), 3)),
    (7, 3, "few"): (((4, 3), 1), ((7,), 6), ((6, 1), 6), ((5, 2), 2), ((4, 3), 5)),
    (7, 3, "many"): (((3, 1, 1, 1, 1), 6), ((2, 2, 1, 1, 1), 6), ((2, 1, 1, 1, 1, 1), 1),
                     ((2, 1, 1, 1, 1, 1), 6), ((1, 1, 1, 1, 1, 1, 1), 6)),
    (8, 2, "few"): (((4, 4), 1), ((8,), 7), ((5, 3), 2), ((8,), 6), ((4, 4), 3)),
    (8, 2, "many"): (((2, 2, 1, 1, 1, 1), 7), ((3, 1, 1, 1, 1, 1), 7), ((2, 1, 1, 1, 1, 1, 1), 7),
                     ((2, 2, 1, 1, 1, 1), 2), ((3, 1, 1, 1, 1, 1), 2)),
    (8, 3, "few"): (((4, 4), 1), ((6, 2), 1), ((6, 2), 7), ((8,), 7), ((5, 3), 7)),
    (8, 3, "many"): (((2, 2, 1, 1, 1, 1), 1), ((2, 2, 1, 1, 1, 1), 7), ((3, 1, 1, 1, 1, 1), 7),
                     ((2, 1, 1, 1, 1, 1, 1), 1), ((2, 1, 1, 1, 1, 1, 1), 7)),
}


def make_oracle(seed: int, tables: dict | None = None) -> dict:
    """One hall_number query per table of ORACLE_TABLES, so every seed scans
    and classifies the same tables and reuse stays at 1.  The seed draws
    each query's sub type and quotient type, among the types that occur in
    the shape, and the order of the queries."""
    rng = random.Random(seed)
    ops: list[list] = []
    for (n, p, _), cell in sorted((tables or ORACLE_TABLES).items()):
        for lam, k in cell:
            subs = [nu for nu in rm.partitions(k) if rm.submodule_count(lam, nu, p)]
            quos = [mu for mu in rm.partitions(n - k) if rm.submodule_count(lam, mu, p)]
            ops.append(["hall", rm.text(lam), rm.text(rng.choice(quos)), rm.text(rng.choice(subs)), p])
    rng.shuffle(ops)
    return {"workload": ORACLE, "seed": seed, "ops": ops}


def table_ok(lam: tuple[int, ...], k: int, p: int, rows: list) -> bool:
    """Both marginals of one (shape, k, p) table match the submodule counts."""
    n = sum(lam)
    by_sub: dict[tuple[int, ...], int] = {}
    by_quo: dict[tuple[int, ...], int] = {}
    for quo, sub, count in rows:
        quo, sub = tuple(quo), tuple(sub)
        if sum(quo) != n - k or sum(sub) != k or count <= 0:
            return False
        by_sub[sub] = by_sub.get(sub, 0) + count
        by_quo[quo] = by_quo.get(quo, 0) + count
    return all(
        by_sub.get(nu, 0) == rm.submodule_count(lam, nu, p) for nu in rm.partitions(k)
    ) and all(
        by_quo.get(mu, 0) == rm.submodule_count(lam, mu, p) for mu in rm.partitions(n - k)
    )


def check_oracle(
    inputs: dict, answers: list, tables: dict, cache: dict
) -> tuple[list[bool], list[tuple]]:
    """Each table of the queried (outer, k, p) sums, by sub type and by
    quotient type, to the Birkhoff-Delsarte submodule counts; the answer is
    the table's entry."""
    failed, canon = [], []
    for (_, outer, quo, sub, p), ans in zip(inputs["ops"], answers):
        lam, mu, nu = rm.parse(outer), rm.parse(quo), rm.parse(sub)
        key = f"{outer}|{sum(nu)}|{p}"
        rows = tables.get(key, [])
        if key not in cache:
            cache[key] = table_ok(lam, sum(nu), p, rows)
        entry = next((c for q, s, c in rows if tuple(q) == mu and tuple(s) == nu), 0)
        failed.append(not cache[key] or ans != entry)
        canon.append((ans,))
    return failed, canon


def oracle_scan_space(inputs: dict) -> int:
    """Brute-force candidate space of the distinct tables asked for."""
    keys = {(op[1], sum(rm.parse(op[3])), op[4]) for op in inputs["ops"]}
    return sum(rm.gaussian_binomial(sum(rm.parse(o)), k, p) for o, k, p in keys)


# --- verify ----------------------------------------------------------------


def verify_counts(report: dict) -> dict[str, int]:
    """Item counts from `verify --json` details, e.g. '74 products checked'
    and '340 feasible triples checked, 55 infeasible'."""
    counts = {}
    for check in report["checks"]:
        numbers = [int(tok.strip(",")) for tok in check["detail"].split() if tok.strip(",").isdigit()]
        counts[check["name"]] = numbers[0] if numbers else -1
        if check["name"] == "interpolation_agreement":
            counts["infeasible"] = numbers[1] if len(numbers) > 1 else -1
    return counts


def check_verify(report: dict | None, exit_code: int, recorded: dict[str, int]) -> tuple[bool, tuple]:
    """ok is true and every item count equals the one recorded at the
    baseline commit: 74 products, 88 triples, 131 extensions, 340 feasible
    and 55 infeasible interpolation triples."""
    if report is None:
        return True, (exit_code,)
    counts = verify_counts(report)
    good = exit_code == 0 and report.get("ok") is True and counts == recorded
    return not good, (exit_code, int(report.get("ok") is True), *(counts.get(name, -1) for name in recorded))


def verify_items(report: dict | None) -> int:
    return sum(verify_counts(report).values()) if report else 0


# --- cli-oneshot -----------------------------------------------------------

CLI_SUBCOMMANDS = ("conj", "degle", "genext", "union", "fmap", "hallpoly", "h0mul", "const", "poset", "hallnum")
_BAD_TEXT = ("(3,,1)", "(2^)", "3,1)", "(4,x)", "((2)")


CLI_PRODUCT_WEIGHTS = (14, 18)
CLI_POSET_WEIGHTS = (14, 15, 16)


def make_cli(seed: int) -> dict:
    """One-shot `python -m hallzero ... --json` calls, each its own process.

    Mostly cheap calls, const/h0mul calls that rebuild posets in every
    process, a poset written to an empty cache and then read back, and
    four documented errors: 42 calls, enough for a 75th-percentile tail.
    `kind` says how the parent checks the answer.
    """
    rng = random.Random(seed)
    calls: list[dict] = []
    for _ in range(2):
        for w in (6, 9, 12):
            lam = _pick(rng, w)
            calls.append({"kind": "conj", "argv": ["conj", rm.text(lam)], "expect": list(rm.conjugate(lam))})
            a, b = _pick(rng, w), _pick(rng, w)
            calls.append({"kind": "degle", "argv": ["degle", rm.text(a), rm.text(b)], "expect": rm.degenerates_to(a, b)})
            a, b = _pick(rng, rng.randint(3, 8)), _pick(rng, rng.randint(3, 8))
            calls.append({"kind": "genext", "argv": ["genext", rm.text(a), rm.text(b)], "expect": list(rm.add(a, b))})
    for w in (5, 7, 9, 11):
        a, b = _pick(rng, w), _pick(rng, rng.randint(2, 6))
        calls.append({"kind": "union", "argv": ["union", rm.text(a), rm.text(b)],
                      "expect": sorted(a + b, reverse=True)})
        lam = _pick(rng, w)
        calls.append({"kind": "fmap", "argv": ["fmap", rm.text(lam)], "expect": _up_set(lam)})
    # Closed forms: g^{(1^n)}_{(1^a),(1^b)}(t) = [n, b]_t and g^{(n)}_{(a),(b)}(t) = 1.
    for _ in range(2):
        a, b = rng.choice(((1, 1), (1, 2), (2, 1)))
        calls.append({
            "kind": "hallpoly",
            "argv": ["hallpoly", rm.text((1,) * a), rm.text((1,) * b), rm.text((1,) * (a + b))],
            "expect": list(rm.gaussian_poly(a + b, b)),
        })
        n = rng.randint(2, 5)  # weight 6 at p = 3 would raise this call's peak RSS by a quarter
        a = rng.randint(1, n - 1)
        calls.append({
            "kind": "hallpoly",
            "argv": ["hallpoly", rm.text((a,)), rm.text((n - a,)), rm.text((n,))],
            "expect": [1],
        })
    for pair, w in enumerate(CLI_PRODUCT_WEIGHTS):
        wa = rng.randint(2, w - 2)
        a, b = _pick(rng, wa), _pick(rng, w - wa)
        ext = rm.add(a, b)
        calls.append({"kind": "h0mul", "argv": ["h0mul", rm.text(a), rm.text(b)], "pair": pair, "expect": list(ext)})
        for g in (ext, rng.choice(_up_set(ext))):
            calls.append({"kind": "const", "argv": ["const", rm.text(a), rm.text(b), rm.text(g)], "pair": pair, "target": list(g)})
    n = rng.choice(CLI_POSET_WEIGHTS)
    for _ in range(2):
        calls.append({"kind": "poset", "argv": ["poset", str(n), "--cache-dir", "{cache}"], "expect": len(rm.partitions(n))})
    for bad in rng.sample(_BAD_TEXT, 2):
        calls.append({"kind": "error", "argv": ["union", bad, rm.text(_pick(rng, 3))], "exit": 2})
    for p in rng.sample((2, 3, 5, 7), 2):
        big = 9 if p <= 3 else 7
        calls.append({"kind": "error", "argv": ["hallnum", rm.text(_pick(rng, big)), rm.text((big - 1,)), "(1)", "--p", str(p)], "exit": 3})
    rng.shuffle(calls)
    for c in calls:
        c["argv"].append("--json")
    return {"workload": CLI, "seed": seed, "calls": calls}


def _check_call(call: dict, doc: dict, products: dict, posets: list) -> tuple[bool, tuple]:
    kind = call["kind"]
    if kind in ("conj", "genext", "union"):
        answer = rm.parse(doc["result"])
        return list(answer) == call["expect"], answer
    if kind == "degle":
        return doc["result"] is call["expect"], (int(doc["result"]),)
    if kind == "fmap":
        terms = {rm.parse(t["partition"]): t["coeff"] for t in doc["terms"]}
        return terms == {tuple(g): 1 for g in call["expect"]}, _flat(terms)
    if kind == "hallpoly":
        answer = tuple(doc["coefficients"])
        return doc["feasible"] is True and list(answer) == call["expect"], answer
    if kind == "h0mul":
        terms = products[call["pair"]]
        ext = tuple(call["expect"])
        return terms.get(ext) == 1 and all(rm.degenerates_to(ext, g) for g in terms), _flat(terms)
    if kind == "const":
        product = products.get(call["pair"])
        return product is not None and doc["result"] == product.get(tuple(call["target"]), 0), (doc["result"],)
    # poset: the enumeration is right and the cached read equals the fresh build
    elements = [rm.parse(t) for t in doc["elements"]]
    ok = elements == list(rm.partitions(int(call["argv"][1]))) and len(posets) == 2 and posets[0] == posets[1]
    return ok, (len(elements), len(doc["hasse_edges"]))


def check_cli(inputs: dict, results: list[tuple[int, str]]) -> tuple[list[bool], list[tuple]]:
    """Exit codes are as documented and each answer matches its closed form,
    its own h0mul product, or the other read of the same poset.  Output
    that does not parse as the documented JSON is a failure."""
    calls = inputs["calls"]
    docs: list[dict | None] = []
    for code, out in results:
        try:
            docs.append(json.loads(out) if code == 0 else None)
        except ValueError:
            docs.append(None)
    products: dict[int, dict[tuple[int, ...], int]] = {}
    for call, doc in zip(calls, docs):
        if call["kind"] == "h0mul" and doc is not None:
            try:
                products[call["pair"]] = {rm.parse(t["partition"]): t["coeff"] for t in doc["terms"]}
            except (KeyError, TypeError, ValueError):
                pass
    posets = [doc for call, doc in zip(calls, docs) if call["kind"] == "poset"]
    failed, canon = [], []
    for call, (code, _), doc in zip(calls, results, docs):
        ok, answer = False, ()
        if call["kind"] == "error":
            ok = code == call["exit"]
        elif code == 0 and doc is not None:
            try:
                ok, answer = _check_call(call, doc, products, posets)
            except (KeyError, TypeError, ValueError):
                pass
        failed.append(not ok)
        canon.append((code, *answer))
    return failed, canon
