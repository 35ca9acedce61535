"""One fresh benchmark process.  Started only by run.py, one at a time.

    child.py session INPUTS OUT SPEED [SPANS]  run an algebra-session or
                                               oracle-sweep op list once
    child.py setup INPUTS SPEED                import and parse, then exit
    child.py run SPEED ARGV...                 `python -m hallzero ARGV`
    child.py cli SPANS ARGV...                 the same, traced

Times are time.perf_counter() readings, which on Linux share one
monotonic clock across processes, so the parent can subtract its own
spawn time from them.  Every untraced mode writes speed-probe samples
(see hostspeed.py) to SPEED, so that the parent can scale its times.
Only traced modes import the tracer, so an untraced process loads
nothing beyond the program and the probe.
"""

from __future__ import annotations

import json
import os
import sys
import time

from hostspeed import PERIOD_S, Sampler

EDGE_ROUNDS = 7  # probe rounds in the samples that open and close a process


def _import_hallzero():
    import hallzero
    import hallzero.cli  # noqa: F401  (every CLI call pays this import)

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(hallzero.__file__).startswith(src + os.sep):
        sys.exit(f"hallzero was imported from {hallzero.__file__}, not from {src}")
    return hallzero


def _parse_ops(hz, ops: list) -> list:
    parse = hz.partitions.parse_partition
    if ops and ops[0][0] == "hall":
        return [(op[0], parse(op[1]), parse(op[2]), parse(op[3]), op[4]) for op in ops]
    return [(op[0], *(parse(t) for t in op[1:])) for op in ops]


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _table_counters(hz, keys: set) -> dict:
    """Every (outer, k, p) table asked for, read back after the timed phase."""
    tables = {}
    for outer, k, p in sorted(keys):
        table = hz.oracle.hall_number_table(hz.Partition(tuple(outer)), p, dim=k)
        tables[f"{hz.Partition(tuple(outer))}|{k}|{p}"] = [
            [list(q.parts), list(s.parts), c] for (q, s), c in table.items()
        ]
    return tables


def session(inputs_path: str, out_path: str, speed_path: str, spans_path: str | None) -> None:
    speed = Sampler()
    speed.sample(EDGE_ROUNDS)
    tracer = None
    hz = _import_hallzero()
    if spans_path:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    ops = _parse_ops(hz, _load(inputs_path)["ops"])
    t_ready = time.perf_counter()
    algebra, oracle = hz.algebra, hz.oracle
    answers, starts, lat = [], [], []
    due = t_ready + PERIOD_S
    for op in ops:
        t0 = time.perf_counter()
        if t0 >= due:  # probe between operations, never inside one
            speed.sample()
            due = t0 + PERIOD_S
            t0 = time.perf_counter()
        if op[0] == "mul":
            prod = algebra.h0_multiply(hz.H0Element.basis(op[1]), hz.H0Element.basis(op[2]))
            ans = [[list(g.parts), c] for g, c in prod.items()]
        elif op[0] == "ct":
            ans = algebra.constant_term(op[1], op[2], op[3])
        else:
            ans = oracle.hall_number(op[1], op[2], op[3], op[4])
        lat.append(time.perf_counter() - t0)
        starts.append(t0)
        answers.append(ans)
    t_end = time.perf_counter()
    speed.sample(EDGE_ROUNDS)
    speed.dump(speed_path)
    if tracer:
        tracer.active = False
    counters: dict = {}
    tables: dict = {}
    muls = [op for op in ops if op[0] == "mul"]
    if muls:
        counters["algebra.product_terms"] = sum(len(a) for op, a in zip(ops, answers) if op[0] == "mul")
        counters["algebra.moebius_pairs"] = sum(
            len(hz.f_inverse(hz.H0Element.basis(op[1])).support())
            * len(hz.f_inverse(hz.H0Element.basis(op[2])).support())
            for op in muls
        )
    keys = {(op[1].parts, op[3].weight, op[4]) for op in ops if op[0] == "hall"}
    if keys:
        tables = _table_counters(hz, keys)
        counters["oracle.distinct_tables"] = len(keys)
        counters["oracle.invariant_subspaces"] = sum(c for rows in tables.values() for _, _, c in rows)
    if tracer:
        tracer.dump(spans_path)
    with open(out_path, "w") as handle:
        json.dump(
            {"t_ready": t_ready, "t_end": t_end, "starts": starts, "lat": lat, "answers": answers,
             "counters": counters, "tables": tables},
            handle,
        )


def setup(inputs_path: str, speed_path: str) -> None:
    speed = Sampler()
    speed.sample(EDGE_ROUNDS)
    hz = _import_hallzero()
    inputs = _load(inputs_path)
    if "ops" in inputs:
        _parse_ops(hz, inputs["ops"])
    else:
        first = inputs["calls"][0]["argv"]
        for arg in first[1:]:
            if arg.startswith("("):
                try:
                    hz.parse_partition(arg)
                except hz.PartitionParseError:
                    pass
    t_ready = time.perf_counter()
    speed.sample(EDGE_ROUNDS)
    speed.dump(speed_path)
    print(json.dumps({"t_ready": t_ready}))


def run(speed_path: str, argv: list[str]) -> int:
    """`python -m hallzero ARGV`, with speed probes around and during it.
    Its SystemExit leaves this process as it would leave `python -m`."""
    import runpy

    speed = Sampler()
    speed.sample(EDGE_ROUNDS)
    speed.start_timer()
    sys.argv = [sys.argv[0], *argv]
    try:
        runpy.run_module("hallzero", run_name="__main__", alter_sys=True)
    finally:
        speed.stop_timer()
        sys.stdout.flush()
        speed.sample(EDGE_ROUNDS)
        speed.dump(speed_path)
    return 0


def cli(spans_path: str, argv: list[str]) -> int:
    from spans import Tracer, install

    hz = _import_hallzero()
    tracer = Tracer()
    install(tracer)
    code = hz.cli.main(argv)
    tracer.active = False
    keys = {
        (tuple(s[5]["outer"]), s[5]["k"], s[5]["p"])
        for s in tracer.spans
        if s[1] == "oracle.hall_number" and s[5]["match"] and "error" not in s[5]
    }
    sys.stdout.flush()
    tables = _table_counters(hz, keys)
    tracer.dump(spans_path, {"tables": {k: sum(c for _, _, c in rows) for k, rows in tables.items()}})
    return code


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "session":
        session(rest[0], rest[1], rest[2], rest[3] if len(rest) > 3 else None)
        return 0
    if mode == "setup":
        setup(rest[0], rest[1])
        return 0
    if mode == "run":
        return run(rest[0], rest[1:])
    if mode == "cli":
        return cli(rest[0], rest[1:])
    sys.exit(f"unknown mode {mode}")


if __name__ == "__main__":
    sys.exit(main())
