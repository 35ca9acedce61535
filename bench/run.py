"""hallzero benchmark: one workload, one seed, measured for --seconds.

    python3 bench/run.py --workload algebra-session --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The parent generates the workload's
inputs from the seed and runs fresh child processes one at a time (a
closed loop with a single caller): whole passes over the inputs, each
after one set-up probe, for about --seconds, then more probes up to
nine.  Every answer is checked.  End-to-end times are scaled to a
reference host speed by probes timed inside each process (hostspeed.py).
The last line of stdout is one JSON object; with --trace 0 it carries
the end-to-end metrics, with --trace 1 the per-layer metrics of one
traced pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import refmath as rm
import workloads as wl
from hostspeed import Scale
from spans import self_times, wrapper_cost

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PY = sys.executable
CHILD = str(BENCH / "child.py")
SETUP_PROBES = 9
HARD_LIMIT_S = 170.0
DEFAULT_SEED = 0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_PRIMES = (2, 3, 5, 7, 11, 13)
_CHECKS = (
    "check_fmap_multiplicative",
    "check_ones_constant_terms",
    "check_extension_extremality",
    "check_interpolation_agreement",
)
PER_LAYER = (
    ("partitions.parse_partition.calls", "count"),
    ("partitions.parse_partition.self_s", "s"),
    ("degeneration.build_poset.calls", "count"),
    ("degeneration.build_poset.self_s", "s"),
    ("degeneration.build_poset.max_ms", "ms"),
    ("degeneration.poset_elements", "count"),
    ("degeneration.hasse_edges.self_s", "s"),
    ("degeneration.save_poset.self_s", "s"),
    ("degeneration.load_poset.self_s", "s"),
    ("degeneration.cache.hits", "count"),
    ("degeneration.cache.misses", "count"),
    ("degeneration.cache.hit_ratio", "ratio"),
    ("degeneration.leq_deg.calls", "count"),
    ("degeneration.leq_deg.self_s", "s"),
    ("monoid.check_extension_bound.calls", "count"),
    ("monoid.check_extension_bound.self_s", "s"),
    ("algebra.h0_multiply.calls", "count"),
    ("algebra.h0_multiply.self_s", "s"),
    ("algebra.h0_multiply.p50_ms", "ms"),
    ("algebra.constant_term.calls", "count"),
    ("algebra.constant_term.self_s", "s"),
    ("algebra.constant_term.p50_us", "us"),
    ("algebra.f_map.self_s", "s"),
    ("algebra.wait_degeneration_s", "s"),
    ("algebra.product_terms", "count"),
    ("algebra.moebius_pairs", "count"),
    ("oracle.hall_number.calls", "count"),
    ("oracle.hall_number.self_s", "s"),
    ("oracle.hall_number.p50_ms", "ms"),
    ("oracle.hall_number.max_ms", "ms"),
    *((f"oracle.hall_number.p{p}.self_s", "s") for p in _PRIMES),
    ("oracle.distinct_tables", "count"),
    ("oracle.reuse_ratio", "ratio"),
    ("oracle.invariant_subspaces", "count"),
    ("oracle.scan_space", "count"),
    ("oracle.accept_ratio", "ratio"),
    ("interpolate.interpolate_hall_poly.calls", "count"),
    ("interpolate.interpolate_hall_poly.self_s", "s"),
    ("interpolate.wait_oracle_s", "s"),
    ("interpolate.feasible", "count"),
    ("interpolate.infeasible", "count"),
    ("interpolate.samples_per_poly", "ratio"),
    *((f"verification.{c}.self_s", "s") for c in _CHECKS),
    ("verification.checks_failed", "count"),
    *((f"cli.{c}.p50_ms", "ms") for c in wl.CLI_SUBCOMMANDS),
    ("cli.exit_code_mismatches", "count"),
    ("trace.overhead_s", "s"),
)


class Child:
    """One finished child process: exit code, output, times, peak RSS, and
    the scale of its speed samples when it took any."""

    def __init__(self, code: int, stdout: str, t_spawn: float, t_exit: float, rss_mb: float,
                 scale: Scale | None):
        self.code, self.stdout = code, stdout
        self.t_spawn, self.t_exit, self.rss_mb = t_spawn, t_exit, rss_mb
        self.scale = scale

    def span(self, a: float, b: float) -> float:
        """[a, b] at the reference host speed; raw for a traced child."""
        return self.scale(a, b) if self.scale else b - a


class Runner:
    def __init__(self, workload: str, work: Path, t_start: float, expected: dict):
        self.workload, self.work, self.t_start = workload, work, t_start
        self.expected = expected  # answers recorded at the baseline commit
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._n = 0

    def spawn(self, cmd: list[str], speed: Path | None = None) -> Child:
        """Run cmd to completion; wait4 gives this child's own peak RSS.
        A child that writes speed samples gets their path in cmd as `speed`."""
        self._n += 1
        out_path = self.work / f"stdout-{self._n}"
        timeout = HARD_LIMIT_S - (time.perf_counter() - self.t_start)
        if timeout <= 0:
            raise TimeoutError("benchmark time limit reached")
        with open(out_path, "w") as out, open(self.work / "stderr", "a") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t_exit = time.perf_counter()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise TimeoutError(f"child killed: {' '.join(cmd)}")
        stdout = out_path.read_text()
        out_path.unlink()
        scale = None
        if speed is not None and speed.exists():  # a crashed child may leave none
            scale = Scale(json.loads(speed.read_text()))
            speed.unlink()
        return Child(proc.returncode, stdout, t_spawn, t_exit, usage.ru_maxrss / 1024.0, scale)

    def probe(self, inputs_path: Path) -> float:
        speed = self.work / "speed.json"
        c = self.spawn([PY, CHILD, "setup", str(inputs_path), str(speed)], speed)
        if c.code != 0:
            raise RuntimeError("set-up probe failed")
        return c.span(c.t_spawn, json.loads(c.stdout.splitlines()[-1])["t_ready"])


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# --- one pass per workload kind -------------------------------------------


def session_pass(r: Runner, inputs: dict, inputs_path: Path, traced: bool, cache: dict) -> dict:
    out = r.work / "answers.json"
    spans_path = r.work / "spans.json"
    speed = r.work / "speed.json"
    cmd = [PY, CHILD, "session", str(inputs_path), str(out), str(speed)] + ([str(spans_path)] if traced else [])
    c = r.spawn(cmd, None if traced else speed)
    if c.code != 0:
        raise RuntimeError(f"session exited with {c.code}:\n{(r.work / 'stderr').read_text()[-2000:]}")
    res = json.loads(out.read_text())
    if r.workload == wl.ALGEBRA:
        failed, canon = wl.check_algebra(inputs, res["answers"], cache)
    else:
        failed, canon = wl.check_oracle(inputs, res["answers"], res["tables"], cache)
        res["counters"]["oracle.scan_space"] = wl.oracle_scan_space(inputs)
    spans = json.loads(spans_path.read_text())["spans"] if traced else []
    lat = [c.span(t0, t0 + dt) for t0, dt in zip(res["starts"], res["lat"])]
    return {"wall": c.span(c.t_spawn, res["t_end"]), "raw_wall": res["t_end"] - c.t_spawn,
            "setup": c.span(c.t_spawn, res["t_ready"]), "lat": lat,
            "failed": failed, "canon": canon, "counters": res["counters"], "rss": c.rss_mb,
            "ops": len(inputs["ops"]), "spans": spans}


def verify_pass(r: Runner, traced: bool) -> dict:
    spans_path = r.work / "spans.json"
    speed = r.work / "speed.json"
    argv = list(wl.VERIFY_ARGV)
    if traced:
        c = r.spawn([PY, CHILD, "cli", str(spans_path), *argv])
    else:
        c = r.spawn([PY, CHILD, "run", str(speed), *argv], speed)
    try:
        report = json.loads(c.stdout.splitlines()[0])
    except (ValueError, IndexError):
        report = None
    recorded = r.expected["verify_counts_at_baseline"]
    bad, canon = wl.check_verify(report, c.code, recorded)
    items = wl.verify_items(report) or sum(recorded.values())
    counters = wl.verify_counts(report) if report else {}
    extra = json.loads(spans_path.read_text()) if traced else {"spans": [], "extra": {}}
    # A traced pass names its infeasible triples: none may be new.
    infeasible = [s[5]["triple"] for s in extra["spans"]
                  if s[1] == "interpolate.interpolate_hall_poly" and s[5].get("error") == "InfeasibleError"]
    bad = bad or any(t not in r.expected["verify_infeasible_at_baseline"] for t in infeasible)
    wall = c.span(c.t_spawn, c.t_exit)
    return {"wall": wall, "raw_wall": c.t_exit - c.t_spawn, "setup": None, "lat": [wall],
            "failed": [bad] * items, "canon": [canon], "counters": counters, "rss": c.rss_mb,
            "ops": items, "spans": extra["spans"], "tables": extra["extra"].get("tables", {}),
            "report": report}


def _cache_state(path: Path):
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def cli_pass(r: Runner, inputs: dict, traced: bool, index: int) -> dict:
    cache_dir = r.work / f"cache-{index}"
    cache_dir.mkdir()
    results, lat, raw, rss, spans, tables = [], [], [], [], [], {}
    hits = misses = mismatches = 0
    commands: list[str] = []
    speed = r.work / "speed.json"
    for i, call in enumerate(inputs["calls"]):
        argv = [str(cache_dir) if a == "{cache}" else a for a in call["argv"]]
        spans_path = r.work / f"spans-{i}.json"
        cache_file = cache_dir / f"degposet-{argv[1]}.json"
        before = _cache_state(cache_file) if call["kind"] == "poset" else None
        if traced:
            c = r.spawn([PY, CHILD, "cli", str(spans_path), *argv])
        else:
            c = r.spawn([PY, CHILD, "run", str(speed), *argv], speed)
        if call["kind"] == "poset":
            after = _cache_state(cache_file)
            if before is not None and after == before:
                hits += 1
            else:
                misses += 1
        results.append((c.code, c.stdout))
        lat.append(c.span(c.t_spawn, c.t_exit))
        raw.append(c.t_exit - c.t_spawn)
        rss.append(c.rss_mb)
        mismatches += c.code != call.get("exit", 0)
        commands.append(argv[0])
        if traced:
            doc = json.loads(spans_path.read_text())
            base = len(spans)
            for s in doc["spans"]:
                spans.append([s[0] + base, s[1], s[2], s[3], None if s[4] is None else s[4] + base, s[5]])
            tables.update(doc["extra"].get("tables", {}))
    failed, canon = wl.check_cli(inputs, results)
    # The pass's time is its processes' time; the checks between them are not.
    return {"wall": sum(lat), "raw_wall": sum(raw), "setup": None, "lat": lat, "failed": failed, "canon": canon,
            "counters": {"degeneration.cache.hits": hits, "degeneration.cache.misses": misses},
            "rss": max(rss), "ops": len(lat), "spans": spans, "tables": tables,
            "mismatches": mismatches, "commands": commands}


def run_pass(r: Runner, inputs: dict, inputs_path: Path, traced: bool, cache: dict, index: int) -> dict:
    if r.workload in (wl.ALGEBRA, wl.ORACLE):
        return session_pass(r, inputs, inputs_path, traced, cache)
    if r.workload == wl.VERIFY:
        return verify_pass(r, traced)
    return cli_pass(r, inputs, traced, index)


# --- metrics ---------------------------------------------------------------


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: list[float], per_pass: int) -> tuple[float, float]:
    """(percentile, value) by nearest rank over `values` at the highest of
    TAIL_PERCENTILES that has at least ten of one pass's `per_pass`
    operations beyond it; the maximum when no percentile has.  Choosing by
    one pass keeps the percentile of a workload the same in every run,
    however many passes fit in it."""
    xs = sorted(values)
    for pct in TAIL_PERCENTILES:
        if per_pass - math.ceil(pct / 100 * per_pass) >= 10:
            return pct, xs[math.ceil(pct / 100 * len(xs)) - 1]
    return 100.0, xs[-1]


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, str]:
    wall = statistics.median(p["wall"] for p in passes)
    setup = statistics.median(setups)
    ops = passes[0]["ops"]
    # Every operation of every pass is one latency sample.  Pooled, the
    # samples of operations whose costs lie close together overlap, so the
    # median does not jump between two operations from run to run.
    lat = [x for p in passes for x in p["lat"]]
    pct, tail_s = tail(lat, len(passes[0]["lat"]))
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "ops_per_s": ops / (wall - setup),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": statistics.median(p["rss"] for p in passes),
    }
    raw = statistics.median(p["raw_wall"] for p in passes)
    note = (f"op_tail_ms at p{pct:g} of {len(lat)} latencies: "
            f"{len(passes)} passes of {ops} operations; {len(setups)} set-up samples; "
            f"unscaled wall {raw:.4g} s")
    return metrics, note


def _stats(spans: list, selfs: list[float], name: str) -> tuple[int, float, list[float]]:
    idx = [i for i, s in enumerate(spans) if s[1] == name]
    return len(idx), sum(selfs[i] for i in idx), [spans[i][3] - spans[i][2] for i in idx]


def per_layer(traced: dict, span_cost_s: float) -> dict:
    spans = traced["spans"]
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    m: dict[str, float] = {name: 0 for name, _ in PER_LAYER}

    def parent_name(s) -> str:
        return by_id[s[4]][1] if s[4] is not None else ""

    for name in ("partitions.parse_partition", "degeneration.build_poset", "degeneration.leq_deg",
                 "monoid.check_extension_bound", "algebra.h0_multiply", "algebra.constant_term",
                 "oracle.hall_number", "interpolate.interpolate_hall_poly"):
        calls, self_s, durs = _stats(spans, selfs, name)
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    for name in ("degeneration.hasse_edges", "degeneration.save_poset", "degeneration.load_poset",
                 "algebra.f_map", *(f"verification.{c}" for c in _CHECKS)):
        m[f"{name}.self_s"] = _stats(spans, selfs, name)[1]
    builds = [s for s in spans if s[1] == "degeneration.build_poset"]
    m["degeneration.build_poset.max_ms"] = max((s[3] - s[2] for s in builds), default=0) * 1e3
    m["degeneration.poset_elements"] = sum(s[5].get("size", 0) for s in builds)
    _, _, durs = _stats(spans, selfs, "algebra.h0_multiply")
    m["algebra.h0_multiply.p50_ms"] = statistics.median(durs) * 1e3 if durs else 0
    _, _, durs = _stats(spans, selfs, "algebra.constant_term")
    m["algebra.constant_term.p50_us"] = statistics.median(durs) * 1e6 if durs else 0
    m["algebra.wait_degeneration_s"] = sum(
        s[3] - s[2] for s in spans
        if s[1] == "degeneration.poset_of" and parent_name(s).startswith("algebra.")
    )
    halls = [(i, s) for i, s in enumerate(spans) if s[1] == "oracle.hall_number"]
    durs = [s[3] - s[2] for _, s in halls]
    m["oracle.hall_number.p50_ms"] = statistics.median(durs) * 1e3 if durs else 0
    m["oracle.hall_number.max_ms"] = max(durs, default=0) * 1e3
    for p in _PRIMES:
        m[f"oracle.hall_number.p{p}.self_s"] = sum(selfs[i] for i, s in halls if s[5]["p"] == p)
    # Reuse counts only calls that read a table: matching weights, no error.
    reads = [(tuple(s[5]["outer"]), s[5]["k"], s[5]["p"]) for _, s in halls
             if s[5]["match"] and "error" not in s[5]]
    keys = set(reads)
    m["oracle.distinct_tables"] = len(keys)
    m["oracle.reuse_ratio"] = len(reads) / len(keys) if keys else 0
    counters = traced["counters"]
    if "oracle.invariant_subspaces" in counters:
        m["oracle.invariant_subspaces"] = counters["oracle.invariant_subspaces"]
    else:
        m["oracle.invariant_subspaces"] = sum(traced.get("tables", {}).values())
    m["oracle.scan_space"] = sum(rm.gaussian_binomial(sum(o), k, p) for o, k, p in keys)
    if m["oracle.scan_space"]:
        m["oracle.accept_ratio"] = m["oracle.invariant_subspaces"] / m["oracle.scan_space"]
    interps = [s for s in spans if s[1] == "interpolate.interpolate_hall_poly"]
    m["interpolate.wait_oracle_s"] = sum(
        s[3] - s[2] for _, s in halls if parent_name(s) == "interpolate.interpolate_hall_poly"
    )
    m["interpolate.feasible"] = sum(1 for s in interps if "error" not in s[5])
    m["interpolate.infeasible"] = sum(1 for s in interps if s[5].get("error") == "InfeasibleError")
    samples = sum(1 for _, s in halls if parent_name(s) == "interpolate.interpolate_hall_poly")
    if m["interpolate.feasible"]:
        m["interpolate.samples_per_poly"] = samples / m["interpolate.feasible"]
    report = traced.get("report")
    if report:
        m["verification.checks_failed"] = sum(1 for c in report["checks"] if not c["passed"])
    for key in ("algebra.product_terms", "algebra.moebius_pairs", "oracle.distinct_tables",
                "degeneration.cache.hits", "degeneration.cache.misses"):
        if key in counters:
            m[key] = counters[key]
    looked = m["degeneration.cache.hits"] + m["degeneration.cache.misses"]
    m["degeneration.cache.hit_ratio"] = m["degeneration.cache.hits"] / looked if looked else 0
    mains = [s for s in spans if s[1] == "cli.main"]
    if "commands" in traced:
        for sub in wl.CLI_SUBCOMMANDS:
            durs = [s[3] - s[2] for s in mains if s[5]["command"] == sub]
            m[f"cli.{sub}.p50_ms"] = statistics.median(durs) * 1e3 if durs else 0
        m["cli.exit_code_mismatches"] = traced["mismatches"]
    m["trace.overhead_s"] = len(spans) * span_cost_s
    return m


# --- entry point -----------------------------------------------------------


def make_inputs(workload: str, seed: int) -> dict:
    if workload == wl.ALGEBRA:
        return wl.make_algebra(seed)
    if workload == wl.ORACLE:
        return wl.make_oracle(seed)
    if workload == wl.CLI:
        return wl.make_cli(seed)
    return {"workload": wl.VERIFY, "argv": list(wl.VERIFY_ARGV)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hallzero" / "__init__.py").is_file():
        return _fail(f"no hallzero sources under {ROOT / 'src'}; run from a full checkout")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        expected = json.loads((BENCH / "expected.json").read_text())
        return measure(args, Runner(args.workload, work, t_start, expected))
    except (TimeoutError, RuntimeError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, r: Runner) -> int:
    inputs = make_inputs(args.workload, args.seed)
    inputs_path = r.work / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    probe_path = inputs_path
    if args.workload == wl.VERIFY:
        # `verify` parses only its argv; probe with the cli-oneshot shape.
        probe_path = r.work / "probe.json"
        probe_path.write_text(json.dumps({"calls": [{"argv": list(wl.VERIFY_ARGV)}]}))
    setups: list[float] = []
    cache: dict = {}
    passes: list[dict] = []
    t_measure = time.perf_counter()
    if args.trace:
        passes = [run_pass(r, inputs, inputs_path, True, cache, 0)]
    else:
        # A set-up probe before each pass spreads the probes over the run.
        # Another pass starts only if one as long as the last would end at
        # most half a pass after --seconds, so a run lasts about --seconds;
        # the first pass always runs.
        last = 0.0
        while not passes or time.perf_counter() - t_measure + last / 2 <= args.seconds:
            t_pass = time.perf_counter()
            setups.append(r.probe(probe_path))
            passes.append(run_pass(r, inputs, inputs_path, False, cache, len(passes)))
            last = time.perf_counter() - t_pass
        while len(setups) < SETUP_PROBES:
            setups.append(r.probe(probe_path))
    setups += [p["setup"] for p in passes if p["setup"] is not None]

    attempted = sum(p["ops"] for p in passes)
    failed = sum(sum(p["failed"]) for p in passes)
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} operations failed their checks")
    if any(p["counters"] != passes[0]["counters"] for p in passes):
        problems.append("exact counters differ between passes of one seed: "
                        + "; ".join(json.dumps(p["counters"], sort_keys=True) for p in passes))
    answer_digest = wl.digest(passes[0]["canon"])
    if args.seed == DEFAULT_SEED:
        recorded = r.expected["answer_digests_seed0"].get(args.workload)
        if recorded != answer_digest:
            problems.append(f"answer digest {answer_digest} differs from the recorded {recorded}")
        recorded = r.expected["counters_seed0"].get(args.workload)
        if recorded != passes[0]["counters"]:
            problems.append(f"exact counters {json.dumps(passes[0]['counters'], sort_keys=True)} "
                            f"differ from the recorded {json.dumps(recorded, sort_keys=True)}")
    for msg in problems:
        print(f"FAIL: {msg}")

    if args.trace:
        span_cost = wrapper_cost()
        metrics = per_layer(passes[0], span_cost)
        units = dict(PER_LAYER)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"spans": passes[0]["spans"]}))
        print(f"{args.workload} seed {args.seed}: traced wall {passes[0]['wall']:.3f} s, "
              f"{len(passes[0]['spans'])} spans at {span_cost * 1e6:.3f} us each; "
              f"spans in {trace_file.relative_to(ROOT)}")
    else:
        metrics, note = end_to_end(passes, setups)
        units = dict(END_TO_END)
        print(f"{args.workload} seed {args.seed}: {note}; counters {json.dumps(passes[0]['counters'])}; "
              f"digest {answer_digest}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
