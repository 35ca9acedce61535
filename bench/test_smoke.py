"""Smoke test of the benchmark harness at tiny input sizes.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import refmath as rm
import run
import workloads as wl
from hostspeed import REF_PROBE_S, Scale
from spans import self_times

sys.path.insert(0, str(run.ROOT / "src"))
import hallzero  # noqa: E402

TINY_ALGEBRA = {"weights": range(4, 7), "products": 2, "constants": 3}


def tiny_oracle(seed: int) -> dict:
    tables = {key: cell[:2] for key, cell in wl.ORACLE_TABLES.items() if key[0] == 6}
    return wl.make_oracle(seed, tables=tables)


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    assert wl.make_algebra(3, **TINY_ALGEBRA) == wl.make_algebra(3, **TINY_ALGEBRA)
    assert wl.make_algebra(3, **TINY_ALGEBRA) != wl.make_algebra(4, **TINY_ALGEBRA)
    assert tiny_oracle(3) == tiny_oracle(3)
    assert tiny_oracle(3) != tiny_oracle(4)
    assert wl.make_cli(3) == wl.make_cli(3)
    assert wl.make_cli(3) != wl.make_cli(4)


def test_reference_counts_match_the_oracle_tables():
    for n in range(1, 5):
        for lam in rm.partitions(n):
            shape = hallzero.Partition(lam)
            for p in (2, 3):
                for k in range(n + 1):
                    table = hallzero.hall_number_table(shape, p, dim=k)
                    rows = [[list(q.parts), list(s.parts), c] for (q, s), c in table.items()]
                    assert wl.table_ok(lam, k, p, rows), (lam, k, p)


def test_gaussian_polynomial_at_a_prime_is_the_subspace_count():
    for n in range(6):
        for k in range(n + 1):
            coeffs = rm.gaussian_poly(n, k)
            assert sum(c * 3**d for d, c in enumerate(coeffs)) == rm.gaussian_binomial(n, k, 3)


def _algebra_answers(inputs: dict) -> list:
    out = []
    for op in inputs["ops"]:
        parts = [hallzero.parse_partition(t) for t in op[1:]]
        if op[0] == "mul":
            prod = hallzero.h0_multiply(hallzero.H0Element.basis(parts[0]), hallzero.H0Element.basis(parts[1]))
            out.append([[list(g.parts), c] for g, c in prod.items()])
        else:
            out.append(hallzero.constant_term(*parts))
    return out


def test_a_wrong_algebra_answer_is_counted_as_failed():
    inputs = wl.make_algebra(5, **TINY_ALGEBRA)
    answers = _algebra_answers(inputs)
    failed, _ = wl.check_algebra(inputs, answers, {})
    assert not any(failed)
    i = next(i for i, op in enumerate(inputs["ops"]) if op[0] == "ct")
    answers[i] += 1
    failed, _ = wl.check_algebra(inputs, answers, {})
    assert sum(failed) == 1 and failed[i]


def test_a_wrong_oracle_table_is_counted_as_failed():
    inputs = tiny_oracle(5)
    answers, tables = [], {}
    for _, outer, quo, sub, p in inputs["ops"]:
        o, q, s = (hallzero.parse_partition(t) for t in (outer, quo, sub))
        answers.append(hallzero.hall_number(o, q, s, p))
        table = hallzero.hall_number_table(o, p, dim=s.weight)
        tables[f"{outer}|{s.weight}|{p}"] = [[list(a.parts), list(b.parts), c] for (a, b), c in table.items()]
    failed, _ = wl.check_oracle(inputs, answers, tables, {})
    assert not any(failed)
    key = next(iter(tables))
    tables[key][0][2] += 1
    failed, _ = wl.check_oracle(inputs, answers, tables, {})
    assert any(failed)


def test_wrong_exit_codes_and_verify_counts_are_failures():
    inputs = {"calls": [{"kind": "error", "argv": ["union", "(3,,1)", "(1)", "--json"], "exit": 2}]}
    assert wl.check_cli(inputs, [(2, "")])[0] == [False]
    assert wl.check_cli(inputs, [(0, "{}")])[0] == [True]
    report = {"ok": True, "checks": [
        {"name": "fmap_multiplicative", "passed": True, "detail": "74 products checked"},
        {"name": "ones_constant_terms", "passed": True, "detail": "88 triples checked"},
        {"name": "extension_extremality", "passed": True, "detail": "131 extensions checked"},
        {"name": "interpolation_agreement", "passed": True,
         "detail": "340 feasible triples checked, 55 infeasible"},
    ]}
    recorded = json.loads((run.BENCH / "expected.json").read_text())["verify_counts_at_baseline"]
    assert wl.check_verify(report, 0, recorded)[0] is False
    assert wl.verify_items(report) == 688
    assert wl.check_verify(report, 1, recorded)[0] is True
    # One feasible triple lost and another gained keeps the total at 395.
    report["checks"][3]["detail"] = "341 feasible triples checked, 54 infeasible"
    assert wl.check_verify(report, 0, recorded)[0] is True


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        [0, "root", 0.0, 10.0, None, {}],
        [1, "a", 1.0, 4.0, 0, {}],
        [2, "b", 2.0, 3.0, 1, {}],
        [3, "c", 5.0, 6.0, 0, {}],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_reuse_ratio_counts_only_calls_that_read_a_table():
    attrs = {"outer": [3], "k": 1, "p": 2, "match": True}
    spans = [
        [0, "oracle.hall_number", 0.0, 1.0, None, dict(attrs)],
        [1, "oracle.hall_number", 1.0, 2.0, None, dict(attrs)],
        [2, "oracle.hall_number", 2.0, 3.0, None, dict(attrs, error="OracleCapExceeded")],
        [3, "oracle.hall_number", 3.0, 4.0, None, dict(attrs, match=False)],
    ]
    layers = run.per_layer({"spans": spans, "counters": {}, "wall": 4.0}, 1e-6)
    assert layers["oracle.hall_number.calls"] == 4
    assert layers["oracle.distinct_tables"] == 1
    assert layers["oracle.reuse_ratio"] == 2.0
    assert layers["trace.overhead_s"] == pytest.approx(4e-6)


def test_scaled_time_divides_by_the_nearest_probe_and_leaves_probes_out():
    ref = REF_PROBE_S
    # Probes at 0, 2 and 4 s; the host is twice as slow around the middle one.
    scale = Scale([[0.0, 0.01, ref], [2.0, 2.01, 2 * ref], [4.0, 4.01, ref]])
    assert scale(0.5, 0.9) == pytest.approx(0.4)
    assert scale(1.5, 2.5) == pytest.approx((1.0 - 0.01) / 2)
    # Each probe stands for the host up to halfway to its neighbours.
    assert scale(0.0, 4.01) == pytest.approx((1.005 - 0.01) + (2.0 - 0.01) / 2 + (1.005 - 0.01))
    with pytest.raises(RuntimeError):
        Scale([])


def test_tail_is_the_highest_percentile_with_ten_operations_of_a_pass_beyond():
    assert run.tail([float(i) for i in range(1, 21)], 20) == (50.0, 10.0)
    assert run.tail([float(i) for i in range(1, 49)], 48) == (75.0, 36.0)
    assert run.tail([float(i) for i in range(1, 3268)], 3267) == (99.0, 3235.0)
    assert run.tail([3.0, 1.0, 2.0], 3) == (100.0, 3.0)
    # Three pooled passes of 48 would admit p90; one pass of 48 sets p75.
    assert run.tail([float(i) for i in range(1, 145)], 48) == (75.0, 108.0)


def test_tiny_session_passes_repeat_their_counters(tmp_path):
    inputs = wl.make_algebra(7, **TINY_ALGEBRA)
    inputs_path = tmp_path / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    runner = run.Runner(wl.ALGEBRA, tmp_path, time.perf_counter(), {})
    cache: dict = {}
    first = run.session_pass(runner, inputs, inputs_path, False, cache)
    second = run.session_pass(runner, inputs, inputs_path, True, cache)
    assert not any(first["failed"]) and not any(second["failed"])
    assert first["counters"] == second["counters"]
    assert first["canon"] == second["canon"]
    layers = run.per_layer(second, 1e-6)
    assert layers["algebra.h0_multiply.calls"] == 6
    assert layers["algebra.constant_term.calls"] == 18


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
