"""In-memory spans around hallzero's public functions, installed from outside.

:func:`install` replaces each traced function at every module-level name
that refers to it, in every loaded ``hallzero`` module, so calls between
modules (``hallzero.algebra.poset_of``, ``hallzero.interpolate.hall_number``,
the names ``verification`` and ``cli`` import) go through a wrapper that
records a span.  Nothing under ``src/`` is edited.  Spans stay in memory
until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import Any, Callable

# module -> public functions traced in it.  The layer name is the module.
TRACED = {
    "partitions": ("parse_partition",),
    "degeneration": ("build_poset", "poset_of", "leq_deg", "save_poset", "load_poset"),
    "monoid": ("check_extension_bound",),
    "algebra": ("h0_multiply", "constant_term", "f_map"),
    "oracle": ("hall_number",),
    "interpolate": ("interpolate_hall_poly",),
    "verification": (
        "check_fmap_multiplicative",
        "check_ones_constant_terms",
        "check_extension_extremality",
        "check_interpolation_agreement",
    ),
    "cli": ("main",),
}


def _hall_number_attrs(args: tuple, kwargs: dict) -> dict:
    outer, quotient, sub, p = args[:4]
    return {
        "outer": list(outer.parts),
        "k": sub.weight,
        "p": int(p),
        "match": quotient.weight + sub.weight == outer.weight,
    }


def _interpolate_attrs(args: tuple, kwargs: dict) -> dict:
    return {"triple": [list(x.parts) for x in args[:3]]}


def _build_poset_attrs(args: tuple, kwargs: dict) -> dict:
    return {"n": int(args[0])}


def _main_attrs(args: tuple, kwargs: dict) -> dict:
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else ""}


ATTRS: dict[str, Callable[[tuple, dict], dict]] = {
    "oracle.hall_number": _hall_number_attrs,
    "interpolate.interpolate_hall_poly": _interpolate_attrs,
    "degeneration.build_poset": _build_poset_attrs,
    "cli.main": _main_attrs,
}


class Tracer:
    """Spans as [id, name, start, end, parent_id, attrs]; ids index the list."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.active = True
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        attrs_of = ATTRS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [sid, name, 0.0, 0.0, parent, attrs_of(args, kwargs) if attrs_of else {}]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5]["error"] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if name == "degeneration.build_poset":
                span[5]["size"] = len(result)
            return result

        return traced

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "extra": extra or {}}, handle)


def install(tracer: Tracer) -> None:
    """Swap every traced function for its wrapper wherever it is bound."""
    import hallzero  # noqa: F401  (loads every submodule)
    import hallzero.cli
    from hallzero.degeneration import DegPoset

    modules = [m for n, m in sys.modules.items() if n == "hallzero" or n.startswith("hallzero.")]
    for mod_name, names in TRACED.items():
        home = sys.modules[f"hallzero.{mod_name}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    hasse = tracer.wrap("degeneration.hasse_edges", DegPoset.hasse_edges)
    DegPoset.hasse_edges = hasse


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds that tracing adds to one call: a traced no-op call minus a
    bare one, the median over `repeats` rounds of `calls` calls each."""

    def noop() -> None:
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibration", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
