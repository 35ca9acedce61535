"""Command line front end.

Partitions on the command line use the same grammar as the library:
comma form "3,1,1" or exponent form "(3,1^2)"; quote the parentheses in
a shell; a partition's weight is at most MAX_WEIGHT = 2**20.  Every
subcommand accepts --json and then emits a single JSON document carrying
the same values as the text output.

The subcommands in COMMANDS print their value by one rule: an algebra
element as its string, in JSON {"terms": ...}; a bool as true or false
and an int as digits, in JSON {"result": value}; anything else (a
partition) as its string, in JSON {"result": string}.

Exit codes: 0 success, 1 verification failure, 2 usage, parse or file
error, 3 enumeration cap exceeded or interpolation infeasible.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Sequence

from .algebra import H0Element, constant_term, f_map, h0_multiply
from .degeneration import build_poset, leq_deg
from .errors import CapExceededError, InfeasibleError, InterpolationError
from .interpolate import interpolate_hall_poly
from .monoid import generic_extension
from .oracle import hall_number
from .partitions import Partition, parse_partition
from .verification import run_all

# The worked product example: factor pairs and, per pair, the targets
# whose constant terms the eliminations of each step pin down.
EXAMPLE_STEPS = (
    ("(1^3)", "(1^2)", ("(1^5)", "(2,1^3)", "(2^2,1)")),
    ("(1^3)", "(2)", ("(3,1^2)", "(2,1^3)")),
    ("(2,1)", "(1^2)", ("(2,1^3)", "(2^2,1)", "(3,1^2)", "(3,2)")),
    ("(2,1)", "(2)", ("(2^2,1)", "(3,2)", "(4,1)", "(3,1^2)")),
)


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _h0mul(left: Partition, right: Partition) -> H0Element:
    return h0_multiply(H0Element.basis(left), H0Element.basis(right))


_ONE = (("partition", None),)
_PAIR = (("left", None), ("right", None))
_QUOTIENT, _SUB, _OUTER = "quotient type", "submodule type", "ambient module type"
_CONST = (("left", _QUOTIENT), ("right", _SUB), ("target", _OUTER))
_HALLNUM = (("outer", _OUTER), ("quotient", _QUOTIENT), ("sub", _SUB))

# One row per subcommand that applies one library function to partitions:
# name, help, (argument, help) pairs, and the function of the parsed
# arguments (hallnum also passes --p).  The values print by the rule in
# the module docstring.
COMMANDS = (
    ("conj", "conjugate (dual) partition", _ONE, Partition.conjugate),
    ("add", "componentwise sum of two partitions", _PAIR, Partition.__add__),
    ("union", "multiset union of two partitions", _PAIR, Partition.union),
    ("degle", "does the first module degenerate to the second", _PAIR, leq_deg),
    ("genext", "generic extension of two module classes", _PAIR, generic_extension),
    ("fmap", "embedding of a module class into the algebra", _ONE, f_map),
    ("h0mul", "product of two basis symbols, all structure constants", _PAIR, _h0mul),
    ("const", "constant term of one Hall polynomial", _CONST, constant_term),
    ("hallnum", "submodule count by brute-force enumeration", _HALLNUM, hall_number),
)


def _cmd_table(args: argparse.Namespace) -> int:
    value = args.function(
        *(parse_partition(getattr(args, name)) for name, _ in args.arguments),
        *([args.p] if "p" in args else []),
    )
    if isinstance(value, H0Element):
        _emit(args, str(value), {"terms": value.to_json_terms()})
    elif isinstance(value, int):
        _emit(args, json.dumps(value), {"result": value})
    else:
        _emit(args, str(value), {"result": str(value)})
    return 0


def _cmd_poset(args: argparse.Namespace) -> int:
    poset = build_poset(args.n, cache_dir=args.cache_dir)
    edges = [(str(a), str(b)) for a, b in poset.hasse_edges()]
    if args.dot is not None:
        # Graphviz source; the unique minimal element renders at the top.
        dot = ["digraph degeneration {", "  rankdir=TB;"]
        dot.extend(f'  "{p}";' for p in poset.elements)
        dot.extend(f'  "{a}" -> "{b}";' for a, b in edges)
        dot.append("}")
        with open(args.dot, "w") as handle:
            handle.write("\n".join(dot) + "\n")
    lines = [f"weight: {poset.n}", f"partitions: {len(poset)}"]
    lines.extend(str(p) for p in poset.elements)
    lines.append(f"hasse edges: {len(edges)}")
    lines.extend(f"{a} -> {b}" for a, b in edges)
    _emit(
        args,
        "\n".join(lines),
        {
            "weight": poset.n,
            "elements": [str(p) for p in poset.elements],
            "hasse_edges": [list(e) for e in edges],
        },
    )
    return 0


def _cmd_hallpoly(args: argparse.Namespace) -> int:
    try:
        poly = interpolate_hall_poly(
            parse_partition(args.quotient),
            parse_partition(args.sub),
            parse_partition(args.outer),
        )
    except InfeasibleError:
        _emit(args, "infeasible", {"feasible": False})
        return 3
    _emit(
        args,
        str(poly),
        {"feasible": True, "coefficients": list(poly.coeffs)},
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(args.max_weight)
    ok = all(r.passed for r in results)
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    lines.append("all checks passed" if ok else "verification FAILED")
    payload = {"ok": ok, "max_weight": args.max_weight, "checks": checks}
    _emit(args, "\n".join(lines), payload)
    return 0 if ok else 1


def _cmd_example(args: argparse.Namespace) -> int:
    steps = []
    lines = ["constant terms of Hall polynomials at the worked products", ""]
    for i, (left_text, right_text, targets) in enumerate(EXAMPLE_STEPS, start=1):
        left = parse_partition(left_text)
        right = parse_partition(right_text)
        product = _h0mul(left, right)
        values = [(t, constant_term(left, right, parse_partition(t))) for t in targets]
        steps.append(
            {
                "step": i,
                "left": left_text,
                "right": right_text,
                "generic_extension": str(left + right),
                "product": product.to_json_terms(),
                "constant_terms": [{"target": t, "value": v} for t, v in values],
            }
        )
        lines.append(f"step {i}: u{left_text} * u{right_text}")
        lines.append(f"  generic extension: {left + right}")
        lines.append(f"  product: {product}")
        lines.extend(
            f"  phi[{left_text},{right_text} -> {t}](0) = {v}" for t, v in values
        )
        lines.append("")
    _emit(args, "\n".join(lines).rstrip("\n"), {"steps": steps})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallzero",
        description=(
            "Partition monoids, the degeneration order, and exact constant "
            "terms of classical Hall polynomials."
        ),
        epilog=(
            "Partitions are written as \"3,1,1\" or \"(3,1^2)\"; quote the "
            "parentheses in a shell."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.set_defaults(handler=handler)
        return p

    for name, help_text, arguments, function in COMMANDS:
        p = add(name, _cmd_table, help_text)
        p.set_defaults(arguments=arguments, function=function)
        for argument, argument_help in arguments:
            p.add_argument(argument, help=argument_help)
        if name == "hallnum":
            p.add_argument("--p", type=int, required=True, help="prime field size")
        if name != "degle":
            continue
        # poset keeps its place after degle in the usage line.
        p = add("poset", _cmd_poset, "degeneration poset of a weight, with Hasse edges")
        p.add_argument("n", type=int)
        p.add_argument("--dot", metavar="FILE", help="write a Graphviz file")
        p.add_argument("--cache-dir", metavar="DIR", help="poset disk cache")

    p = add("hallpoly", _cmd_hallpoly, "full Hall polynomial by exact interpolation")
    p.add_argument("quotient", help="quotient type")
    p.add_argument("sub", help="submodule type")
    p.add_argument("outer", help="ambient module type")

    p = add("verify", _cmd_verify, "run the cross-check suite")
    p.add_argument(
        "--max-weight",
        type=int,
        default=5,
        help="bound for all checks (default 5; 6 to 8 take about 0.15 to 0.35 s; "
        "above 8 exits 3)",
    )

    add("example", _cmd_example, "reproduce the worked constant-term example")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (InterpolationError, ValueError, OSError) as exc:
        # CapExceededError covers InfeasibleError; parse errors are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InterpolationError):
            return 1
        return 3 if isinstance(exc, CapExceededError) else 2


def run() -> int:
    """The process entry: `hallzero`, `python -m hallzero` and this module
    run as a script.  It returns main()'s exit code after gc.freeze(), which
    moves every object into the permanent generation, so the interpreter's
    final collection at shutdown has nothing left to walk.  Objects outside
    reference cycles are still freed by reference counting, and atexit
    handlers and the flush of stdout still run.  main() never freezes."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
