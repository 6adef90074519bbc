"""Command-line front end: every solver operation.

Machine-readable output with --json emits one JSON object per run, carrying
the result payload, a graph descriptor, the solver counters and the wall
time.  ``count``, ``poly``, ``enum``, ``threshold`` and ``alpha`` run the
own-premise rule on ``cover_degree_order``: every vertex except a greedy
maximal anticlique, whose vertices are never imposed.  Each row imposes a
pending cover vertex of its own choice: ``count``, ``poly`` and ``enum``
the one with the most live neighbours, the pruned searches ``threshold``
and ``alpha`` the lowest-ranked one in the branch set of the row's clique
partition, MCQ's branching rule (search.py), and a weighted ``alpha`` the
heaviest.  On ``random_graph(60, 0.1, 3)``
``count`` finalizes 60,357 rows (48,084 with every vertex pending, 133,689
in the fixed descending-degree sequence).  ``count`` and ``poly`` run the
paper's rule in vertex order with ``--rule paper``.  These five commands
print the run with ``--trace``.  ``maximal`` lists the maximal anticliques
by Bron and Kerbosch's search with Tomita's pivot, without rows.
``chromatic`` colours the graph by DSatur, stopping at the clique number
that currentmax finds on the complement.

Exit codes: 0 success, 2 usage or input error, 3 size-guard refusal,
4 time budget (--timeout) exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import time
from itertools import chain
from pathlib import Path
from typing import Any, Iterable

from .enumerator import (
    SearchStats,
    _check_deadline,
    _deadline,
    _remaining,
    cover_degree_order,
    expand_rows,
    rows_polynomial,
    run_standard,
)
from .errors import ConfigurationError, GraphFormatError, GuardExceeded, SearchTimeout
from .graph import FORMATS, Graph, parse_graph, random_graph, serialize_graph
from .maximal import chromatic_with_stats, maximal_family
from .oracle import oracle_report
from .search import (
    SearchOptions,
    bipartite_options,
    max_anticlique,
    maximum_sets,
    threshold_search,
)
# Not called here any more; kept because perfbench/tracer.py wraps them by name.
from .search import all_max_anticliques, core, max_weight_anticlique  # noqa: F401

_EXTENSION_FORMATS = {".col": "dimacs", ".dimacs": "dimacs", ".json": "json"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # covers GraphFormatError, ConfigurationError, bad files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except SearchTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="anticlique",
        description="Exact anticlique (independent set) toolkit on five-valued rows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def solver(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--graph", type=Path, help="graph file to load")
        p.add_argument("--format", choices=FORMATS,
                       help="graph file format (default: inferred from extension)")
        p.add_argument("--gen", metavar="V,D,SEED",
                       help="generate the input graph inline instead of --graph")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    def trace(p: argparse.ArgumentParser) -> None:
        # maximal, chromatic and oracle print no trace, so they take no --trace
        p.add_argument("--trace", action="store_true",
                       help="print the working stack after each imposition")

    def timeout(p: argparse.ArgumentParser) -> None:
        p.add_argument("--timeout", type=_seconds, metavar="SECONDS",
                       help="give up after this many seconds (exit code 4)")

    def standard(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rule", choices=("own-premise", "paper"), default="own-premise",
                       help="own-premise (default): the own-premise rule on a vertex "
                            "cover (all vertices but a greedy maximal anticlique), "
                            "each row imposing the pending cover vertex with the most "
                            "live neighbours; paper: the paper's run in vertex order")
        trace(p)
        timeout(p)

    p = solver("count", "number of anticliques f(G)")
    standard(p)
    p.set_defaults(handler=_cmd_count)

    p = solver("poly", "independence polynomial coefficients")
    standard(p)
    p.set_defaults(handler=_cmd_poly)

    p = solver("enum", "list anticliques")
    p.add_argument("--min-size", type=int, default=0)
    trace(p)
    timeout(p)
    p.set_defaults(handler=_cmd_enum)

    p = solver("alpha", "maximum anticlique via currentmax branch and bound")
    p.add_argument("--bipartite", action="store_true",
                   help="run on the smaller color class with the larger as bound")
    p.add_argument("--weights", type=Path,
                   help="per-vertex weights file, lines 'vertex weight' (missing = 1)")
    p.add_argument("--all", action="store_true", help="list all maximum anticliques")
    p.add_argument("--core", action="store_true",
                   help="intersection of all maximum anticliques")
    trace(p)
    timeout(p)
    p.set_defaults(handler=_cmd_alpha)

    p = solver("threshold", "anticliques of size above a threshold")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--first", action="store_true", help="stop at the first hit")
    trace(p)
    timeout(p)
    p.set_defaults(handler=_cmd_threshold)

    p = solver("maximal", "inclusion-maximal anticliques")
    timeout(p)
    p.set_defaults(handler=_cmd_maximal)

    p = solver("chromatic", "chromatic number via DSatur colouring")
    timeout(p)
    p.set_defaults(handler=_cmd_chromatic)

    p = solver("oracle", "brute-force report (small graphs only)")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("gen", help="emit a seeded random graph")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="json")
    p.add_argument("--out", type=Path, help="write here instead of stdout")
    p.set_defaults(handler=_cmd_gen)

    return parser


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0:   # also refuses nan
        raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {text!r}")
    return value


# -- graph input -------------------------------------------------------------


def _load_graph(args, deadline: float | None) -> tuple[Graph, dict]:
    if args.gen and args.graph:
        raise ConfigurationError("give either --graph or --gen, not both")
    if args.gen:
        parts = args.gen.split(",")
        if len(parts) != 3:
            raise ConfigurationError("--gen expects V,D,SEED")
        try:
            v, d, seed = int(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigurationError("--gen expects V,D,SEED as int,float,int") from None
        g = random_graph(v, d, seed)
        return g, {"v": g.v, "w": g.w, "d": d, "seed": seed}
    if not args.graph:
        raise ConfigurationError("no input graph: use --graph FILE or --gen V,D,SEED")
    fmt = args.format or _EXTENSION_FORMATS.get(args.graph.suffix.lower(), "edgelist")
    g = parse_graph(args.graph.read_text(), fmt, deadline)
    return g, {"v": g.v, "w": g.w, "file": str(args.graph)}


def _trace_printer(args):
    if not args.trace:
        return None
    output: list[str] = []   # the finalized rows of the current run

    def hook(kind: str, info: dict) -> None:
        if kind == "impose":
            print(f"impose {info['t']}: {info['outcome']}")
            print("  working stack (top first):")
            for line in info["working"]:
                print(f"    {line}")
        elif kind == "finalize":
            output.append(f"{info['row']} N={info['count']}")
            print(f"finalize {output[-1]}")
        elif kind == "done":
            print("final output stack (top first):")
            for line in reversed(output):
                print(f"  {line}")
            output.clear()
        elif kind == "prune":
            print(f"prune {info['row']} bound={info['bound']} limit={info['limit']}")
        elif kind == "improve":
            print(f"improve currentmax={info['currentmax']} via {info['row']}")

    return hook


def _fmt_set(X) -> str:
    return "{" + ",".join(str(y) for y in sorted(X)) + "}"


def _emit(args, descriptor: dict, payload: dict, stats: SearchStats | None,
          wall_ms: float, text_lines: Iterable[str], deadline: float | None) -> None:
    # text_lines is read only without --json, so callers pass it lazily; a
    # listing's --json record can be megabytes, so the budget is checked
    # once it is built, before anything is printed
    if args.json:
        record: dict[str, Any] = dict(payload)
        record["command"] = args.command
        record["graph"] = descriptor
        record["stats"] = stats.as_dict() if stats else None
        record["wall_ms"] = round(wall_ms, 3)
        text = json.dumps(record)
        _check_deadline(deadline)
        print(text)
    else:
        for line in text_lines:
            print(line)
        if stats is not None:
            print(f"stats: {stats.as_dict()} wall_ms={wall_ms:.1f}", file=sys.stderr)


# -- solver commands ----------------------------------------------------------


@contextlib.contextmanager
def _all_digits():
    """Lift the interpreter's limit on int-to-text conversion (4,300 digits
    by default, absent before Python 3.10.7) while an answer is printed.
    Input is still parsed under the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _graph_command(solve):
    """A graph command's handler around ``solve(args, g, deadline)``, which
    returns ``(payload, stats, text lines)`` for the loaded graph.

    The ``--timeout`` budget starts before the graph is loaded.  It is
    checked while a graph file is parsed, once more after the solve and,
    with ``--json``, after the record is built, so it covers the load, the
    sort of listed sets and the record;
    ``wall_ms`` times the solve alone.  The output is printed under
    ``_all_digits``, so ``solve`` passes its text lines lazily: an int is
    turned into text only there, while the graph and ``--weights`` are
    still parsed under the interpreter's limit.
    """

    @functools.wraps(solve)
    def run(args) -> int:
        deadline = _deadline(getattr(args, "timeout", None))   # oracle has none
        g, desc = _load_graph(args, deadline)
        t0 = time.perf_counter()
        payload, stats, lines = solve(args, g, deadline)
        _check_deadline(deadline)
        wall = (time.perf_counter() - t0) * 1000
        with _all_digits():
            _emit(args, desc, payload, stats, wall, lines, deadline)
        return 0

    return run


def _standard_rows(args, g: Graph, deadline: float | None):
    """count's and poly's run under ``--rule``, with ``--trace``."""
    order = None if args.rule == "paper" else cover_degree_order(g)
    return run_standard(g, order, rule=args.rule, trace=_trace_printer(args),
                        timeout_s=_remaining(deadline))


@_graph_command
def _cmd_count(args, g: Graph, deadline: float | None):
    rows, stats = _standard_rows(args, g, deadline)
    f = sum(row.member_count() for row in rows)
    return {"f": f}, stats, map(str, [f])


@_graph_command
def _cmd_poly(args, g: Graph, deadline: float | None):
    rows, stats = _standard_rows(args, g, deadline)
    poly = rows_polynomial(rows)
    coeffs = list(poly.coeffs)
    payload = {"coefficients": coeffs, "degree": poly.degree, "f": poly.evaluate(1)}
    return payload, stats, map(" ".join, [map(str, coeffs)])


@_graph_command
def _cmd_enum(args, g: Graph, deadline: float | None):
    rows, stats = run_standard(g, cover_degree_order(g), rule="own-premise",
                               trace=_trace_printer(args), timeout_s=_remaining(deadline))
    sets = sorted(expand_rows(rows, args.min_size, deadline), key=sorted)
    payload = {"anticliques": [sorted(X) for X in sets], "count": len(sets)}
    return payload, stats, map(_fmt_set, sets)


def _read_weights(path: Path) -> dict[int, int]:
    weights: dict[int, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigurationError(f"weights line {lineno}: expected 'vertex weight'")
        try:
            weights[int(parts[0])] = int(parts[1])
        except ValueError:
            raise ConfigurationError(f"weights line {lineno}: non-integer entry") from None
    return weights


@_graph_command
def _cmd_alpha(args, g: Graph, deadline: float | None):
    trace = _trace_printer(args)
    opts = bipartite_options(g) if args.bipartite else SearchOptions(order=cover_degree_order(g))
    if args.weights:
        opts = dataclasses.replace(opts, weights=_read_weights(args.weights))
    res = max_anticlique(g, opts, trace=trace, timeout_s=_remaining(deadline))
    stats = res.stats
    payload: dict[str, Any] = {"alpha": res.alpha, "witness": sorted(res.witness)}
    # a weighted alpha can pass 4,300 digits, so it becomes text only when printed
    lines = [map("alpha = {}".format, [res.alpha]), [f"witness = {_fmt_set(res.witness)}"]]
    if args.all or args.core:
        # the second phase gets what is left of the one budget
        sets, phase2 = maximum_sets(g, res, opts, trace=trace,
                                    timeout_s=_remaining(deadline))
        stats = stats + phase2
    if args.all:
        payload["maximum_sets"] = [sorted(X) for X in sets]
        lines += [f"maximum sets ({len(sets)}):"], (f"  {_fmt_set(X)}" for X in sets)
    if args.core:
        core_set = frozenset.intersection(*sets)
        payload["core"] = sorted(core_set)
        lines.append([f"core = {_fmt_set(core_set)}"])
    return payload, stats, chain.from_iterable(lines)


@_graph_command
def _cmd_threshold(args, g: Graph, deadline: float | None):
    run = dict(order=cover_degree_order(g), trace=_trace_printer(args),
               timeout_s=_remaining(deadline))
    if args.first:
        found, stats = threshold_search(g, args.k, "first", **run)
        payload = {"k": args.k, "found": sorted(found) if found is not None else None}
        return payload, stats, [f"found {_fmt_set(found)}" if found is not None else "none"]
    sets, stats = threshold_search(g, args.k, "all", **run)
    payload = {"k": args.k, "anticliques": [sorted(X) for X in sets], "count": len(sets)}
    return payload, stats, map(_fmt_set, sets)


@_graph_command
def _cmd_maximal(args, g: Graph, deadline: float | None):
    fam = maximal_family(g, timeout_s=_remaining(deadline))
    payload = {
        "maximal": [sorted(X) for X in fam.sets],
        "count": len(fam.sets),
        "sieve": {
            "candidates": fam.candidates,
            "dominated": fam.dominated,
            "removed": fam.removed,
        },
    }
    lines = chain(map(_fmt_set, fam.sets), [
        f"count = {len(fam.sets)}",
        f"sieve: {fam.candidates} candidates, {fam.dominated} dominated, "
        f"{fam.removed} removed",
    ])
    return payload, fam.stats, lines


@_graph_command
def _cmd_chromatic(args, g: Graph, deadline: float | None):
    chi, cover, stats = chromatic_with_stats(g, timeout_s=_remaining(deadline))
    payload = {"chi": chi, "cover": [sorted(X) for X in cover]}
    return payload, stats, chain([f"chi = {chi}"], (f"  {_fmt_set(X)}" for X in cover))


@_graph_command
def _cmd_oracle(args, g: Graph, deadline: None):
    report = oracle_report(g)
    payload = {
        "f": report.f,
        "spectrum": list(report.spectrum.coeffs),
        "alpha": report.alpha,
        "maximum_sets": [sorted(X) for X in report.maximum_sets],
        "maximal_sets": [sorted(X) for X in report.maximal_sets],
        "chi": report.chi,
    }
    lines = [
        f"f = {report.f}",
        f"spectrum = {' '.join(map(str, report.spectrum.coeffs))}",
        f"alpha = {report.alpha}",
        f"maximum sets: {' '.join(_fmt_set(X) for X in report.maximum_sets)}",
        f"maximal sets: {' '.join(_fmt_set(X) for X in report.maximal_sets)}",
        f"chi = {report.chi}",
    ]
    return payload, None, lines


def _cmd_gen(args) -> int:
    g = random_graph(args.v, args.d, args.seed)
    text = serialize_graph(g, args.format)
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
