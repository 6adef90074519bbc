"""Check one CLI answer against the reference answers and plain set properties.

Every check reads the job's JSON payload and the graph as the workload
generator made it; none of them looks at a stored copy of the program's
output.  ``check`` returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

from collections.abc import Iterable


class GraphFacts:
    """The edges of one workload graph, in a form cheap to test sets against."""

    def __init__(self, v: int, edges: Iterable[tuple[int, int]],
                 weights: dict[int, int] | None = None):
        self.v = v
        self.adj = [set() for _ in range(v + 1)]
        for i, j in edges:
            self.adj[i].add(j)
            self.adj[j].add(i)
        self.weights = weights

    def set_problem(self, xs: list[int]) -> str | None:
        """Why ``xs`` is not an anticlique of this graph, or None."""
        if len(set(xs)) != len(xs):
            return f"repeated vertex in {xs}"
        for y in xs:
            if not isinstance(y, int) or not 1 <= y <= self.v:
                return f"vertex {y!r} out of range in {xs}"
        members = set(xs)
        for y in xs:
            clash = self.adj[y] & members
            if clash:
                return f"{xs} holds the edge ({y}, {min(clash)})"
        return None

    def weight(self, xs: list[int]) -> int:
        w = self.weights or {}
        return sum(w.get(y, 1) for y in xs)


def check(kind: str, params: dict, graph: GraphFacts, ref: dict, out: dict) -> list[str]:
    """Problems with answer ``out`` to a job of ``kind``; [] when correct."""
    return _CHECKS[kind](params, graph, ref, out)


def _check_count(params, graph, ref, out):
    f = sum(ref["poly"])
    return [] if out["f"] == f else [f"f = {out['f']}, reference {f}"]


def _check_poly(params, graph, ref, out):
    problems = []
    coeffs = out["coefficients"]
    if coeffs != ref["poly"]:
        problems.append(f"coefficients {coeffs[:6]}..., reference {ref['poly'][:6]}...")
    if out["f"] != sum(coeffs):
        problems.append(f"f = {out['f']} but poly(1) = {sum(coeffs)}")
    if out["degree"] != len(coeffs) - 1:
        problems.append(f"degree {out['degree']} for {len(coeffs)} coefficients")
    return problems


def _witness(graph, xs, value, weighted=False):
    bad = graph.set_problem(xs)
    if bad:
        return [f"witness: {bad}"]
    got = graph.weight(xs) if weighted else len(xs)
    return [] if got == value else [f"witness {xs} achieves {got}, claimed {value}"]


def _check_alpha(params, graph, ref, out):
    want = ref[params.get("ref", "alpha")]
    problems = [] if out["alpha"] == want else [f"alpha = {out['alpha']}, reference {want}"]
    return problems + _witness(graph, out["witness"], out["alpha"],
                               weighted=graph.weights is not None)


def _check_first(params, graph, ref, out):
    k, found = params["k"], out["found"]
    if k >= ref["alpha"]:
        return [] if found is None else [f"found {found} above k = {k} >= alpha"]
    if found is None:
        return [f"nothing found above k = {k} < alpha = {ref['alpha']}"]
    return _listed(graph, [found], k + 1, None)


def _listed(graph, sets, min_size, want_count):
    """Every set an anticlique of size >= min_size, no repeats, the right number."""
    problems = []
    if want_count is not None and len(sets) != want_count:
        problems.append(f"{len(sets)} sets listed, reference {want_count}")
    if len({tuple(sorted(xs)) for xs in sets}) != len(sets):
        problems.append("a set is listed twice")
    for xs in sets:
        bad = graph.set_problem(xs) or (
            f"{xs} has size {len(xs)} < {min_size}" if len(xs) < min_size else None
        )
        if bad:
            problems.append(bad)
            break
    return problems


def _check_all_core(params, graph, ref, out):
    alpha = len(ref["poly"]) - 1
    problems = _check_alpha({"ref": "alpha"}, graph, {"alpha": alpha}, out)
    sets = out["maximum_sets"]
    problems += _listed(graph, sets, alpha, ref["poly"][alpha])
    if sets:
        core = sorted(set.intersection(*(set(xs) for xs in sets)))
        if out["core"] != core:
            problems.append(f"core {out['core']}, intersection of the maximum sets {core}")
    return problems


def _check_enum(params, graph, ref, out):
    m = params["min_size"]
    problems = _listed(graph, out["anticliques"], m, sum(ref["poly"][m:]))
    if out["count"] != len(out["anticliques"]):
        problems.append(f"count {out['count']} for {len(out['anticliques'])} sets")
    return problems


def _check_threshold(params, graph, ref, out):
    return _check_enum({"min_size": params["k"] + 1}, graph, ref, out)


def _check_maximal(params, graph, ref, out):
    got, want = out["maximal"], ref["maximal"]
    if sorted(got) == want and out["count"] == len(want):
        return []
    missing = [xs for xs in want if xs not in got]
    extra = [xs for xs in got if xs not in want]
    return [f"maximal sets: {len(missing)} missing (e.g. {missing[:1]}), "
            f"{len(extra)} extra (e.g. {extra[:1]}), count {out['count']} "
            f"for reference {len(want)}"]


def _check_chromatic(params, graph, ref, out):
    problems = [] if out["chi"] == ref["chi"] else [f"chi = {out['chi']}, reference {ref['chi']}"]
    cover = out["cover"]
    if len(cover) != out["chi"]:
        problems.append(f"{len(cover)} cover sets for chi = {out['chi']}")
    for xs in cover:
        bad = graph.set_problem(xs)
        if bad:
            problems.append(f"cover: {bad}")
            break
    covered = set().union(*map(set, cover)) if cover else set()
    if covered != set(range(1, graph.v + 1)):
        problems.append(f"cover misses {sorted(set(range(1, graph.v + 1)) - covered)}")
    return problems


_CHECKS = {
    "count": _check_count,
    "poly": _check_poly,
    "alpha": _check_alpha,
    "first": _check_first,
    "all_core": _check_all_core,
    "enum": _check_enum,
    "threshold": _check_threshold,
    "maximal": _check_maximal,
    "chromatic": _check_chromatic,
}
