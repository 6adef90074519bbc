"""Search variants: threshold runs, currentmax branch and bound, bipartite setup.

All of them consume the exclusion run of enumerator.py with a prune policy:
rows are deleted by an upper bound on their anticliques instead of all being
finalized.  ``bound="clique"`` (the default) is ``Row.clique_bound``, a greedy
clique-cover bound (the colouring bound of Carraghan & Pardalos, 1990, and
Tomita & Seki's MCQ, 2003, applied to anticliques) capped by w_max;
``bound="w_max"`` is the paper's w_max = v - |zeros| - |premises|.  With
weights, each takes its weighted form.  Both equal w_max (the heaviest
member's weight) on a finalized row, so answers do not depend on the
choice; the rows visited, the counters and possibly the witnesses do.  A
prune check calls ``bound(row, limit)``, which may stop as soon as it knows
on which side of the limit the full bound ``bound(row)`` lies.

Every search runs in rank space: on g's neighbour masks relabelled once
per search by ascending degree (with weights: descending weight, then
ascending degree), ties by the lower label.  The greedy partition takes
the lowest position left, so its cliques grow from the vertices of fewest
neighbours, MCQ's initial order; with weights each starts at its heaviest
vertex (Kumlander's order, 2004).  The caller's imposition order is kept,
mapped into ranks; witnesses, hits, rows, sets and the trace are mapped
back to g's labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Mapping

from .enumerator import (
    ImpositionOrder,
    Prune,
    SearchStats,
    TraceHook,
    _check_rule,
    _deadline,
    _exclusion_run,
    _remaining,
    _resolve_order,
    _shown,
    cover_order,
    expand_rows,
    full_order,
)
from .errors import ConfigurationError
from .graph import Graph, bipartition
from .imposition import anti_implication_holds, impose  # noqa: F401  wrapped by perfbench/tracer.py
from .rows import Row


@dataclass(frozen=True)
class SearchOptions:
    """Knobs for the currentmax search.

    ``initial_witness`` is an anticlique that seeds currentmax with its own
    size (or weight).  ``weights`` switches the search to maximum weight
    (strictly positive integer weights, missing vertices weigh 1).
    ``bound`` is the row bound that prunes: ``"clique"`` or the paper's
    ``"w_max"`` (see the module docstring).
    """

    order: ImpositionOrder | None = None
    weights: Mapping[int, int] | None = None
    initial_witness: frozenset[int] | None = None
    bound: str = "clique"


@dataclass(frozen=True)
class MaxResult:
    """Best value found, a witness achieving it, and the run counters."""

    alpha: int
    witness: frozenset[int]
    stats: SearchStats


def threshold_search(
    g: Graph,
    k: int,
    mode: str = "all",
    *,
    order: ImpositionOrder | None = None,
    bound: str = "clique",
    rule: str = "paper",
    trace: TraceHook | None = None,
    timeout_s: float | None = None,
):
    """Standard run that throws away every row whose bound drops to <= k.

    ``bound`` is ``"clique"`` or the paper's ``"w_max"``; ``rule`` is the
    imposition rule (see enumerator.py), and ``order`` is imposed as given.
    The defaults are the run that ``threshold_alpha`` probes with and
    ``maximum_sets`` repeats; the CLI's ``threshold`` passes
    ``rule="own-premise"`` and ``degree_order(g)``.

    mode="all": returns (finalized rows, stats); the members of size > k of
    those rows are exactly the anticliques of size > k.  mode="first": stops
    at the first finalized row and returns (its largest member, stats), or
    (None, stats) when no anticlique exceeds k.
    """
    if k < 0:
        raise ConfigurationError(f"threshold must be non-negative, got {k}")
    if mode not in ("all", "first"):
        raise ConfigurationError(f"unknown threshold mode {mode!r}")
    _check_rule(rule)
    seq = _resolve_order(g, order).order
    ranks = _Ranks(g)
    row_bound, _member = _objective(ranks, bound)
    stats = SearchStats()
    rows = ranks.run(g, seq, stats, Prune(row_bound, k), trace, _deadline(timeout_s), rule)
    if mode == "all":
        bit = [1 << p for p in ranks.label]
        return [row.relabel(bit) for row in rows], stats
    row = next(rows, None)
    return (None if row is None else ranks.vertices(row.max_member())), stats


def threshold_alpha(
    g: Graph, *, bound: str = "clique", timeout_s: float | None = None
) -> tuple[int, SearchStats]:
    """Alpha by iterated threshold probes, with the counters of all of them.

    Each probe raises k to its hit's size until none is left; the final empty
    probe at k = alpha certifies maximality.  One deadline bounds them all.
    """
    seq = full_order(g.v).order
    ranks = _Ranks(g)
    row_bound, _member = _objective(ranks, bound)
    deadline = _deadline(timeout_s)
    total = SearchStats()
    k = 0
    while True:
        stats = SearchStats()
        hit = next(ranks.run(g, seq, stats, Prune(row_bound, k), None, deadline), None)
        total += stats
        if hit is None:
            return k, total
        k = hit.w_max()


def max_anticlique(
    g: Graph,
    opts: SearchOptions | None = None,
    *,
    trace: TraceHook | None = None,
    timeout_s: float | None = None,
) -> MaxResult:
    """Exact maximum anticlique via the currentmax branch and bound.

    Rows are deleted the moment their bound (``opts.bound``: the clique
    bound by default, the paper's w_max with ``"w_max"``) falls to
    currentmax or below (ties pruned), and currentmax rises whenever a
    finalized row beats it.  With weights set, the weighted bound is used
    and the result is the maximum total weight.
    """
    opts = opts or SearchOptions()
    wt = _weight_vector(g, opts.weights) if opts.weights is not None else None
    best, best_set = _initial_state(g, opts, wt)
    seq = _resolve_order(g, opts.order).order
    ranks = _Ranks(g, wt)
    bound, member = _objective(ranks, opts.bound)
    if best_set is not None:
        best_set = frozenset(map(ranks.rank.__getitem__, best_set))
    stats = SearchStats()
    prune = Prune(bound, best)
    for row in ranks.run(g, seq, stats, prune, trace, _deadline(timeout_s)):
        # every check kept the bound strictly above currentmax, and on a
        # finalized row it equals its heaviest member's value, so a
        # finalized row always improves it
        best_set = member(row)
        best = prune.limit = _value(best_set, ranks.wt)
        if trace:
            trace("improve", {"row": _shown(row, ranks.label), "currentmax": best})
    assert best_set is not None, "search ended without any witness"
    return MaxResult(alpha=best, witness=ranks.vertices(best_set), stats=stats)


def max_weight_anticlique(
    g: Graph,
    weights: Mapping[int, int],
    *,
    order: ImpositionOrder | None = None,
    trace: TraceHook | None = None,
    timeout_s: float | None = None,
) -> MaxResult:
    """Maximum total-weight anticlique for strictly positive integer weights."""
    opts = SearchOptions(order=order, weights=weights)
    return max_anticlique(g, opts, trace=trace, timeout_s=timeout_s)


def maximum_sets(
    g: Graph,
    res: MaxResult,
    opts: SearchOptions | None = None,
    *,
    trace: TraceHook | None = None,
    timeout_s: float | None = None,
) -> tuple[list[frozenset[int]], SearchStats]:
    """Every anticlique achieving ``res.alpha``, each once, sorted; plus counters.

    ``res`` is ``max_anticlique(g, opts)``.  This reruns the exclusion run
    from scratch with the same bound and order at the fixed limit alpha - 1
    (currentmax pruning discards rows that still hold equal-valued maxima,
    so the rows of ``res`` cannot be reused).  With weights, the sets are the
    members whose total weight is alpha.
    """
    opts = opts or SearchOptions()
    wt = _weight_vector(g, opts.weights) if opts.weights is not None else None
    seq = _resolve_order(g, opts.order).order
    ranks = _Ranks(g, wt)
    bound, _member = _objective(ranks, opts.bound)
    stats = SearchStats()
    deadline = _deadline(timeout_s)
    rows = ranks.run(g, seq, stats, Prune(bound, res.alpha - 1), trace, deadline)
    if wt is None:
        sets = expand_rows(rows, res.alpha, deadline)
    else:
        sets = (X for X in expand_rows(rows, 0, deadline)
                if _value(X, ranks.wt) == res.alpha)
    return sorted(map(ranks.vertices, sets), key=sorted), stats


def all_max_anticliques(
    g: Graph, opts: SearchOptions | None = None, *, timeout_s: float | None = None
) -> tuple[int, list[frozenset[int]]]:
    """All maximum anticliques (maximum weight with ``opts.weights``), sorted.

    Phase 1 learns alpha with the currentmax search; phase 2 is
    ``maximum_sets``.  Both share the one budget of ``timeout_s``.
    """
    deadline = _deadline(timeout_s)
    res = max_anticlique(g, opts, timeout_s=timeout_s)
    sets, _stats = maximum_sets(g, res, opts, timeout_s=_remaining(deadline))
    return res.alpha, sets


def core(
    g: Graph, opts: SearchOptions | None = None, *, timeout_s: float | None = None
) -> frozenset[int]:
    """Intersection of all maximum anticliques."""
    _alpha, sets = all_max_anticliques(g, opts, timeout_s=timeout_s)
    return frozenset.intersection(*sets)


def bipartite_options(g: Graph) -> SearchOptions:
    """Search options exploiting bipartiteness.

    The smaller color class is a vertex cover, so imposing only its
    anti-implications suffices; the larger class is itself an anticlique and
    seeds currentmax.
    """
    parts = bipartition(g)
    if parts is None:
        raise ConfigurationError("graph is not bipartite")
    small, big = parts
    return SearchOptions(
        order=cover_order(g, small),
        initial_witness=frozenset(big),
    )


# -- internals --------------------------------------------------------------


def _weight_vector(g: Graph, weights: Mapping[int, int]) -> list[int]:
    wt = [0] + [1] * g.v
    for vertex, weight in weights.items():
        if not 1 <= vertex <= g.v:
            raise ConfigurationError(f"weight for unknown vertex {vertex}")
        if not isinstance(weight, int) or weight < 1:
            raise ConfigurationError(
                f"weights must be positive integers, got {weight!r} for vertex {vertex}"
            )
        wt[vertex] = weight
    return wt


class _Ranks:
    """g's rank space for one search (see the module docstring).

    ``label[r]`` is the vertex of rank r and ``rank[p]`` the rank of vertex
    p (both 0 at 0); ``nbr[r]`` is rank r's neighbour mask in ranks and
    ``wt[r]`` its weight, None without weights.
    """

    __slots__ = ("label", "rank", "nbr", "wt")

    def __init__(self, g: Graph, wt: list[int] | None = None):
        adj = g.adjacency
        key = (lambda p: len(adj[p])) if wt is None else (lambda p: (-wt[p], len(adj[p])))
        self.label = label = [0, *sorted(range(1, g.v + 1), key=key)]   # stable: ties by label
        self.rank = rank = [0] * len(label)
        for r, p in enumerate(label):
            rank[p] = r
        bit = [1 << r for r in rank]
        self.nbr = [sum(map(bit.__getitem__, adj[p])) for p in label]
        self.wt = None if wt is None else [wt[p] for p in label]

    def run(self, g: Graph, seq: tuple[int, ...], stats: SearchStats, prune: Prune,
            trace: TraceHook | None, deadline: float | None,
            rule: str = "paper") -> Iterator[Row]:
        """The exclusion run imposing ``seq``, vertices of g, in rank space;
        it yields rows in ranks and traces in g's labels."""
        return _exclusion_run(g, tuple(map(self.rank.__getitem__, seq)), stats, prune,
                              trace, deadline, rule, self.nbr, self.label)

    def vertices(self, X: frozenset[int]) -> frozenset[int]:
        """The vertices of a set of ranks."""
        return frozenset(map(self.label.__getitem__, X))


def _weighted_bound(row: Row, wt: list[int], nbr: list[int] | None = None,
                    limit: int | None = None) -> int:
    # a module function only because perfbench/tracer.py wraps it by name
    if nbr is None:
        return row.max_weight(wt)
    return row.weighted_clique_bound(nbr, wt, limit)


def _weighted_member(row: Row, wt: list[int]) -> frozenset[int]:
    """A member achieving the weighted bound; prefers the anticonclusion on ties."""
    base, groups = row.decompose()
    member = set(base)
    for prem, anti in groups:
        if wt[prem] > sum(map(wt.__getitem__, anti)):
            member.add(prem)
        else:
            member |= anti
    return frozenset(member)


def _objective(
    ranks: _Ranks, bound: str,
) -> tuple[Callable[..., int], Callable[[Row], frozenset[int]]]:
    """The row bound to prune by in rank space, ``bound(row, limit=None)``,
    and a member of a finalized row achieving it: cardinality without
    weights, total weight with them."""
    if bound not in ("clique", "w_max"):
        raise ConfigurationError(f"unknown bound {bound!r}; use 'clique' or 'w_max'")
    nbr = ranks.nbr if bound == "clique" else None
    wt = ranks.wt
    if wt is not None:
        return (lambda row, limit=None: _weighted_bound(row, wt, nbr, limit),
                partial(_weighted_member, wt=wt))
    if nbr is None:
        return lambda row, limit=None: row.w_max(), Row.max_member
    return lambda row, limit=None: row.clique_bound(nbr, limit), Row.max_member


def _value(X: frozenset[int], wt: list[int] | None) -> int:
    """The size of X, or its total weight."""
    return len(X) if wt is None else sum(map(wt.__getitem__, X))


def _is_anticlique(g: Graph, X: frozenset[int]) -> bool:
    return all(X.isdisjoint(g.adjacency[y]) for y in X)


def _initial_state(
    g: Graph, opts: SearchOptions, wt: list[int] | None
) -> tuple[int, frozenset[int] | None]:
    witness = opts.initial_witness
    if witness is None:
        return 0, None
    if not all(1 <= p <= g.v for p in witness):
        raise ConfigurationError("initial witness out of range")
    if not _is_anticlique(g, witness):
        raise ConfigurationError("initial witness is not an anticlique")
    return _value(witness, wt), witness
