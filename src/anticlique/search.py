"""Search variants: threshold runs, currentmax branch and bound, bipartite setup.

All of them consume the exclusion run of enumerator.py with a prune policy:
rows are deleted by the cheap bound w_max (or its weighted generalization)
instead of all being finalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

from .enumerator import (
    ImpositionOrder,
    Prune,
    SearchStats,
    TraceHook,
    _deadline,
    _exclusion_run,
    _resolve_order,
    cover_order,
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
    """

    order: ImpositionOrder | None = None
    weights: Mapping[int, int] | None = None
    initial_witness: frozenset[int] | None = None


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
    trace: TraceHook | None = None,
    timeout_s: float | None = None,
):
    """Standard run that throws away every row whose w_max drops to <= k.

    mode="all": returns (finalized rows, stats); the members of size > k of
    those rows are exactly the anticliques of size > k.  mode="first": stops
    at the first finalized row and returns (its largest member, stats), or
    (None, stats) when no anticlique exceeds k.
    """
    if k < 0:
        raise ConfigurationError(f"threshold must be non-negative, got {k}")
    if mode not in ("all", "first"):
        raise ConfigurationError(f"unknown threshold mode {mode!r}")
    seq = _resolve_order(g, order).order
    stats = SearchStats()
    rows = _exclusion_run(g, seq, stats, Prune(Row.w_max, k), trace, _deadline(timeout_s))
    if mode == "all":
        return list(rows), stats
    row = next(rows, None)
    return (None if row is None else row.max_member()), stats


def threshold_alpha(
    g: Graph, *, timeout_s: float | None = None
) -> tuple[int, SearchStats]:
    """Alpha by iterated threshold probes, with the counters of all of them.

    Each probe raises k to its hit's size until none is left; the final empty
    probe at k = alpha certifies maximality.  One deadline bounds them all.
    """
    seq = full_order(g.v).order
    deadline = _deadline(timeout_s)
    total = SearchStats()
    k = 0
    while True:
        stats = SearchStats()
        hit = next(_exclusion_run(g, seq, stats, Prune(Row.w_max, k), None, deadline), None)
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

    Every row carries its w_max bound; rows are deleted the moment the bound
    falls to currentmax or below (ties pruned), and currentmax rises whenever
    a finalized row beats it.  With weights set, the weighted bound is used
    and the result is the maximum total weight.
    """
    opts = opts or SearchOptions()
    wt = _weight_vector(g, opts.weights) if opts.weights is not None else None
    best, best_set = _initial_state(g, opts, wt)
    seq = _resolve_order(g, opts.order).order
    bound, extract = _objective(wt)
    stats = SearchStats()
    prune = Prune(bound, best)
    for row in _exclusion_run(g, seq, stats, prune, trace, _deadline(timeout_s)):
        # every check kept the bound strictly above currentmax, so a
        # finalized row always improves it
        best = prune.limit = bound(row)
        best_set = extract(row)
        if trace:
            trace("improve", {"row": row.debug(), "currentmax": best})
    assert best_set is not None, "search ended without any witness"
    return MaxResult(alpha=best, witness=best_set, stats=stats)


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
    bound, _extract = _objective(wt)
    stats = SearchStats()
    rows = _exclusion_run(
        g, seq, stats, Prune(bound, res.alpha - 1), trace, _deadline(timeout_s)
    )
    if wt is None:
        sets = [X for row in rows for X in row.expand(res.alpha)]
    else:
        sets = [X for row in rows for X in row.expand()
                if sum(wt[p] for p in X) == res.alpha]
    sets.sort(key=sorted)
    return sets, stats


def all_max_anticliques(
    g: Graph, opts: SearchOptions | None = None, *, timeout_s: float | None = None
) -> tuple[int, list[frozenset[int]]]:
    """All maximum anticliques (maximum weight with ``opts.weights``), sorted.

    Phase 1 learns alpha with the currentmax search; phase 2 is
    ``maximum_sets``.
    """
    res = max_anticlique(g, opts, timeout_s=timeout_s)
    sets, _stats = maximum_sets(g, res, opts, timeout_s=timeout_s)
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


def _weighted_bound(row: Row, wt: list[int]) -> int:
    # a module function only because perfbench/tracer.py wraps it by name
    return row.max_weight(wt)


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
    wt: list[int] | None,
) -> tuple[Callable[[Row], int], Callable[[Row], frozenset[int]]]:
    """The row bound to prune by and a member achieving it: cardinality
    without weights, total weight with them."""
    if wt is None:
        return Row.w_max, Row.max_member
    return partial(_weighted_bound, wt=wt), partial(_weighted_member, wt=wt)


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
    return sum(wt[p] for p in witness) if wt is not None else len(witness), witness
