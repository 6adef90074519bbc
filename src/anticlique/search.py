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
prune check calls ``bound(row, limit, rec)``, which may stop as soon as it
knows on which side of the limit the full bound ``bound(row)[0]`` lies.

The check returns the bound and a record.  For the clique bound it is the
record of the greedy partition (``Row.clique_partition``): the row's
``zero|one`` mask, the ``rest`` mask at each head of the partition loop
and, with weights, the clique weight placed before each head.  The
exclusion run keeps each stacked row's record beside the row and passes it
back with the row's own recheck and with its sons' checks, so a check
resumes its ancestor's partition from the last head that none of the
positions set to ``0`` or ``1`` since then had left.  The partition is
deterministic, so the decision is the one a fresh partition gives.  The
``w_max`` bound keeps no record.

Every search runs in rank space, a ``_Ranks``: g's neighbour masks
relabelled once per search by ascending degree (with weights: descending
weight, then ascending degree), ties by the lower label.  The greedy
partition takes the lowest position left, so its cliques grow from the
vertices of fewest neighbours, MCQ's initial order; with weights each
starts at its heaviest vertex (Kumlander's order, 2004).  The rank space
holds the bound, maps the caller's imposition order into ranks and lists
the sets above a limit; sets, witnesses, hits and the trace are mapped
back to g's labels.

The searches default to vertex order, and take their imposition rule from
their bound.  Under the clique bound they run the own-premise rule (see
enumerator.py): each row imposes a pending vertex that does not hold yet,
the lowest-ranked in its *branch set* if there is one.  Without weights
that is MCQ's branching rule: with k = limit - |ones|, the branch set is
the row's live positions outside the first k cliques of its partition,
``heads[k]`` of its record (``_branch_set``).  An anticlique worth more
than the limit takes a vertex of that set, since k cliques hold at most k
of its vertices.  With weights the run takes the lowest-ranked (heaviest)
pending vertex.  Under ``w_max``, which keeps no record, the paper's rule
steps the order's sequence.  The CLI's ``alpha`` and ``threshold`` pass
``cover_degree_order(g)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Mapping

from .enumerator import (
    ImpositionOrder,
    Prune,
    SearchStats,
    TraceHook,
    _deadline,
    _exclusion_run,
    _remaining,
    _resolve_order,
    _shown,
    cover_order,
    expand_rows,
)
from .errors import ConfigurationError
from .graph import Graph, bipartition
from .imposition import anti_implication_holds, impose  # noqa: F401  wrapped by perfbench/tracer.py
from .rows import CliqueRecord, Row


@dataclass(frozen=True)
class SearchOptions:
    """Knobs for the currentmax search.

    ``initial_witness`` is an anticlique that seeds currentmax with its own
    size (or weight).  ``weights`` switches the search to maximum weight
    (strictly positive integer weights, missing vertices weigh 1).
    ``bound`` is the row bound that prunes: ``"clique"`` or the paper's
    ``"w_max"``, which also picks the imposition rule (see the module
    docstring).
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
    trace: TraceHook | None = None,
    timeout_s: float | None = None,
):
    """Standard run that throws away every row whose bound drops to <= k.

    ``bound`` is ``"clique"`` or the paper's ``"w_max"``, and picks the
    imposition rule as in ``max_anticlique``: under the clique bound each
    row imposes a pending vertex of ``order``, from its branch set if that
    holds one; under ``w_max`` the paper's rule imposes ``order`` as given.  The defaults are
    the run that ``threshold_alpha`` probes with; ``maximum_sets`` is this
    run at alpha - 1, and the CLI's ``threshold`` passes
    ``cover_degree_order(g)``.

    mode="all": returns (the anticliques of size > k, each once, sorted;
    stats), and one budget of ``timeout_s`` covers the run and the listing.
    mode="first": stops at the first finalized row and returns (its largest
    member, stats), or (None, stats) when no anticlique exceeds k.
    """
    if k < 0:
        raise ConfigurationError(f"threshold must be non-negative, got {k}")
    if mode not in ("all", "first"):
        raise ConfigurationError(f"unknown threshold mode {mode!r}")
    ranks = _Ranks(g, bound=bound)
    stats = SearchStats()
    deadline = _deadline(timeout_s)
    rows = ranks.run(g, order, stats, ranks.prune(k), trace, deadline)
    if mode == "all":
        return ranks.above(rows, k, deadline), stats
    row = next(rows, None)
    return (None if row is None else ranks.vertices(row.max_member())), stats


def threshold_alpha(
    g: Graph, *, bound: str = "clique", timeout_s: float | None = None
) -> tuple[int, SearchStats]:
    """Alpha by iterated threshold probes, with the counters of all of them.

    Each probe raises k to its hit's size until none is left; the final empty
    probe at k = alpha certifies maximality.  One deadline bounds them all.
    """
    deadline = _deadline(timeout_s)
    total = SearchStats()
    k = 0
    while True:
        hit, stats = threshold_search(g, k, "first", bound=bound, timeout_s=_remaining(deadline))
        total += stats
        if hit is None:
            return k, total
        k = len(hit)


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
    and the result is the maximum total weight.  The clique bound runs the
    own-premise rule, each row branching in its branch set; w_max runs the
    paper's rule (see the module docstring).
    """
    opts = opts or SearchOptions()
    wt = _weight_vector(g, opts.weights) if opts.weights is not None else None
    best, best_set = _initial_state(g, opts, wt)
    ranks = _Ranks(g, wt, opts.bound)
    if best_set is not None:
        best_set = frozenset(map(ranks.rank.__getitem__, best_set))
    stats = SearchStats()
    prune = ranks.prune(best)
    for row in ranks.run(g, opts.order, stats, prune, trace, _deadline(timeout_s)):
        # every check kept the bound strictly above currentmax, and on a
        # finalized row it equals its heaviest member's value, so a
        # finalized row always improves it
        best_set = ranks.member(row)
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
    from scratch with the same bound, rule and order at the fixed limit
    alpha - 1 (currentmax pruning discards rows that still hold
    equal-valued maxima, so the rows of ``res`` cannot be reused) and lists
    the members worth more than alpha - 1: as alpha is the maximum, those
    worth alpha.
    """
    opts = opts or SearchOptions()
    wt = _weight_vector(g, opts.weights) if opts.weights is not None else None
    ranks = _Ranks(g, wt, opts.bound)
    stats = SearchStats()
    deadline = _deadline(timeout_s)
    k = res.alpha - 1
    rows = ranks.run(g, opts.order, stats, ranks.prune(k), trace, deadline)
    return ranks.above(rows, k, deadline), stats


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
    ``bound(row, limit=None, rec=None)`` is the named row bound to prune
    by, as (value, record) for ``Prune``, ``branch`` its branch set
    (``_branch_set`` for the unweighted clique bound, else None), ``rule``
    the imposition rule of its searches and ``member(row)`` a
    member of a finalized row achieving the bound: cardinality without
    weights, total weight with them.
    """

    __slots__ = ("label", "rank", "nbr", "wt", "bound", "branch", "rule", "member")

    def __init__(self, g: Graph, wt: list[int] | None = None, bound: str = "clique"):
        if bound not in ("clique", "w_max"):
            raise ConfigurationError(f"unknown bound {bound!r}; use 'clique' or 'w_max'")
        adj = g.adjacency
        key = (lambda p: len(adj[p])) if wt is None else (lambda p: (-wt[p], len(adj[p])))
        self.label = label = [0, *sorted(range(1, g.v + 1), key=key)]   # stable: ties by label
        self.rank = rank = [0] * len(label)
        for r, p in enumerate(label):
            rank[p] = r
        bit = [1 << r for r in rank]
        self.nbr = [sum(map(bit.__getitem__, adj[p])) for p in label]
        self.wt = wt = None if wt is None else [wt[p] for p in label]
        nbr = self.nbr if bound == "clique" else None
        self.member = Row.max_member if wt is None else partial(_weighted_member, wt=wt)
        self.branch = None
        self.rule = "paper" if nbr is None else "own-premise"
        if wt is not None:
            self.bound = lambda row, limit=None, rec=None: _weighted_bound(row, wt, nbr, limit, rec)
        elif nbr is None:
            self.bound = lambda row, limit=None, rec=None: (row.w_max(), None)
        else:
            self.bound = lambda row, limit=None, rec=None: row.clique_partition(nbr, limit, rec)
            self.branch = _branch_set

    def prune(self, limit: int) -> Prune:
        """The policy that prunes by this space's bound at ``limit``."""
        return Prune(self.bound, limit, self.branch)

    def run(self, g: Graph, order: ImpositionOrder | None, stats: SearchStats, prune: Prune,
            trace: TraceHook | None, deadline: float | None) -> Iterator[Row]:
        """The exclusion run imposing ``order`` (vertex order if None) under
        this space's rule, in rank space; it yields rows in ranks and traces
        in g's labels."""
        seq = _resolve_order(g, order).order
        return _exclusion_run(g, tuple(map(self.rank.__getitem__, seq)), stats, prune,
                              trace, deadline, self.rule, self.nbr, self.label)

    def above(self, rows: Iterator[Row], k: int,
              deadline: float | None) -> list[frozenset[int]]:
        """The members of ``rows`` worth more than k, as vertex sets, sorted."""
        if self.wt is None:
            sets = expand_rows(rows, k + 1, deadline)
        else:
            sets = (X for X in expand_rows(rows, 0, deadline) if _value(X, self.wt) > k)
        return sorted(map(self.vertices, sets), key=sorted)

    def vertices(self, X: frozenset[int]) -> frozenset[int]:
        """The vertices of a set of ranks."""
        return frozenset(map(self.label.__getitem__, X))


def _branch_set(row: Row, limit: int, rec: CliqueRecord | None) -> int:
    """The live positions outside the first limit - |ones| cliques of the
    partition that ``rec`` records for ``row`` (0 without a record)."""
    if rec is None:
        return 0
    heads = rec[1]
    k = limit - row.one_mask.bit_count()
    if k < 0:
        k = 0
    elif k >= len(heads):
        k = -1
    return heads[k] & ~(row.zero_mask | row.one_mask)


def _weighted_bound(row: Row, wt: list[int], nbr: list[int] | None = None,
                    limit: int | None = None,
                    rec: CliqueRecord | None = None) -> tuple[int, CliqueRecord | None]:
    # a module function only because perfbench/tracer.py wraps it by name
    if nbr is None:
        return row.max_weight(wt), None
    return row.clique_partition(nbr, limit, rec, wt)


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
