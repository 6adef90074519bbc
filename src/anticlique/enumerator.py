"""The exclusion run: a LIFO stack of rows, finalized rows streamed out.

Starting from the all-free row, the anti-implications of the vertices of an
order (every vertex by default) are imposed, one vertex at a time, on the
top row of a working stack.  The order may be any set of distinct vertices
that covers every edge, and by the paper's cover theorem its vertices may be
imposed in any sequence, even a different one on each row: a vertex not yet
imposed never holds ``1`` or ``a``, because both are only created at the
vertex being imposed.  Splits push the t-out son below the t-in son; rows
whose pending anti-implications are exhausted are finalized and streamed to
the caller.  In the standard run the finalized rows are pairwise disjoint
families whose union is exactly the set of anticliques (independent sets) of
the graph.  The searches in search.py run the same loop with a prune policy
that deletes rows whose bound cannot beat a limit.

Two imposition rules exist.  ``"paper"`` is the paper's literal run in the
order's sequence: the test ``anti_implication_holds`` runs once per popped
row, and every other anti-implication goes through ``impose``.
``"own-premise"`` passes over a vertex whose anti-implication already
holds, also one whose only live neighbour is its own group's premise (the
group's contrapositive already excludes the pair), instead of splitting on
it, and chooses each row's next vertex among the order's vertices still
pending on the row, so the order gives the set and the run chooses within
it.  Without a prune policy it takes the one with the most live
neighbours, ties to the higher label.  A pruned run takes the lowest
pending position in the prune policy's *branch set* (for a search's clique
bound, MCQ's: the positions outside the first limit - |ones| cliques of the
row's greedy partition), or the lowest pending position when the branch
set holds none.
``fibonacci_number``, ``independence_polynomial`` and
``enumerate_anticliques`` run the own-premise rule on the order they are
given, by default ``cover_degree_order``: the vertices
by descending degree, less a greedy maximal anticlique.  On
``random_graph(45, 0.08, 11)`` that finalizes 2,121 rows, where all
vertices finalize 1,802 and the paper's run 180,154; on
``random_graph(45, 0.1, 13)``, 4,445.  ``run_standard`` defaults to the
paper's rule in vertex order.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import asdict, astuple, dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import ConfigurationError, SearchTimeout, StackBoundWarning
from .graph import Graph
from .imposition import Mutated, Split, anti_implication_holds, impose
from .rows import Polynomial, Row, _positions, full_row, spectrum_of_shapes

TraceHook = Callable[[str, dict], None]

RULES = ("paper", "own-premise")

DEADLINE_EVERY = 1024   # members listed between two deadline checks

_T = TypeVar("_T")


@dataclass
class SearchStats:
    """Counters of one solver run."""

    rsp: int = 0              # row splittings
    trivial_changes: int = 0  # impositions that left the row whole
    peak_stack: int = 0       # largest working-stack size observed
    finalized: int = 0        # rows that reached the output stack
    deleted: int = 0          # rows pruned (0 in a standard run)

    def __add__(self, other: "SearchStats") -> "SearchStats":
        """Counters of two runs together; the peak is the larger of the two."""
        total = SearchStats(*(a + b for a, b in zip(astuple(self), astuple(other))))
        total.peak_stack = max(self.peak_stack, other.peak_stack)
        return total

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Prune:
    """Delete every row whose ``bound`` falls to ``limit`` or below.

    ``bound(row, L, rec)`` returns a value and a record.  The value need
    only lie on the same side of L as the full bound ``bound(row)[0]``.
    The record is opaque to the run: it keeps it beside the row, and passes
    it back with the row's next check and with the first check of each of
    the row's sons, so that a bound may resume from work done on an
    ancestor (a search's clique bound resumes its partition, see
    ``Row.clique_partition``).  ``rec`` is None at a run's first check.  The
    consumer of an exclusion run may raise ``limit`` between the rows it
    receives; currentmax raises it to each finalized row's value.

    ``branch(row, L, rec)``, if given, returns the mask of the row's
    *branch set*: the positions among which an own-premise run chooses the
    row's next vertex first (see ``_exclusion_run``).  L is the limit and
    ``rec`` the record of the row's last check.
    """

    bound: Callable[..., tuple[int, object]]
    limit: int
    branch: Callable[..., int] | None = None


@dataclass(frozen=True)
class ImpositionOrder:
    """The vertices whose anti-implications get imposed, in this order.

    Any sequence of distinct vertices is sound as long as it is a vertex
    cover, which run_standard verifies.  The paper's rule imposes it in this
    sequence; an own-premise run, pruned or not, takes only the set and
    chooses the sequence row by row.
    """

    order: tuple[int, ...]


def full_order(v: int) -> ImpositionOrder:
    return ImpositionOrder(tuple(range(1, v + 1)))


def cover_order(g: Graph, vertices: Iterable[int]) -> ImpositionOrder:
    """Validated cover order over a subset of vertices (sorted increasing)."""
    order = ImpositionOrder(tuple(sorted(set(vertices))))
    _check_order(g, order)
    return order


def degree_order(g: Graph) -> ImpositionOrder:
    """g's vertices by descending degree, ties broken by the lower label."""
    return ImpositionOrder(tuple(sorted(range(1, g.v + 1),
                                        key=lambda y: (-len(g.adjacency[y]), y))))


def cover_degree_order(g: Graph) -> ImpositionOrder:
    """``degree_order(g)`` without a greedy maximal anticlique: a vertex cover.

    Walking ``degree_order(g)`` from its end, every vertex with no neighbour
    kept so far is kept; the kept vertices form a maximal anticlique and the
    rest, in ``degree_order``, are returned.  By the cover theorem imposing
    them alone yields every anticlique; a vertex left out ends free or as an
    anticonclusion position and never costs an imposition.
    """
    seq = degree_order(g).order
    kept: set[int] = set()
    for y in reversed(seq):
        if kept.isdisjoint(g.adjacency[y]):
            kept.add(y)
    return ImpositionOrder(tuple(y for y in seq if y not in kept))


def _check_order(g: Graph, order: ImpositionOrder) -> None:
    seq = order.order
    members = set(seq)
    if len(members) < len(seq):
        raise ConfigurationError("imposition order names a vertex twice")
    if seq and (min(seq) < 1 or max(seq) > g.v):
        raise ConfigurationError(f"imposition order out of range 1..{g.v}")
    for i, j in g.edges:
        if i not in members and j not in members:
            raise ConfigurationError(
                f"imposition order misses edge ({i}, {j}); not a vertex cover"
            )


def _resolve_order(g: Graph, order: ImpositionOrder | None) -> ImpositionOrder:
    if order is None:
        return full_order(g.v)
    _check_order(g, order)
    return order


def run_standard(
    g: Graph,
    order: ImpositionOrder | None = None,
    *,
    rule: str = "paper",
    min_size: int = 0,
    trace: TraceHook | None = None,
    timeout_s: float | None = None,
) -> tuple[Iterator[Row], SearchStats]:
    """Run the standard exclusion algorithm; rows stream, nothing is pruned.

    Returns (row iterator, stats); the stats object fills in as the iterator
    is consumed and is complete once it is exhausted.  ``rule`` is
    ``"paper"`` or ``"own-premise"`` (see the module docstring); the
    own-premise run takes only the set of ``order`` and chooses each row's
    next vertex within it.  A ``min_size`` of 1 or more is the size floor
    of a listing that wants only members of that size (see
    ``_exclusion_run``): rows are no longer split once their largest
    member reaches it, and ``expand(min_size)`` of the rows yielded lists
    exactly the anticliques of ``min_size`` vertices or more.  With
    ``trace`` set, the hook receives an event per imposition and per
    finalized row, plus a final "done" event.  The iterator raises
    SearchTimeout once ``timeout_s`` seconds have passed since this call.
    """
    _check_rule(rule)
    ord_ = _resolve_order(g, order)
    stats = SearchStats()
    rows = _exclusion_run(g, ord_.order, stats, None, trace, _deadline(timeout_s), rule,
                          floor=min_size if min_size >= 1 else None)
    return rows, stats


def _check_rule(rule: str) -> None:
    if rule not in RULES:
        raise ConfigurationError(f"unknown imposition rule {rule!r}; expected one of {RULES}")


def _deadline(timeout_s: float | None) -> float | None:
    return None if timeout_s is None else time.monotonic() + timeout_s


def _until(items: Iterator[_T], deadline: float) -> Iterator[_T]:
    """``items`` as they come; raises SearchTimeout once ``deadline`` (on
    time.monotonic()) has passed, checked every DEADLINE_EVERY items."""
    while chunk := list(islice(items, DEADLINE_EVERY)):
        _check_deadline(deadline)
        yield from chunk


def _check_deadline(deadline: float | None) -> None:
    """Raise SearchTimeout if ``deadline`` (on time.monotonic()) has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout("search exceeded its time budget")


def _remaining(deadline: float | None) -> float | None:
    """The seconds left until ``deadline``, as a ``timeout_s``."""
    return None if deadline is None else deadline - time.monotonic()


def _default_order(g: Graph, order: ImpositionOrder | None) -> ImpositionOrder:
    """The order an own-premise engine chooses within: ``order`` as given,
    by default ``cover_degree_order(g)``."""
    return cover_degree_order(g) if order is None else order


def _exclusion_run(
    g: Graph,
    seq: tuple[int, ...],
    stats: SearchStats,
    prune: Prune | None,
    trace: TraceHook | None,
    deadline: float | None,
    rule: str = "paper",
    nbr: Sequence[int] | None = None,
    labels: Sequence[int] | None = None,
    floor: int | None = None,
) -> Iterator[Row]:
    """The row-stack loop behind every engine; yields the finalized rows.

    Anti-implications of the vertices of ``seq`` are imposed on the top row;
    a split pushes the t-out son below the t-in son.  Each stack entry is
    ``(row, pending, kept_at, rec)``: the row, its pending anti-implications,
    the limit it was last checked at and the bound record of that check.
    ``pending`` is taken before each ``impose`` and both sons of a split get
    it, so both leave t out.  It has two meanings:

    * under the paper's rule it is an index into ``seq``: the next vertex
      to impose, stepped in sequence;
    * under the own-premise rule, pruned or not, the run is *chosen*: it is
      the mask of the vertices of ``seq`` not yet imposed on the row.  A
      pending vertex with no live neighbour, or whose only one is its own
      group's premise, holds its anti-implication; it is dropped from the
      mask as an Unchanged outcome, tested inline without a call.  Without
      ``prune`` each step scans the pending vertices that are not 0, from
      the highest label down, drops those that hold and imposes the one
      with the most live neighbours, ties to the higher label.  With
      ``prune`` each step imposes the lowest pending position in the
      branch set ``prune.branch(row, limit, rec)``, or the lowest pending
      position if the branch set holds none; it tests the candidates from
      the lowest up and drops those that hold until one does not.  A row is
      finalized once no pending vertex is left.

    With ``prune`` set, a row is deleted once its bound is at most the
    limit: after a Mutated outcome, for each son of a split, and when it is
    popped if the limit has risen since it was pushed.

    ``floor`` is a listing's size floor, the size below which it wants no
    member.  Before each step a row whose w_max is below the floor is
    deleted, and one whose w_max equals it is *settled* instead of split:
    its largest members that hold no edge at a pending vertex
    (``_largest_anticliques``) are yielded one by one, each as a
    one-member row counted as finalized.  A settled row that yields none
    is counted as deleted, and traced as a ``prune`` event, as is a row
    deleted below the floor.  ``deadline`` is
    absolute, on time.monotonic().  ``impose`` and the paper's pop-time
    test get the imposed vertex's neighbour mask ``nbr[t]`` (by default
    built once per run for the vertices of ``seq`` only), and both stay
    calls to this module's names, which perfbench/tracer.py wraps.  A
    search passes g's relabelled masks and ``labels``, the vertex of g at
    each position, for the trace.
    """
    own_premise = rule == "own-premise"
    branch = None if prune is None else prune.branch
    n = len(seq)
    if nbr is None:
        nbr = {t: g.nbr_mask(t) for t in seq}
    # without prune every row stays at limit -1 with no bound record, so
    # none is checked
    limit, zero_rec = -1, None
    stack = [(full_row(g.v), sum(1 << t for t in seq) if own_premise else 0, limit, zero_rec)]
    stats.peak_stack = 1
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout("search exceeded its time budget")
        row, pending, kept_at, rec = stack.pop()
        if prune is not None:
            limit = prune.limit
        if kept_at < limit:
            row, rec = _kept(row, rec, prune, stats, trace, labels)
            if row is None:
                continue
        # paper rule: a popped row's pending anti-implication may hold
        # already; test it once, then run the mechanical case analysis until
        # split or finalize
        if (not own_premise and pending < n
                and anti_implication_holds(row, seq[pending], nbr[seq[pending]])):
            stats.trivial_changes += 1
            pending += 1
        while row is not None:
            if floor is not None:
                # w_max, spelled out: perfbench/tracer.py counts Row.w_max
                # calls as the searches' bound checks
                w = row.v - row.zero_mask.bit_count() - len(row.groups)
                if w <= floor:
                    break
            if own_premise:
                # drop the pending vertices that hold, and choose t
                notz = ~row.zero_mask
                groups = row.groups
                pend = rest = pending & notz
                if prune is None:
                    t = most = 0
                    while rest:
                        q = rest.bit_length() - 1
                        bit = 1 << q
                        rest ^= bit
                        live = nbr[q] & notz
                        if live & (live - 1):
                            d = live.bit_count()
                            if d > most:
                                t, most = q, d
                        elif not live or groups.get(live.bit_length() - 1, 0) & bit:
                            pend ^= bit
                        elif not most:
                            t, most = q, 1
                else:
                    # the lowest rank that does not hold, in the branch set
                    # first; each vertex passed over holds and is dropped
                    t = 0
                    inside = pend & branch(row, limit, rec) if branch else 0
                    for rest in (inside, pend ^ inside):
                        while rest:
                            bit = rest & -rest
                            rest ^= bit
                            live = nbr[bit.bit_length() - 1] & notz
                            if live & (live - 1) or live and not (
                                    groups.get(live.bit_length() - 1, 0) & bit):
                                t = bit.bit_length() - 1
                                break
                            pend ^= bit
                        if t:
                            break
                stats.trivial_changes += (pending ^ pend).bit_count()
                if not t:
                    break
                pending = pend ^ 1 << t
            else:
                if pending >= n:
                    break
                t = seq[pending]
                pending += 1
            # pending now leaves t out; both sons of a split get it, the
            # t-out son on the stack and the t-in son as the current row
            outcome = impose(row, t, nbr[t])
            if type(outcome) is Split:
                stats.rsp += 1
                zero, one = outcome.zero_son, outcome.one_son
                if prune is not None:
                    # both sons resume the partition of the row's record
                    zero, zero_rec = _kept(zero, rec, prune, stats, trace, labels)
                    one, rec = _kept(one, rec, prune, stats, trace, labels)
                    if one is None:
                        one, rec, zero = zero, zero_rec, None
                if zero is not None:
                    stack.append((zero, pending, limit, zero_rec))
                    stats.peak_stack = max(stats.peak_stack, len(stack) + 1)
                row = one
            else:
                # Unchanged, or Mutated: impose changed the row in place
                stats.trivial_changes += 1
                if prune is not None and type(outcome) is Mutated:
                    row, rec = _kept(row, rec, prune, stats, trace, labels)
            if trace:
                trace("impose", _snapshot(t, outcome, row, pending, stack,
                                          None if own_premise else seq, labels))
        if row is None:
            continue
        if floor is not None and w <= floor:
            if not own_premise:
                pending = sum(1 << t for t in seq[pending:])
            settled = 0
            if w == floor:
                full = (1 << (row.v + 1)) - 2
                for X in _largest_anticliques(row, pending, nbr, deadline):
                    settled += 1
                    member = Row(row.v, full ^ X, X, {})
                    stats.finalized += 1
                    if trace:
                        trace("finalize", {"row": _shown(member, labels), "count": 1})
                    yield member
            if not settled:
                stats.deleted += 1
                if trace:
                    trace("prune", {"row": _shown(row, labels), "bound": min(w, floor - 1),
                                    "limit": floor - 1})
            continue
        stats.finalized += 1
        if trace:
            trace("finalize", {"row": _shown(row, labels), "count": row.member_count()})
        yield row
    if prune is None and stats.peak_stack > max(g.w, 1):
        warnings.warn(
            f"working stack peaked at {stats.peak_stack} rows, above the "
            f"edge-count bound {g.w}",
            StackBoundWarning,
            stacklevel=2,
        )
    if trace:
        trace("done", {})


def _largest_anticliques(row: Row, pending: int, nbr: Sequence[int],
                         deadline: float | None) -> Iterator[int]:
    """The masks of ``row``'s largest members that hold no edge at a vertex
    of ``pending``, depth first.

    A largest member holds the ``1`` and free positions and every
    anticonclusion, and for each group whose anticonclusion is a single
    position either that position or the premise, in this order.  The
    choice is made group by group in premise order, and a partial member
    that holds an edge at a pending vertex is not extended.  Every vertex
    not pending holds its anti-implication on the row (or is no vertex of
    the order, and the order covers every edge), so the members yielded
    are anticliques.  Past ``deadline`` SearchTimeout is raised; it is
    checked every DEADLINE_EVERY partial members.
    """
    member = ((1 << (row.v + 1)) - 2) & ~row.zero_mask
    swaps = []   # (anticonclusion, premise) bits of the one-position groups
    for prem, anti in sorted(row.groups.items()):
        member ^= 1 << prem
        if not anti & (anti - 1):
            member ^= anti
            swaps.append((anti, 1 << prem))
    # hit: the positions adjacent to a pending position of the member
    hit = 0
    rest = member & pending
    while rest:
        bit = rest & -rest
        rest ^= bit
        hit |= nbr[bit.bit_length() - 1]
    if hit & member:
        return
    todo = [(0, member, hit)]
    visited = 0
    while todo:
        visited += 1
        if not visited % DEADLINE_EVERY:
            _check_deadline(deadline)
        j, member, hit = todo.pop()
        if j == len(swaps):
            yield member
            continue
        # pushed premise first, so the anticonclusion is taken first
        for bit in reversed(swaps[j]):
            if bit & hit:
                continue
            if bit & pending:
                near = nbr[bit.bit_length() - 1]
                if near & member:
                    continue
                todo.append((j + 1, member | bit, hit | near))
            else:
                todo.append((j + 1, member | bit, hit))


def _kept(row: Row, rec: object, prune: Prune, stats: SearchStats, trace: TraceHook | None,
          labels: Sequence[int] | None) -> tuple[Row | None, object]:
    """(the row, its new bound record) if its bound, resumed from ``rec``,
    beats the limit; otherwise (None, None), counted as deleted."""
    limit = prune.limit
    bound, rec = prune.bound(row, limit, rec)
    if bound > limit:
        return row, rec
    stats.deleted += 1
    if trace:
        trace("prune", {"row": _shown(row, labels), "bound": prune.bound(row)[0],
                        "limit": limit})
    return None, None


def _shown(row: Row, labels: Sequence[int] | None = None) -> str:
    """``row.debug()``, with position p printed as vertex ``labels[p]``."""
    return (row if labels is None else row.relabel([1 << p for p in labels])).debug()


def _snapshot(t, outcome, current, pending, stack, seq, labels) -> dict:
    """An ``impose`` event: the vertex, the outcome and the working stack,
    top first: the current row, with ``pending``, then the stack entries.
    Each row shows its pending vertex in ``seq``, or with ``seq`` None (a
    chosen run) its pending vertices that are not 0."""
    def vertex(p: int) -> int:
        return p if labels is None else labels[p]

    def label(r: Row, pend: int) -> str:
        if seq is None:
            shown = "{" + ",".join(
                str(vertex(p)) for p in _positions(pend & ~r.zero_mask)) + "}"
        else:
            shown = vertex(seq[pend]) if pend < len(seq) else "-"
        return f"{_shown(r, labels)} PA={shown}"

    working = [] if current is None else [label(current, pending)]
    return {
        "t": vertex(t),
        "outcome": type(outcome).__name__.lower(),
        "working": working + [label(r, pend) for r, pend, _, _ in reversed(stack)],
    }


def fibonacci_number(
    g: Graph, order: ImpositionOrder | None = None, *, timeout_s: float | None = None
) -> int:
    """Total number of anticliques of g (streaming, rows never stored).

    Runs the own-premise rule on ``order``, by default
    ``cover_degree_order(g)``; raises SearchTimeout after ``timeout_s``.
    """
    rows, _stats = run_standard(g, _default_order(g, order), rule="own-premise",
                                timeout_s=timeout_s)
    return sum(row.member_count() for row in rows)


def independence_polynomial(
    g: Graph, order: ImpositionOrder | None = None, *, timeout_s: float | None = None
) -> Polynomial:
    """Coefficient k counts the k-element anticliques; degree is alpha(g).

    Runs the own-premise rule on ``order``, by default
    ``cover_degree_order(g)``; raises SearchTimeout after ``timeout_s``.
    """
    rows, _stats = run_standard(g, _default_order(g, order), rule="own-premise",
                                timeout_s=timeout_s)
    return rows_polynomial(rows)


def rows_polynomial(rows: Iterable[Row]) -> Polynomial:
    """The summed spectra of ``rows``, counted by row shape and summed once
    per shape."""
    return spectrum_of_shapes(Counter(row.shape() for row in rows))


def expand_rows(
    rows: Iterable[Row], min_size: int = 0, deadline: float | None = None
) -> Iterator[frozenset[int]]:
    """The members of size >= min_size of each row in turn.

    Past ``deadline`` (absolute, on time.monotonic()) SearchTimeout is
    raised; it is checked every DEADLINE_EVERY members, so a single row with
    a huge number of members cannot outrun it.
    """
    members = (X for row in rows for X in row.expand(min_size))
    return members if deadline is None else _until(members, deadline)


def enumerate_anticliques(
    g: Graph,
    min_size: int = 0,
    order: ImpositionOrder | None = None,
    *,
    timeout_s: float | None = None,
) -> Iterator[frozenset[int]]:
    """Yield every anticlique of size >= min_size exactly once.

    Runs the own-premise rule on ``order``, by default
    ``cover_degree_order(g)``, with ``min_size`` as its size floor; one
    budget of ``timeout_s`` covers the run and the listing (SearchTimeout).
    Finalized rows are disjoint, so no deduplication is needed; the order is
    deterministic given the set of ``order`` and the row expansion order.
    """
    deadline = _deadline(timeout_s)
    rows, _stats = run_standard(g, _default_order(g, order), rule="own-premise",
                                min_size=min_size, timeout_s=_remaining(deadline))
    yield from expand_rows(rows, min_size, deadline)
