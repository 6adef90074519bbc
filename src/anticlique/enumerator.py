"""The exclusion run: a LIFO stack of rows, finalized rows streamed out.

Starting from the all-free row, every vertex's anti-implication is imposed in
increasing order of its label on the top row of a working stack.  Splits push
the t-out son below the t-in son; rows whose pending anti-implications are
exhausted are finalized and streamed to the caller.  In the standard run the
finalized rows are pairwise disjoint families whose union is exactly the set
of anticliques (independent sets) of the graph.  The searches in search.py
run the same loop with a prune policy that deletes rows whose bound cannot
beat a limit.

Two imposition rules exist.  ``"paper"`` is the paper's literal run: the
test ``anti_implication_holds`` runs once per popped row, and every other
anti-implication goes through ``impose``.  ``"own-premise"`` runs that test
before every imposition, so a vertex whose only live neighbour is its own
group's premise is passed over instead of split on (the group's
contrapositive already excludes the pair).  ``fibonacci_number`` and
``independence_polynomial`` do not depend on vertex labels, so they run the
own-premise rule on the graph relabelled by descending degree, which is
imposed first (``degree_ordered_run``): on ``random_graph(45, 0.08, 11)`` that
finalizes 2,858 rows where the paper's run finalizes 180,154.  Every other
entry point keeps the paper's rule in vertex order.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import asdict, astuple, dataclass
from typing import Callable, Iterable, Iterator

from .errors import ConfigurationError, SearchTimeout, StackBoundWarning
from .graph import Graph, relabel_by_degree
from .imposition import UNCHANGED, Mutated, Unchanged, anti_implication_holds, impose
from .rows import Polynomial, Row, full_row, spectrum_of_shapes

TraceHook = Callable[[str, dict], None]

RULES = ("paper", "own-premise")


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

    The consumer of an exclusion run may raise ``limit`` between the rows it
    receives; currentmax raises it to each finalized row's bound.
    """

    bound: Callable[[Row], int]
    limit: int


@dataclass(frozen=True)
class ImpositionOrder:
    """The vertices whose anti-implications get imposed, in increasing order.

    A partial order is only sound when it is a vertex cover, which
    run_standard verifies.
    """

    order: tuple[int, ...]


def full_order(v: int) -> ImpositionOrder:
    return ImpositionOrder(tuple(range(1, v + 1)))


def cover_order(g: Graph, vertices: Iterable[int]) -> ImpositionOrder:
    """Validated cover order over a subset of vertices (sorted increasing)."""
    order = ImpositionOrder(tuple(sorted(set(vertices))))
    _check_order(g, order)
    return order


def _check_order(g: Graph, order: ImpositionOrder) -> None:
    seq = order.order
    if any(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)):
        raise ConfigurationError("imposition order must be strictly increasing")
    if seq and (seq[0] < 1 or seq[-1] > g.v):
        raise ConfigurationError(f"imposition order out of range 1..{g.v}")
    members = set(seq)
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
    trace: TraceHook | None = None,
    timeout_s: float | None = None,
) -> tuple[Iterator[Row], SearchStats]:
    """Run the standard exclusion algorithm; rows stream, nothing is pruned.

    Returns (row iterator, stats); the stats object fills in as the iterator
    is consumed and is complete once it is exhausted.  ``rule`` is
    ``"paper"`` or ``"own-premise"`` (see the module docstring).  With
    ``trace`` set, the hook receives an event per imposition plus a final
    "done" event (and the output stack is then kept in memory for the
    snapshots).  The iterator raises SearchTimeout once ``timeout_s``
    seconds have passed since this call.
    """
    if rule not in RULES:
        raise ConfigurationError(f"unknown imposition rule {rule!r}; expected one of {RULES}")
    ord_ = _resolve_order(g, order)
    stats = SearchStats()
    rows = _exclusion_run(g, ord_.order, stats, None, trace, _deadline(timeout_s), rule)
    return rows, stats


def degree_ordered_run(
    g: Graph,
    order: ImpositionOrder | None = None,
    *,
    trace: TraceHook | None = None,
    timeout_s: float | None = None,
) -> tuple[Iterator[Row], SearchStats, tuple[int, ...]]:
    """The own-premise run on g relabelled by descending degree.

    Returns (row iterator, stats, old): the rows are over the new labels, and
    ``old[k]`` is the input label of new vertex k (``old[0]`` is 0).  A cover
    ``order`` is given in input labels and imposed in the new labels' order.
    """
    h, old = relabel_by_degree(g)
    if order is not None:
        _check_order(g, order)
        new = {y: k for k, y in enumerate(old)}
        order = ImpositionOrder(tuple(sorted(new[y] for y in order.order)))
    rows, stats = run_standard(h, order, rule="own-premise", trace=trace, timeout_s=timeout_s)
    return rows, stats, old


def _deadline(timeout_s: float | None) -> float | None:
    return None if timeout_s is None else time.monotonic() + timeout_s


def _exclusion_run(
    g: Graph,
    seq: tuple[int, ...],
    stats: SearchStats,
    prune: Prune | None,
    trace: TraceHook | None,
    deadline: float | None,
    rule: str = "paper",
) -> Iterator[Row]:
    """The row-stack loop behind every engine; yields the finalized rows.

    Anti-implications are imposed in ``seq`` order on the top row; a split
    pushes the t-out son below the t-in son.  With ``prune`` set, a row is
    deleted once its bound is at most the limit: when it is popped (the
    limit may have risen since it was pushed), after a Mutated outcome, and
    for each son of a split.  ``deadline`` is absolute, on time.monotonic().
    Under ``rule="own-premise"`` every imposition is preceded by
    ``anti_implication_holds`` (an Unchanged outcome when it holds), which
    makes the paper's pop-time test redundant, so it is skipped.
    """
    own_premise = rule == "own-premise"
    stack = [full_row(g.v)]
    output: list[Row] = []   # kept only for the trace's snapshots
    stats.peak_stack = 1
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout("search exceeded its time budget")
        row = stack.pop()
        if prune is not None and _kept(row, prune, stats, trace) is None:
            continue
        # paper rule: a popped row's pending anti-implication may hold
        # already; test it once, then run the mechanical case analysis until
        # split or finalize
        if (not own_premise and row.pa < len(seq)
                and anti_implication_holds(row, seq[row.pa], g.adjacency[seq[row.pa]])):
            stats.trivial_changes += 1
            row.pa += 1
        while row is not None and row.pa < len(seq):
            t = seq[row.pa]
            nbrs = g.adjacency[t]
            if own_premise and anti_implication_holds(row, t, nbrs):
                outcome = UNCHANGED
            else:
                outcome = impose(row, t, nbrs)
            if isinstance(outcome, Unchanged):
                stats.trivial_changes += 1
                row.pa += 1
            elif isinstance(outcome, Mutated):
                stats.trivial_changes += 1
                row = outcome.row
                row.pa += 1
                if prune is not None:
                    row = _kept(row, prune, stats, trace)
            else:
                stats.rsp += 1
                zero, one = outcome.zero_son, outcome.one_son
                zero.pa = one.pa = row.pa + 1
                if prune is not None:
                    zero = _kept(zero, prune, stats, trace)
                    one = _kept(one, prune, stats, trace)
                if zero is not None and one is not None:
                    stack.append(zero)
                    stats.peak_stack = max(stats.peak_stack, len(stack) + 1)
                    row = one
                else:
                    row = zero if one is None else one
            if trace:
                trace("impose", _snapshot(t, outcome, row, stack, output, seq))
        if row is None:
            continue
        stats.finalized += 1
        if trace:
            output.append(row)
            trace("finalize", {"row": row.debug(), "count": row.member_count()})
        yield row
    if prune is None and stats.peak_stack > max(g.w, 1):
        warnings.warn(
            f"working stack peaked at {stats.peak_stack} rows, above the "
            f"edge-count bound {g.w}",
            StackBoundWarning,
            stacklevel=2,
        )
    if trace:
        trace("done", {
            "output": [(r.debug(), r.member_count()) for r in output],
        })


def _kept(row: Row, prune: Prune, stats: SearchStats, trace: TraceHook | None) -> Row | None:
    """The row if its bound beats the limit; otherwise None, counted as deleted."""
    if prune.bound(row) > prune.limit:
        return row
    stats.deleted += 1
    if trace:
        trace("prune", {"row": row.debug(), "bound": prune.bound(row), "limit": prune.limit})
    return None


def _snapshot(t, outcome, current, stack, output, seq) -> dict:
    def label(r: Row) -> str:
        pending = seq[r.pa] if r.pa < len(seq) else "-"
        return f"{r.debug()} PA={pending}"

    working = [] if current is None else [label(current)]
    return {
        "t": t,
        "outcome": type(outcome).__name__.lower(),
        "working": working + [label(r) for r in reversed(stack)],
        "output": [f"{r.debug()} N={r.member_count()}" for r in output],
    }


def fibonacci_number(
    g: Graph, order: ImpositionOrder | None = None, *, timeout_s: float | None = None
) -> int:
    """Total number of anticliques of g (streaming, rows never stored).

    Runs ``degree_ordered_run``; raises SearchTimeout after ``timeout_s``.
    """
    rows, _stats, _old = degree_ordered_run(g, order, timeout_s=timeout_s)
    return sum(row.member_count() for row in rows)


def independence_polynomial(
    g: Graph, order: ImpositionOrder | None = None, *, timeout_s: float | None = None
) -> Polynomial:
    """Coefficient k counts the k-element anticliques; degree is alpha(g).

    Runs ``degree_ordered_run``; raises SearchTimeout after ``timeout_s``.
    """
    rows, _stats, _old = degree_ordered_run(g, order, timeout_s=timeout_s)
    return rows_polynomial(rows)


def rows_polynomial(rows: Iterable[Row]) -> Polynomial:
    """The summed spectra of ``rows``, counted by row shape and summed once
    per shape."""
    return spectrum_of_shapes(Counter(row.shape() for row in rows))


def enumerate_anticliques(
    g: Graph, min_size: int = 0, order: ImpositionOrder | None = None
) -> Iterator[frozenset[int]]:
    """Yield every anticlique of size >= min_size exactly once.

    Finalized rows are disjoint, so no deduplication is needed; the order is
    deterministic given the imposition order and the row expansion order.
    """
    rows, _stats = run_standard(g, order)
    for row in rows:
        yield from row.expand(min_size)
