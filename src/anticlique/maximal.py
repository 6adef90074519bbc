"""Inclusion-maximal anticliques, and the chromatic number by DSatur.

Every finalized row contributes its row-wise maximal members (one choice per
group: premise or full anticonclusion).  Each is an anticlique, so it is
inclusion-maximal exactly when every vertex lies in it or next to it;
``maximal_family`` builds only the members that pass that test.
``ContainIndex`` and ``sieve_maximal`` sieve an arbitrary family of sets down
to its maximal ones.  ``chromatic_number`` colours the graph directly, by a
DSatur branch and bound that stops at the clique number, which the paper's
currentmax finds on the complement.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .enumerator import (
    ImpositionOrder,
    SearchStats,
    _check_deadline,
    _deadline,
    _default_order,
    _remaining,
    _until,
    run_standard,
)
from .errors import ConfigurationError, GuardExceeded
from .graph import Graph, to_complement
from .rows import Row, _positions
from . import search   # called by module name, so a wrapper on search.max_anticlique sees it

CHROMATIC_GUARD_ENV = "ANTICLIQUE_CHROMATIC_MAX_V"
DEFAULT_CHROMATIC_MAX_V = 50


def row_maximal_members(row: Row) -> list[frozenset[int]]:
    """The 2^s inclusion-maximal members of one row.

    Each takes all forced and free positions, plus per group either the
    premise or the whole anticonclusion.
    """
    base, groups = row.decompose()
    sets = [base]
    for prem, anti in groups:
        sets = [prev | extra for prev in sets for extra in (frozenset((prem,)), anti)]
    return sets


class ContainIndex:
    """Pile of incomparable sets, indexed by vertex membership.

    ``contain[a]`` lists the indices of pile sets containing vertex a, so a
    candidate X is dominated iff the intersection of contain[a] over a in X
    is non-empty, and the pile sets X dominates are the ones outside the
    union of contain[a] over a not in X.  Indices of removed sets are never
    reused.
    """

    def __init__(self, v: int):
        self.v = v
        self.pile: dict[int, frozenset[int]] = {}
        self.contain: list[set[int]] = [set() for _ in range(v + 1)]
        self.dominated = 0   # candidates rejected (a pile superset exists)
        self.removed = 0     # pile sets displaced by an admitted candidate
        self._next = 0

    def add(self, X: frozenset[int]) -> bool:
        """Admit X unless a pile set contains it; drop pile sets X contains."""
        if not X:
            if self.pile:
                self.dominated += 1
                return False
        else:
            holders: set[int] | None = None
            for a in X:
                holders = set(self.contain[a]) if holders is None else holders & self.contain[a]
                if not holders:
                    break
            if holders:
                self.dominated += 1
                return False
        outside = set()
        for a in range(1, self.v + 1):
            if a not in X:
                outside |= self.contain[a]
        doomed = set(self.pile) - outside
        for i in doomed:
            for a in self.pile.pop(i):
                self.contain[a].discard(i)
        self.removed += len(doomed)
        idx = self._next
        self._next += 1
        self.pile[idx] = X
        for a in X:
            self.contain[a].add(idx)
        return True

    def sets(self) -> list[frozenset[int]]:
        return list(self.pile.values())


def sieve_maximal(sets: Iterable[frozenset[int]], v: int) -> list[frozenset[int]]:
    """Exactly the inclusion-maximal sets of the input, duplicates collapsed."""
    index = ContainIndex(v)
    for X in sets:
        index.add(frozenset(X))
    return index.sets()


@dataclass(frozen=True)
class MaximalFamily:
    """The maximal anticliques plus the counters behind them."""

    sets: list[frozenset[int]]
    candidates: int   # row-wise maximal members of the finalized rows
    dominated: int    # candidates that are not maximal: candidates - len(sets)
    # Always 0: a later row's members all lack a vertex that every earlier
    # row's members hold, so no candidate contains an earlier one.  Kept so
    # the CLI's ``sieve`` JSON keeps its shape.
    removed: int
    stats: SearchStats


def maximal_family(
    g: Graph, order: ImpositionOrder | None = None, *, timeout_s: float | None = None
) -> MaximalFamily:
    """All inclusion-maximal anticliques of g, sorted lexicographically.

    Every maximal anticlique is a row-wise maximal member of its own row, and
    every such member is an anticlique, so a member is kept exactly when its
    closed neighbourhood X | N(X) is all of V (Tsukiyama et al., 1977).  The
    members are tested on bitmasks (``_maximal_masks``) and only the kept
    ones are built; about half are not kept on denser graphs: 1,620 of 3,281
    on ``random_graph(40, 0.3, 3)``.  The run is the own-premise rule on
    ``order``, by default ``cover_degree_order(g)``, choosing each row's
    next vertex within it.  One budget of
    ``timeout_s`` covers the run and the members (SearchTimeout), checked
    per group as a row's members are chosen and every DEADLINE_EVERY sets.
    """
    deadline = _deadline(timeout_s)
    rows, stats = run_standard(g, _default_order(g, order), rule="own-premise",
                               timeout_s=_remaining(deadline))
    nbr = g.nbr_masks
    candidates = 0
    members = []   # ascending position tuples, which sort like sorted sets
    for row in rows:
        candidates += 1 << len(row.groups)
        found = iter(_maximal_masks(row, nbr, deadline))
        if deadline is not None:
            found = _until(found, deadline)
        members += map(tuple, map(_positions, found))
    members.sort()
    sets = list(map(frozenset, members))
    return MaximalFamily(sets, candidates, candidates - len(sets), 0, stats)


def _maximal_masks(row: Row, nbr: Sequence[int], deadline: float | None) -> list[int]:
    """The masks of a finalized row's row-wise maximal members that are
    maximal anticliques, ``nbr[p]`` being p's neighbour mask.

    A member leaves out a group's premise, next to its whole anticonclusion,
    or the anticonclusion, which lies in the premise's neighbourhood; so it
    is maximal iff each ``0`` position has a neighbour in it.  Groups are
    chosen in turn, and a choice is dropped once the groups left cannot
    cover the ``0`` positions it leaves uncovered.
    """
    base = ((1 << (row.v + 1)) - 2) & ~row.zero_mask
    for prem, anti in row.groups.items():
        base &= ~(anti | 1 << prem)
    need = row.zero_mask & ~_nbr_union(base, nbr)   # the 0s base leaves uncovered
    if not row.groups:   # base is the row's only member
        return [] if need else [base]
    # each group's two choices: (positions added, part of need covered)
    groups = [((1 << prem, need & nbr[prem]), (anti, need and need & _nbr_union(anti, nbr)))
              for prem, anti in row.groups.items()]
    reach = [0] * (len(groups) + 1)   # reach[j]: what groups j.. can cover
    for j in range(len(groups) - 1, -1, -1):
        reach[j] = reach[j + 1] | groups[j][0][1] | groups[j][1][1]
    picks = [(base, need)]
    for options, rest in zip(groups, reach[1:]):
        picks = [(mask | add, left & ~cov) for mask, left in picks for add, cov in options
                 if not left & ~cov & ~rest]
        _check_deadline(deadline)
    return [mask for mask, _left in picks]


def _nbr_union(mask: int, nbr: Sequence[int]) -> int:
    """The union of the neighbour masks of the positions in ``mask``."""
    union = 0
    while mask:
        low = mask & -mask
        union |= nbr[low.bit_length() - 1]
        mask ^= low
    return union


def maximal_anticliques(g: Graph, order: ImpositionOrder | None = None) -> list[frozenset[int]]:
    """All inclusion-maximal anticliques, sorted lexicographically."""
    return maximal_family(g, order).sets


def chromatic_number(
    g: Graph, *, max_v: int | None = None, timeout_s: float | None = None
) -> tuple[int, list[frozenset[int]]]:
    """Exact chromatic number and a colouring: its colour classes, a
    partition of V into that many anticliques.

    DSatur branch and bound (Brélaz, 1979), stopped once a colouring reaches
    the clique number.  Desk scale only: refuses above the guard
    (ANTICLIQUE_CHROMATIC_MAX_V, default 50); raises SearchTimeout after
    ``timeout_s``.
    """
    chi, cover, _stats = chromatic_with_stats(g, max_v=max_v, timeout_s=timeout_s)
    return chi, cover


def chromatic_with_stats(
    g: Graph, *, max_v: int | None = None, timeout_s: float | None = None
) -> tuple[int, list[frozenset[int]], SearchStats]:
    """chromatic_number plus the counters of the clique number's search,
    ``search.max_anticlique`` on the complement.

    One budget, ``timeout_s`` from this call, covers the clique number's
    search and the colouring's (SearchTimeout).
    """
    guard = max_v
    if guard is None:
        text = os.environ.get(CHROMATIC_GUARD_ENV, str(DEFAULT_CHROMATIC_MAX_V))
        try:
            guard = int(text)
        except ValueError:
            raise ConfigurationError(
                f"{CHROMATIC_GUARD_ENV} must be an integer, got {text!r}") from None
    if g.v > guard:
        raise GuardExceeded(
            f"chromatic_number refuses v={g.v} above its size guard {guard}; "
            f"raise {CHROMATIC_GUARD_ENV} to override"
        )
    deadline = _deadline(timeout_s)
    # no colouring beats the clique number: once one reaches it, the search ends
    res = search.max_anticlique(to_complement(g), timeout_s=_remaining(deadline))
    classes = _dsatur(g, res.alpha, deadline)
    return len(classes), [frozenset(_positions(c)) for c in classes], res.stats


def _dsatur(g: Graph, omega: int, deadline: float | None) -> tuple[int, ...]:
    """The class masks of a colouring of g with fewest classes.

    Depth first over tries (classes so far, uncoloured mask), on an explicit
    stack since the depth is g.v.  The uncoloured vertex next coloured has
    the most distinct neighbour colours, then the most uncoloured
    neighbours, then the lowest label; it joins each class it may join, or
    opens a new one while that can still beat the best colouring.  A try is
    checked against the best again when taken, since the best may have
    improved since it was queued.
    """
    nbr = g.nbr_masks
    best: tuple[int, ...] = ()   # no colouring found yet
    stack = [((), (1 << (g.v + 1)) - 2)]
    while stack:
        _check_deadline(deadline)
        classes, left = stack.pop()
        if best and len(classes) >= len(best):
            continue
        if not left:
            best = classes
            if len(best) == omega:
                break
            continue
        y = max(_positions(left), key=lambda u: (
            sum(1 for c in classes if c & nbr[u]), (nbr[u] & left).bit_count(), -u))
        bit, mask = 1 << y, nbr[y]
        tries = [classes[:i] + (c | bit,) + classes[i + 1:]
                 for i, c in enumerate(classes) if not c & mask]
        if not best or len(classes) + 1 < len(best):
            tries.append(classes + (bit,))
        stack += [(t, left ^ bit) for t in reversed(tries)]
    return best
