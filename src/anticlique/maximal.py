"""Inclusion-maximal anticliques, and the chromatic number by DSatur.

``maximal_family`` lists the maximal anticliques directly, by Bron and
Kerbosch's search with Tomita's pivot on the graph's neighbour masks; it
runs no rows.  ``row_maximal_members`` gives a finalized row's row-wise
maximal members (one choice per group: premise or full anticonclusion),
and ``ContainIndex`` and ``sieve_maximal`` sieve an arbitrary family of
sets down to its maximal ones; together they list the maximal anticliques
from any run's rows.  ``chromatic_number`` colours the graph directly, by a
DSatur branch and bound that stops at the clique number, which the paper's
currentmax finds on the complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .enumerator import SearchStats
# Not called here any more; kept because perfbench/tracer.py wraps it by name.
from .enumerator import run_standard  # noqa: F401
from .errors import _check_deadline, _deadline, _remaining, check_size_guard
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
    """The maximal anticliques plus the counters of the search behind them.

    The search is a tree of nodes (taken, candidates, excluded); a leaf is a
    node without candidates, and it is a maximal anticlique exactly when it
    has nothing excluded either.
    """

    sets: list[frozenset[int]]
    candidates: int   # leaves of the search
    dominated: int    # leaves with an excluded vertex: candidates - len(sets)
    # Always 0: the search lists each maximal anticlique once and no other
    # set, so no listed set is displaced.  Kept so the CLI's ``sieve`` JSON
    # keeps its shape.
    removed: int
    stats: SearchStats   # rsp: branches, finalized: sets, peak_stack: most nodes stacked


def maximal_family(g: Graph, *, timeout_s: float | None = None) -> MaximalFamily:
    """All inclusion-maximal anticliques of g, sorted lexicographically.

    Bron and Kerbosch's search (1973) with Tomita, Tanaka and Takahashi's
    pivot (2006), run for anticliques on the neighbour masks.  A node holds
    the taken positions R, the candidates P, each of which R may take next,
    and the excluded positions X, which R could take too but whose
    anticliques an earlier branch lists.  Its pivot is the first position u
    of P | X with the fewest candidates in N[u] = N(u) + u; every maximal
    anticlique below the node takes one of those, so the node branches on
    each w of them in ascending order: the son takes w and keeps the P and
    X outside N[w], then w moves from P to X.  A node without candidates is
    a leaf, and a maximal anticlique iff X is empty too.  The nodes wait on
    an explicit stack, as the depth reaches alpha.  ``timeout_s`` bounds
    the search (SearchTimeout), checked at every node taken from the stack.
    ``MaximalFamily`` names what each counter counts.
    """
    deadline = _deadline(timeout_s)
    nbr = g.nbr_masks
    found = []   # the masks of the maximal anticliques
    leaves = dominated = branches = peak = 0
    stack = [(0, (1 << (g.v + 1)) - 2, 0)]   # (R, P, X), P never empty
    while stack:
        _check_deadline(deadline)
        taken, cand, excl = stack.pop()
        fewest, pivot_cover = cand.bit_count() + 1, 0
        rest = cand | excl
        while rest:
            low = rest & -rest
            rest ^= low
            cover = cand & (nbr[low.bit_length() - 1] | low)
            count = cover.bit_count()
            if count < fewest:
                fewest, pivot_cover = count, cover
                if not count:   # an excluded position with no candidate next to it
                    break
        while pivot_cover:
            w = pivot_cover & -pivot_cover
            pivot_cover ^= w
            outside = ~(nbr[w.bit_length() - 1] | w)
            branches += 1
            if cand & outside:
                stack.append((taken | w, cand & outside, excl & outside))
            else:
                leaves += 1
                if excl & outside:
                    dominated += 1
                else:
                    found.append(taken | w)
            cand ^= w
            excl |= w
        if len(stack) > peak:
            peak = len(stack)
    members = sorted(tuple(_positions(mask)) for mask in found)   # sort like sorted sets
    stats = SearchStats(rsp=branches, peak_stack=peak, finalized=len(members))
    return MaximalFamily(list(map(frozenset, members)), leaves, dominated, 0, stats)


def maximal_anticliques(g: Graph) -> list[frozenset[int]]:
    """All inclusion-maximal anticliques, sorted lexicographically."""
    return maximal_family(g).sets


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
    check_size_guard("chromatic_number", g.v, max_v, CHROMATIC_GUARD_ENV,
                     DEFAULT_CHROMATIC_MAX_V)
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
