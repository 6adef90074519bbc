"""Imposing one anti-implication on a five-valued row.

``impose(row, t, neighbors)`` restricts the family encoded by ``row`` to the
member sets X with: t in X implies neighbors(t) and X are disjoint.  The
result is either the same family unchanged, a single rewritten row, or a
split into two disjoint rows (t forced out vs t forced in).  ``impose`` takes
the row it is given: a rewritten row, and the t-out son of a split, are that
row changed in place; only the t-in son is a new row, with its own group
table.  Engines impose each vertex at most once, and only the vertex being
imposed becomes 1 or a premise, so the symbol at t is always 0, 2 or b when
this is called.

``neighbors`` is t's neighbour mask, bit p set for each neighbour p, as
``Graph.nbr_mask(t)`` gives it: the live neighbourhood is then one ``&`` with
the row's complemented zero mask.  A row's groups are keyed by premise, so
whether t is a premise, and which group a lone live neighbour heads, are
each one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .rows import Row


@dataclass(frozen=True)
class Unchanged:
    """The anti-implication already holds for every member."""


class Mutated:
    """The family shrank but stayed a single row."""

    __slots__ = ("row",)

    def __init__(self, row: Row):
        self.row = row

    def __eq__(self, other):
        if type(other) is not Mutated:
            return NotImplemented
        return self.row == other.row


class Split:
    """Disjoint split: zero_son excludes t, one_son includes t."""

    __slots__ = ("zero_son", "one_son")

    def __init__(self, zero_son: Row, one_son: Row):
        self.zero_son = zero_son
        self.one_son = one_son

    def __eq__(self, other):
        if type(other) is not Split:
            return NotImplemented
        return (self.zero_son, self.one_son) == (other.zero_son, other.one_son)


ImpositionOutcome = Union[Unchanged, Mutated, Split]

UNCHANGED = Unchanged()


def impose(row: Row, t: int, neighbors: int) -> ImpositionOutcome:
    """Impose the anti-implication t -> not-neighbors on ``row``.

    ``neighbors`` is t's neighbour mask.  ``row`` is taken: Unchanged leaves
    it as it was, a Mutated outcome's row and a split's zero_son are ``row``
    itself, changed, and the one_son is built before ``row`` changes.
    Dispatch on the symbol rho at t and the live (non-zero) part of the
    neighborhood:

    * rho = 0, or no live neighbor: already satisfied.
    * rho = 2 with a 1 among the neighbors: t is forced out.
    * rho = 2 with only free neighbors: t becomes a fresh premise over them.
    * rho = 2 otherwise: split into t-out (t := 0) and t-in.
    * rho = b with a 1 among the neighbors: t forced out of its group.
    * rho = b otherwise: split analogously.

    The t-in son zeroes the whole neighborhood; groups whose premise got
    zeroed dissolve (their surviving anticonclusion goes free), groups whose
    anticonclusion emptied dissolve (their premise goes free), and the group
    owning t dissolves with its premise forced out.
    """
    bit = 1 << t
    if row.one_mask & bit:
        raise _order_violated(t, "1")
    if row.zero_mask & bit:
        return UNCHANGED
    if t in row.groups:
        raise _order_violated(t, "a")
    owner = None   # premise of the group whose anticonclusion holds t
    for prem, anti in row.groups.items():
        if anti & bit:
            owner = prem
            break
    live = neighbors & ~row.zero_mask
    if not live:
        return UNCHANGED
    if owner is not None:
        if live & row.one_mask:
            _drop_from_group(row, t, owner)
            return Mutated(row)
        one_son = _take(row, t, live, owner)
        _drop_from_group(row, t, owner)
        return Split(row, one_son)
    # rho == 2
    if live & row.one_mask:
        row.zero_mask |= bit
        return Mutated(row)
    for prem, anti in row.groups.items():
        if live & (anti | 1 << prem):
            break
    else:
        # t becomes a fresh premise over its free neighbors
        row.groups[t] = live
        return Mutated(row)
    one_son = _take(row, t, live, None)
    row.zero_mask |= bit
    return Split(row, one_son)


def anti_implication_holds(row: Row, t: int, neighbors: int) -> bool:
    """True iff t -> not-neighbors already holds for every member of the row.

    That is the case when t is forced out, when every neighbor is forced out,
    and also when t is an anticonclusion position whose only non-zero
    neighbor is the own group's premise: t in a member already forces that
    premise out (contrapositive), so nothing is left to impose.  Under the
    paper's rule the engines run this test once whenever a row is popped off
    the working stack; the own-premise rule runs the same test inline on
    every pending vertex it passes over.  Rows it clears keep their shape
    instead of going through a redundant split.  ``neighbors`` is t's
    neighbour mask.
    """
    zeros = row.zero_mask
    if zeros >> t & 1:
        return True
    live = neighbors & ~zeros
    if not live:
        return True
    if live & (live - 1):   # more than one non-zero neighbor
        return False
    return bool(row.groups.get(live.bit_length() - 1, 0) >> t & 1)


def _order_violated(t: int, symbol: str) -> AssertionError:
    return AssertionError(
        f"anti-implication imposed at position {t} holding symbol "
        f"{symbol}; processing order violated"
    )


def _drop_from_group(row: Row, t: int, prem: int) -> None:
    """Force t out of ``row`` in place: zero it and detach it from the group
    of premise ``prem``.

    If that empties the group's anticonclusion, the group dissolves and its
    premise goes free.
    """
    row.zero_mask |= 1 << t
    anti = row.groups[prem] & ~(1 << t)
    if anti:
        row.groups[prem] = anti
    else:
        del row.groups[prem]


def _take(row: Row, t: int, live: int, owner: int | None) -> Row:
    """The t-in son, a new row read off ``row``, which is left as it is:
    t := 1 and the whole neighborhood ``live`` zeroed.

    Callers guarantee no live neighbor holds a 1.  Group repercussions: the
    group of premise ``owner`` holding t (if any) dissolves with its premise
    zeroed; groups losing their premise to the zeroing dissolve; groups
    whose anticonclusion empties dissolve.  A dissolved group's remaining
    positions go free.
    """
    ones = row.one_mask | 1 << t
    if live & ones:
        raise AssertionError(f"a live neighbor of {t} holds 1 in a split branch")
    zeros = row.zero_mask | live
    groups = {}
    for prem, anti in row.groups.items():
        if prem == owner:
            zeros |= 1 << prem
        elif not live >> prem & 1 and (rest := anti & ~live):
            groups[prem] = rest
    return Row(row.v, zeros, ones, groups)
