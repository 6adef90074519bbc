"""Imposing one anti-implication on a five-valued row.

``impose(row, t, neighbors)`` restricts the family encoded by ``row`` to the
member sets X with: t in X implies neighbors(t) and X are disjoint.  The
result is either the same family unchanged, a single rewritten row, or a
split into two disjoint rows (t forced out vs t forced in).  The input row is
never mutated; engines run impositions in increasing vertex order, so the
symbol at t is always 0, 2 or b when this is called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .rows import Row


@dataclass(frozen=True)
class Unchanged:
    """The anti-implication already holds for every member."""


@dataclass(frozen=True)
class Mutated:
    """The family shrank but stayed a single row."""

    row: Row


@dataclass(frozen=True)
class Split:
    """Disjoint split: zero_son excludes t, one_son includes t."""

    zero_son: Row
    one_son: Row


ImpositionOutcome = Union[Unchanged, Mutated, Split]

UNCHANGED = Unchanged()


def impose(row: Row, t: int, neighbors: Iterable[int]) -> ImpositionOutcome:
    """Impose the anti-implication t -> not-neighbors on ``row``.

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
    owner = None   # id of the group whose anticonclusion holds t
    for g, (prem, anti) in row.groups.items():
        if prem == t:
            raise _order_violated(t, "a")
        if anti & bit:
            owner = g
            break
    live = 0
    for p in neighbors:
        live |= 1 << p
    live &= ~row.zero_mask
    if not live:
        return UNCHANGED
    if owner is not None:
        if live & row.one_mask:
            return Mutated(_drop_from_group(row, t, owner))
        return Split(_drop_from_group(row, t, owner), _take(row, t, live, owner))
    # rho == 2
    if live & row.one_mask:
        son = row.clone()
        son.zero_mask |= bit
        return Mutated(son)
    if not any(live & (anti | 1 << prem) for prem, anti in row.groups.values()):
        return Mutated(_new_group(row, t, live))
    zero_son = row.clone()
    zero_son.zero_mask |= bit
    return Split(zero_son, _take(row, t, live, None))


def anti_implication_holds(row: Row, t: int, neighbors: Iterable[int]) -> bool:
    """True iff t -> not-neighbors already holds for every member of the row.

    That is the case when t is forced out, when every neighbor is forced out,
    and also when t is an anticonclusion position whose only non-zero
    neighbor is the own group's premise: t in a member already forces that
    premise out (contrapositive), so nothing is left to impose.  Under the
    paper's rule the engines run this test once whenever a row is popped off
    the working stack, under the own-premise rule before every imposition;
    rows it clears keep their shape instead of going through a redundant
    split.
    """
    zeros = row.zero_mask
    if zeros >> t & 1:
        return True
    live = 0   # the one non-zero neighbor so far
    for p in neighbors:
        if not zeros >> p & 1:
            if live:
                return False
            live = p
    if not live:
        return True
    # a position is the premise of at most one group
    for prem, anti in row.groups.values():
        if prem == live:
            return bool(anti >> t & 1)
    return False


def _order_violated(t: int, symbol: str) -> AssertionError:
    return AssertionError(
        f"anti-implication imposed at position {t} holding symbol "
        f"{symbol}; processing order violated"
    )


def _drop_from_group(row: Row, t: int, g: int) -> Row:
    """Force t out: zero it and detach it from its group ``g``.

    If that empties the group's anticonclusion, the group dissolves and its
    premise goes free.
    """
    son = row.clone()
    son.zero_mask |= 1 << t
    prem, anti = son.groups[g]
    anti &= ~(1 << t)
    if anti:
        son.groups[g] = (prem, anti)
    else:
        del son.groups[g]
    return son


def _new_group(row: Row, t: int, live: int) -> Row:
    """t becomes a fresh premise over its free neighbors ``live``."""
    son = row.clone()
    son.groups[son.next_gid] = (t, live)
    son.next_gid += 1
    return son


def _take(row: Row, t: int, live: int, owner: int | None) -> Row:
    """The t-in son: t := 1 and the whole neighborhood ``live`` zeroed.

    Callers guarantee no live neighbor holds a 1.  Group repercussions: the
    group ``owner`` holding t (if any) dissolves with its premise zeroed;
    groups losing their premise to the zeroing dissolve; groups whose
    anticonclusion empties dissolve.  A dissolved group's remaining
    positions go free.
    """
    son = row.clone()
    son.one_mask |= 1 << t
    if live & son.one_mask:
        raise AssertionError(f"a live neighbor of {t} holds 1 in a split branch")
    son.zero_mask |= live
    groups = {}
    for g, (prem, anti) in row.groups.items():
        if g == owner:
            son.zero_mask |= 1 << prem
        elif not live >> prem & 1 and (rest := anti & ~live):
            groups[g] = (prem, rest)
    son.groups = groups
    return son
