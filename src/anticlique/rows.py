"""Five-valued rows: compact encodings of families of vertex subsets.

A row assigns one of five symbols to every position 1..v:

  ``0``  the vertex is out of every member set,
  ``1``  the vertex is in every member set,
  ``2``  the vertex is free,
  ``a``  a group premise,
  ``b``  a group anticonclusion position.

Each group couples one premise position with a non-empty set of
anticonclusion positions: whenever the premise belongs to a member set, the
whole anticonclusion must stay out; otherwise all anticonclusion positions
are free.  A single row can thus stand for exponentially many sets, and its
member count, size spectrum and largest member are all available in closed
form without expanding it.

A ``Row`` stores only what the symbols say: a mask of the ``0`` positions, a
mask of the ``1`` positions and its groups as a table from each premise to
its anticonclusion mask.  A position holds one symbol, so a premise names
its group.  Every other position is free.  Only this module and
imposition.py read that format; other modules ask a row for its sets
(``decompose``, ``max_member``, ``expand``, ...).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, inf
from typing import Iterable, Iterator, Mapping, Sequence

# (|ones|, |frees|, ascending anticonclusion sizes); see Row.shape
Shape = tuple[int, int, tuple[int, ...]]

# (zero|one mask, rest mask at each loop head, clique weight before each
# head or None by size); see Row.clique_partition
CliqueRecord = tuple[int, list[int], list[int] | None]


@dataclass(frozen=True)
class Polynomial:
    """Integer polynomial by coefficient list, index = degree.

    Coefficients are arbitrary-precision; trailing zeros are stripped on
    construction (the zero polynomial keeps a single 0 coefficient).
    """

    coeffs: tuple[int, ...] = (0,)

    def __post_init__(self):
        c = tuple(self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if not c:
            c = (0,)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def evaluate(self, x: int = 1) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(tuple(_convolve(self.coeffs, other.coeffs)))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


class Row:
    """One five-valued row over positions 1..v.

    Position p is bit p of every mask (bit 0 is never set).  ``zero_mask``
    and ``one_mask`` hold the ``0`` and ``1`` positions; ``groups`` maps
    each premise to its anticonclusion mask; every position in none of them
    is free.  A row holds what its symbols say and nothing else: which
    anti-implications are still pending on it is the exclusion run's state,
    kept beside it on the run's stack.
    ``impose`` changes the row it is given in place and builds every new
    row with a group table of its own, so rows never share a group table.
    """

    __slots__ = ("v", "zero_mask", "one_mask", "groups")

    def __init__(self, v: int, zero_mask: int, one_mask: int, groups: dict[int, int]):
        self.v = v
        self.zero_mask = zero_mask
        self.one_mask = one_mask
        self.groups = groups

    # Not called in the package any more; kept because perfbench/tracer.py
    # wraps it by name.
    def clone(self) -> "Row":
        son = object.__new__(Row)
        son.v = self.v
        son.zero_mask = self.zero_mask
        son.one_mask = self.one_mask
        son.groups = self.groups.copy()
        return son

    def relabel(self, bit: Sequence[int]) -> "Row":
        """This row with each position p moved to the position whose
        one-bit mask is ``bit[p]``; ``bit`` permutes 1..v."""
        def move(mask: int) -> int:
            return sum(map(bit.__getitem__, _positions(mask)))

        groups = {bit[prem].bit_length() - 1: move(anti) for prem, anti in self.groups.items()}
        return Row(self.v, move(self.zero_mask), move(self.one_mask), groups)

    # -- derived position sets --------------------------------------------

    def _free_mask(self) -> int:
        taken = self.zero_mask | self.one_mask
        for prem, anti in self.groups.items():
            taken |= anti | 1 << prem
        return ((1 << (self.v + 1)) - 2) & ~taken

    def ones(self) -> frozenset[int]:
        return frozenset(_positions(self.one_mask))

    def premset(self) -> frozenset[int]:
        return frozenset(self.groups)

    def decompose(self) -> tuple[frozenset[int], list[tuple[int, frozenset[int]]]]:
        """The base set (the ``1`` and free positions) and every group as
        (premise, anticonclusion set), in premise order.

        The inclusion-maximal members are the base set plus, per group,
        either the premise or the whole anticonclusion.
        """
        base = frozenset(_positions(self.one_mask | self._free_mask()))
        groups = [(prem, frozenset(_positions(anti)))
                  for prem, anti in sorted(self.groups.items())]
        return base, groups

    # -- closed-form queries ----------------------------------------------

    def _sizes(self) -> tuple[int, int, list[int]]:
        """|ones|, |frees| and the anticonclusion sizes."""
        betas = [anti.bit_count() for anti in self.groups.values()]
        n_ones = self.one_mask.bit_count()
        n_twos = (self.v - self.zero_mask.bit_count() - n_ones
                  - len(betas) - sum(betas))
        return n_ones, n_twos, betas

    def shape(self) -> Shape:
        """(|ones|, |frees|, ascending anticonclusion sizes).

        The member count and the spectrum depend on nothing else, so rows
        of equal shape have equal counts and spectra; ``spectrum_of_shapes``
        sums the spectra of many rows from a count of their shapes.
        """
        n_ones, n_twos, betas = self._sizes()
        betas.sort()
        return n_ones, n_twos, tuple(betas)

    def w_max(self) -> int:
        """Size of the largest member: v - |zeros| - |premises|."""
        return self.v - self.zero_mask.bit_count() - len(self.groups)

    def max_weight(self, wt: Sequence[int]) -> int:
        """Weight of the heaviest member, position p weighing ``wt[p]``: the
        ``1`` and free positions plus, per group, the heavier of the premise
        and the whole anticonclusion."""
        base = ((1 << (self.v + 1)) - 2) & ~self.zero_mask
        total = 0
        for prem, anti in self.groups.items():
            base &= ~(anti | 1 << prem)
            total += max(wt[prem], sum(map(wt.__getitem__, _positions(anti))))
        return total + sum(map(wt.__getitem__, _positions(base)))

    def clique_bound(self, nbr: Sequence[int], limit: int | None = None) -> int:
        """An upper bound on the size of the members that are anticliques,
        ``nbr[p]`` being the neighbour mask of position p.

        The positions that are neither ``0`` nor ``1`` are split greedily
        into cliques: take the lowest remaining position, then keep adding
        the lowest remaining common neighbour.  An anticlique holds at most
        one vertex of each clique, so it has at most |ones| + (number of
        cliques) vertices.  The bound is capped by ``w_max()`` and equals it
        on a finalized row, whose members are all anticliques.

        With ``limit`` set, the partition stops once the total exceeds
        ``limit``, or once it cannot, each clique to come taking at least
        one unplaced position; the value returned then lies on the same
        side of ``limit`` as the full bound.

        The partition has a prefix property.  It is deterministic, so a row
        whose live positions are this row's less a set R builds the same
        cliques up to the first one that took a position of R, and reaches
        that clique's head with this row's ``rest`` there less R.
        ``clique_partition`` keeps the partition as a record and resumes it
        on such a row from that head.
        """
        return self.clique_partition(nbr, limit)[0]

    def weighted_clique_bound(self, nbr: Sequence[int], wt: Sequence[int],
                              limit: int | None = None) -> int:
        """``clique_bound`` by weight, position p weighing ``wt[p]``.

        The positions must be numbered by descending weight, as a search's
        rank space numbers them: each clique then starts at its heaviest
        position, the lowest one left, so its weight is its first
        position's.  The bound is wt(ones) plus that weight per clique,
        capped by ``max_weight``.  With ``limit`` set, the partition stops
        once the total exceeds ``limit``, and the cap is computed only then.
        """
        return self.clique_partition(nbr, limit, None, wt)[0]

    def clique_partition(self, nbr: Sequence[int], limit: int | None = None,
                         rec: CliqueRecord | None = None,
                         wt: Sequence[int] | None = None) -> tuple[int, CliqueRecord | None]:
        """(``clique_bound``, or with ``wt`` ``weighted_clique_bound``, and
        the record of its partition), resumed from ``rec`` if given.

        A record is (zo, heads, runs): the row's ``zero|one`` mask, the
        ``rest`` mask at each head of the partition loop, the last being
        where it stopped, and, by weight only, the clique weight placed
        before each head (by size it is the head's index).  ``rec`` may be
        the record of this row or of any row it descends from in one
        search, whose ``0`` and ``1`` positions are a subset of this row's.
        The positions R that have since become ``0`` or ``1`` are found by
        their masks; the partition resumes at the last head whose ``rest``
        still holds all of R, so at the last head if R is empty.  Before
        it, the two partitions place the same cliques, the ``rest`` only
        shrinks, the total only rises and the total plus the positions
        left never rises, so the loop's stop tests hold at every earlier
        head if they hold at that one: the value returned lies on the same
        side of ``limit`` as a fresh partition's, and equals it with no
        ``limit``.  A stored ``rest`` may
        hold positions that were already ``0`` or ``1`` at the record, so
        a resumed one is masked by this row's live positions.  The record
        is None, or ``rec`` unchanged, when the cap alone decides.
        """
        if wt is None:
            cap = self.w_max()
            if limit is None:
                above, floor = cap - 1, -1
            elif cap <= limit:
                return cap, rec
            else:
                above = floor = limit
            base = self.one_mask.bit_count()
        else:
            above, floor = (inf if limit is None else limit), -1
            base = sum(map(wt.__getitem__, _positions(self.one_mask)))
        zo = self.zero_mask | self.one_mask
        if rec is None:
            heads, run = [], 0
            runs = None if wt is None else []
            rest = ((1 << (self.v + 1)) - 2) & ~zo
        else:
            old_zo, old_heads, old_runs = rec
            gone = zo ^ old_zo
            lo, hi = 0, len(old_heads) - 1   # old_heads[0] holds all of R
            while lo < hi:
                mid = (lo + hi + 1) >> 1
                if old_heads[mid] & gone == gone:
                    lo = mid
                else:
                    hi = mid - 1
            heads, rest = old_heads[:lo], old_heads[lo] & ~zo
            if wt is None:
                runs, run = None, lo
            else:
                runs, run = old_runs[:lo], old_runs[lo]
        # stop once total > above (kept) or total + left <= floor (pruned),
        # total being base + run
        above -= base
        floor -= base
        left = rest.bit_count()   # positions not yet placed in a clique
        while rest and run <= above and run + left > floor:
            heads.append(rest)
            if runs is not None:
                runs.append(run)
            low = rest & -rest
            r = low.bit_length() - 1
            rest ^= low
            left -= 1
            common = rest & nbr[r]
            while common:
                low = common & -common
                rest ^= low
                left -= 1
                common &= nbr[low.bit_length() - 1]
            run += 1 if wt is None else wt[r]
        heads.append(rest)
        if runs is not None:
            runs.append(run)
        total = base + run
        if wt is None:
            total = min(total, cap)
        elif limit is None or total > limit:
            total = min(total, self.max_weight(wt))
        return total, (zo, heads, runs)

    def member_count(self) -> int:
        """Exact number of member sets: 2^|twos| * prod(1 + 2^|anti_g|)."""
        n_twos = (self.v - self.zero_mask.bit_count() - self.one_mask.bit_count()
                  - len(self.groups))
        count = 1
        for anti in self.groups.values():
            beta = anti.bit_count()
            n_twos -= beta
            count *= (1 << beta) + 1
        return count << n_twos

    def spectrum(self) -> Polynomial:
        """Size distribution of the members, as an exact integer polynomial.

        Coefficient k counts the k-element members.  Computed as
        x^|ones| * (1+x)^|twos| * prod over groups of (x + (1+x)^|anti_g|).
        """
        return Polynomial(tuple(_shape_coefficients(*self._sizes())))

    def max_member(self) -> frozenset[int]:
        """A largest member: everything except zeros and premise positions."""
        out = self.zero_mask
        for prem in self.groups:
            out |= 1 << prem
        return frozenset(_positions(((1 << (self.v + 1)) - 2) & ~out))

    def contains(self, X: Iterable[int]) -> bool:
        """True iff X is one of the member sets this row encodes."""
        xmask = 0
        for p in X:
            if not 1 <= p <= self.v:
                raise ValueError(f"vertex {p} out of range 1..{self.v}")
            xmask |= 1 << p
        if xmask & self.zero_mask or self.one_mask & ~xmask:
            return False
        return not any(xmask >> prem & 1 and xmask & anti
                       for prem, anti in self.groups.items())

    def expand(self, min_size: int = 0) -> Iterator[frozenset[int]]:
        """Yield every member of size >= min_size exactly once, by deficit.

        A member is the largest member (``max_member``) less some
        positions, its deficit; the members of size >= min_size are those
        whose deficit is at most slack = w_max - min_size.  Deterministic
        order: the groups' choices nested in premise order, the first group
        outermost, and the free positions innermost.  Each group keeps its
        whole anticonclusion, then drops 1, 2, ... of its positions (the
        kept ones lexicographic), then takes its premise instead; the free
        positions are dropped last, 0, 1, 2, ... of them (the kept ones
        lexicographic).  ``expand(m)`` is ``expand(0)`` without the members
        below m, which are not visited: a choice that the slack left cannot
        pay for is not entered.  Each member is one frozenset operation.
        """
        # w_max() - min_size, spelled out: perfbench/tracer.py counts
        # Row.w_max calls as the searches' bound checks
        slack = self.v - self.zero_mask.bit_count() - len(self.groups) - min_size
        if slack < 0:
            return iter(())
        if not slack and not self.groups:
            # one member, every position not 0: a settled member's row
            return iter((frozenset(_positions(((1 << (self.v + 1)) - 2) & ~self.zero_mask)),))
        frees = tuple(_positions(self._free_mask()))
        groups = [(prem, tuple(_positions(anti))) for prem, anti in sorted(self.groups.items())]
        # reach[j]: the most positions groups j.. and the frees can drop
        reach = [len(frees)] * (len(groups) + 1)
        for j in range(len(groups) - 1, -1, -1):
            reach[j] = reach[j + 1] + len(groups[j][1])
        return _deficit_members(tuple(_positions(self.one_mask)), groups, frees, reach, 0, slack)

    # -- diagnostics -------------------------------------------------------

    def debug(self) -> str:
        """Compact rendering like ``(a1,0,2,b1,b1)``; groups are numbered
        1, 2, ... in premise order, so equal rows print equally."""
        tokens = ["2"] * (self.v + 1)
        for p in _positions(self.zero_mask):
            tokens[p] = "0"
        for p in _positions(self.one_mask):
            tokens[p] = "1"
        for g, (prem, anti) in enumerate(sorted(self.groups.items()), start=1):
            tokens[prem] = f"a{g}"
            for q in _positions(anti):
                tokens[q] = f"b{g}"
        return "(" + ",".join(tokens[1:]) + ")"

    def validate(self) -> None:
        """Raise AssertionError unless every position lies in 1..v, no
        position has two roles, and no anticonclusion is empty."""
        parts = [self.zero_mask, self.one_mask]
        for prem, anti in self.groups.items():
            if not anti:
                raise AssertionError(f"group of premise {prem} has an empty anticonclusion")
            if not 1 <= prem <= self.v:
                raise AssertionError(f"premise {prem} out of range 1..{self.v}")
            parts += [1 << prem, anti]
        full = (1 << (self.v + 1)) - 2
        seen = 0
        for mask in parts:
            if mask & ~full:
                raise AssertionError(f"position out of range 1..{self.v}")
            if mask & seen:
                raise AssertionError("a position holds two symbols")
            seen |= mask

    def __eq__(self, other):
        if not isinstance(other, Row):
            return NotImplemented
        return (self.v, self.zero_mask, self.one_mask, self.groups) == (
            other.v, other.zero_mask, other.one_mask, other.groups)

    __hash__ = None

    def __repr__(self):
        return f"Row{self.debug()}"


def full_row(v: int) -> Row:
    """The row (2, 2, ..., 2) encoding the whole powerset of 1..v."""
    if v < 1:
        raise ValueError(f"vertex count must be at least 1, got {v}")
    return Row(v, 0, 0, {})


def row_from_debug(text: str) -> Row:
    """Inverse of Row.debug, handy for fixtures: ``(a1,0,2,b1,b1)``."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    tokens = [tok.strip() for tok in body.split(",")]
    masks = {"0": 0, "1": 0, "2": 0}
    prems: dict[int, int] = {}
    antis: dict[int, int] = {}
    for p, tok in enumerate(tokens, start=1):
        if tok in masks:
            masks[tok] |= 1 << p
        elif tok.startswith("a") and tok[1:].isdigit():
            g = int(tok[1:])
            if g in prems:
                raise ValueError(f"duplicate premise for group {g}")
            prems[g] = p
        elif tok.startswith("b") and tok[1:].isdigit():
            g = int(tok[1:])
            antis[g] = antis.get(g, 0) | 1 << p
        else:
            raise ValueError(f"bad row symbol {tok!r}")
    if set(prems) != set(antis):
        raise ValueError("every group needs one premise and a non-empty anticonclusion")
    groups = {prems[g]: antis[g] for g in prems}
    row = Row(len(tokens), masks["0"], masks["1"], groups)
    row.validate()
    return row


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _positions(mask: int) -> Iterator[int]:
    """The set bits of a mask, ascending (one C-level pass over its digits)."""
    return itertools.compress(itertools.count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


def _choices(prem: int, anti: tuple[int, ...],
             most: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """A group's choices that drop at most ``most`` positions of the
    largest member, in ``Row.expand``'s order, as (kept positions, positions
    dropped): the whole anticonclusion, then 1, 2, ... of its positions
    dropped, then the premise."""
    beta = len(anti)
    for d in range(min(beta, most) + 1):
        for kept in itertools.combinations(anti, beta - d):
            yield kept, d
    if beta - 1 <= most:
        yield (prem,), beta - 1


def _deficit_members(head: tuple[int, ...], groups: list[tuple[int, tuple[int, ...]]],
                     frees: tuple[int, ...], reach: list[int], j: int,
                     slack: int) -> Iterator[frozenset[int]]:
    """``head`` plus a choice from each of ``groups[j:]`` plus the free
    positions, less at most ``slack`` positions in all, in ``Row.expand``'s
    order; ``reach[j]`` is the most that groups j.. and the frees can drop."""
    if 0 < slack < reach[j] and j < len(groups):
        prem, anti = groups[j]
        for kept, d in _choices(prem, anti, slack):
            yield from _deficit_members(head + kept, groups, frees, reach, j + 1, slack - d)
        return
    # every combination of the choices left fits in the slack (each drops
    # nothing, or the slack covers all they can drop): their product, with
    # the frees innermost
    combos = itertools.product(*([kept for kept, _d in _choices(prem, anti, slack)]
                                 for prem, anti in groups[j:]))
    most = min(slack, len(frees))
    if not most:
        base = frozenset(head + frees)
        for combo in combos:
            yield base.union(*combo)
        return
    base, n = frozenset(head), len(frees)
    for combo in combos:
        chosen = base.union(*combo)
        for d in range(most + 1):
            for kept in itertools.combinations(frees, n - d):
                yield chosen.union(kept)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two non-empty coefficient sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _shape_coefficients(n_ones: int, n_twos: int, betas: Iterable[int]) -> list[int]:
    """x^n_ones * (1+x)^n_twos * prod over betas of (x + (1+x)^beta)."""
    coeffs = [0] * n_ones + [comb(n_twos, k) for k in range(n_twos + 1)]
    for beta in betas:
        factor = [comb(beta, k) for k in range(beta + 1)]
        factor[1] += 1
        coeffs = _convolve(coeffs, factor)
    return coeffs


def spectrum_of_shapes(shapes: Mapping[Shape, int]) -> Polynomial:
    """The summed spectra of rows given as {shape: number of rows}.

    Each shape's coefficients are convolved once, scaled by its count and
    added into one coefficient list, so no per-row objects are built.
    """
    total: list[int] = []
    for (n_ones, n_twos, betas), count in shapes.items():
        coeffs = _shape_coefficients(n_ones, n_twos, betas)
        total.extend([0] * (len(coeffs) - len(total)))
        for k, c in enumerate(coeffs):
            total[k] += count * c
    return Polynomial(tuple(total))
