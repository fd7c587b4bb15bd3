"""Nested matchings on [p+q], feasibility, the exchange operation, and the
balancedness decision for collection pairs.

An arc (i, j) with i < j covers the interval [i..j].  A matching M of q arcs
is feasible for a p-subset A of [p+q] when the arcs are pairwise disjoint and
each one has exactly one end in A, the arcs are nested, and no element outside
the arcs is covered by one.  Two collections are balanced when every matching
is feasible for equally many members (with multiplicity) of each; one scan
over the nested matchings decides it, each partial matching carrying the
bitset of member copies it is still feasible for.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import combinations

from ._record import Record

Arc = tuple[int, int]


class MatchingError(ValueError):
    pass


class NestedMatching(Record):
    """A set of arcs on [ambient], held in canonical sorted order."""

    _fields = ("arcs", "ambient")

    def __init__(self, arcs: tuple[Arc, ...], ambient: int):
        arcs = tuple(sorted(tuple(a) for a in arcs))
        for i, j in arcs:
            if not (1 <= i < j <= ambient):
                raise MatchingError(f"bad arc ({i}, {j}) on [{ambient}]")
        self.__dict__.update(arcs=arcs, ambient=ambient)

    def endpoints(self) -> frozenset[int]:
        return frozenset(x for arc in self.arcs for x in arc)

    def free_elements(self) -> tuple[int, ...]:
        ends = self.endpoints()
        return tuple(k for k in range(1, self.ambient + 1) if k not in ends)

    def pairwise_disjoint(self) -> bool:
        ends = [x for arc in self.arcs for x in arc]
        return len(ends) == len(set(ends))

    def is_nested(self) -> bool:
        # with the arcs sorted, a pair neither disjoint nor one inside the
        # other is exactly a crossing pair
        return not any(i1 < i2 <= j1 < j2 for (i1, j1), (i2, j2) in combinations(self.arcs, 2))

    def free_uncovered(self) -> bool:
        ends = self.endpoints()
        for i, j in self.arcs:
            for k in range(i + 1, j):
                if k not in ends:
                    return False
        return True


def is_feasible(matching: NestedMatching, a_set: Iterable[int]) -> bool:
    """All three feasibility conditions for A, with q inferred from the ambient."""
    A = frozenset(a_set)
    n = matching.ambient
    p = len(A)
    q = n - p
    if not A <= set(range(1, n + 1)):
        raise MatchingError(f"A must be a subset of [{n}]")
    if len(matching.arcs) != q or not matching.pairwise_disjoint():
        return False
    for i, j in matching.arcs:
        if (i in A) == (j in A):
            return False
    return matching.is_nested() and matching.free_uncovered()


def _scan(n: int, q: int, copies: tuple[Iterable[int], ...] | None) -> list[tuple[tuple[Arc, ...], int]]:
    """The q-arc nested matchings on [n] with no covered free element, each
    once and in one fixed order, as (arcs in closing order, alive), where bit
    b of ``alive`` says the matching is feasible for ``copies[b]``; a matching
    feasible for no copy is left out.  With ``copies`` None (uncoloured) all
    come out, alive 1.

    One left-to-right pass over [n] on an explicit stack, so its depth is not
    bounded by the recursion limit.  At k a partial matching may close its
    innermost open arc at k, open one or leave k free, taken in that order;
    arcs open and close stack-wise, so they nest.  k may stay free only
    outside every open arc, and while fewer than n - 2q elements before it
    are free, as each arc not yet closed still needs its ends.  With holds[k]
    the copies that contain k, leaving k free keeps alive the copies in
    holds[k], closing (i, k) those in holds[i] ^ holds[k], and opening all."""
    holds = None if copies is None else [0] * (n + 1)  # holds[0]: every copy
    for b, member in enumerate(copies or ()):
        for k in (0, *member):
            holds[k] |= 1 << b
    leaves = []
    free_total = n - 2 * q
    # before k: the openers of the open arcs (innermost last), arcs, alive
    todo = [(1, (), (), 1 if holds is None else holds[0])]
    while todo:
        k, opens, arcs, alive = todo.pop()
        if k > n:
            if not opens and len(arcs) == q and alive:
                leaves.append((arcs, alive))
            continue
        if not opens and k - 1 - 2 * len(arcs) < free_total:
            kept = alive if holds is None else alive & holds[k]
            if kept:
                todo.append((k + 1, opens, arcs, kept))
        if len(arcs) + len(opens) < q:
            todo.append((k + 1, opens + (k,), arcs, alive))
        if opens:
            i = opens[-1]
            kept = alive if holds is None else alive & (holds[i] ^ holds[k])
            if kept:
                todo.append((k + 1, opens[:-1], arcs + ((i, k),), kept))
    return leaves


def enumerate_feasible_matchings(a_set: Iterable[int], p: int, q: int) -> tuple[NestedMatching, ...]:
    """All feasible matchings for the p-subset A of [p+q], each exactly once,
    in a fixed order."""
    if p < 0 or q < 0:
        raise MatchingError(f"p and q must be nonnegative, not {p} and {q}")
    A = frozenset(a_set)
    n = p + q
    if len(A) != p or not A <= set(range(1, n + 1)):
        raise MatchingError(f"A must be a {p}-subset of [{n}]")
    return tuple(NestedMatching(arcs, n) for arcs, _ in _scan(n, q, (A,)))


def enumerate_nested_matchings(n: int, q: int) -> tuple[NestedMatching, ...]:
    """All q-arc matchings on [n] satisfying the nesting and covering
    conditions, regardless of any coloring."""
    if n < 0 or q < 0:
        raise MatchingError(f"n and q must be nonnegative, not {n} and {q}")
    return tuple(NestedMatching(arcs, n) for arcs, _ in _scan(n, q, None))


def exchange(a_set: Iterable[int], matching: NestedMatching, chosen: Iterable[Arc]) -> frozenset[int]:
    """Swap the A- and complement-ends inside each chosen arc: A xor (union of
    the chosen arcs).  The matching stays feasible for the result."""
    A = frozenset(a_set)
    chosen = {tuple(arc) for arc in chosen}
    if not chosen <= set(matching.arcs):
        raise MatchingError("chosen arcs are not all in the matching")
    if not is_feasible(matching, A):
        raise MatchingError("matching is not feasible for A")
    swapped = {x for arc in chosen for x in arc}
    return A ^ swapped


class Collection(Record):
    """Multicollection of p-subsets of [p+q]; members kept sorted, repeats
    meaning multiplicity."""

    _fields = ("p", "q", "members")

    def __init__(self, p: int, q: int, members: tuple[tuple[int, ...], ...]):
        canon = tuple(sorted(tuple(sorted(m)) for m in members))
        n = p + q
        ground = set(range(1, n + 1))
        for m in canon:
            # p elements of which p lie in [n]: p distinct elements of [n]
            if len(m) == p and len(ground.intersection(m)) == p:
                continue
            if len(m) != p or len(set(m)) != p:
                raise MatchingError(f"member {m} is not a {p}-subset")
            raise MatchingError(f"member {m} is not inside [{n}]")
        self.__dict__.update(p=p, q=q, members=canon)


def collection(p: int, q: int, members: Iterable[Iterable[int]]) -> Collection:
    return Collection(p, q, tuple(tuple(m) for m in members))


def matching_multiset(coll: Collection) -> Counter:
    """Matchings counted with multiplicity |{A in the collection : M feasible
    for A}|, repeated members included: the copies each one is alive for."""
    n = coll.p + coll.q
    return Counter({NestedMatching(arcs, n): alive.bit_count()
                    for arcs, alive in _scan(n, coll.q, coll.members)})


class BalanceResult(Record):
    _fields = ("balanced", "witness", "lhs_count", "rhs_count")

    def __init__(self, balanced: bool, witness: NestedMatching | None, lhs_count: int, rhs_count: int):
        self.__dict__.update(balanced=balanced, witness=witness, lhs_count=lhs_count, rhs_count=rhs_count)


def is_balanced(lhs: Collection, rhs: Collection) -> BalanceResult:
    """One scan over the copies of both sides, lhs first, counting for each
    matching the copies alive on each side; on failure the witness is the
    smallest matching (by sorted arcs) whose counts differ."""
    if (lhs.p, lhs.q) != (rhs.p, rhs.q):
        raise MatchingError("collections have different (p, q)")
    n, size = lhs.p + lhs.q, len(lhs.members)
    counts = ((arcs, (alive & ((1 << size) - 1)).bit_count(), (alive >> size).bit_count())
              for arcs, alive in _scan(n, lhs.q, lhs.members + rhs.members))
    differing = [(tuple(sorted(arcs)), left, right) for arcs, left, right in counts if left != right]
    if not differing:
        return BalanceResult(True, None, 0, 0)
    arcs, left, right = min(differing)
    return BalanceResult(False, NestedMatching(arcs, n), left, right)


class _Ints(dict):
    """Word -> int(word), each distinct word converted once: a pair file
    repeats a few words, the elements of [p+q], many times."""

    def __missing__(self, word):
        self[word] = value = int(word)
        return value


def parse_collection_pair(text: str) -> tuple[Collection, Collection]:
    """First line "p q"; then one subset per line, the two blocks separated by
    a line "--"."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MatchingError("empty collection file")
    try:
        p, q = (int(x) for x in lines[0].split())
    except ValueError:
        raise MatchingError("first line must be 'p q'") from None
    blocks: list[list[tuple[int, ...]]] = [[]]
    number = _Ints().__getitem__
    for ln in lines[1:]:
        if ln == "--":
            blocks.append([])
            continue
        try:
            blocks[-1].append(tuple(map(number, ln.split())))
        except ValueError:
            raise MatchingError(f"bad subset line: {ln!r}") from None
    if len(blocks) != 2:
        raise MatchingError("expected exactly one '--' separator")
    return collection(p, q, blocks[0]), collection(p, q, blocks[1])


def write_collection_pair(lhs: Collection, rhs: Collection) -> str:
    """The text :func:`parse_collection_pair` reads.  A member is written as
    one line of its elements, so the empty member of a p = 0 collection has
    no line of its own and is refused."""
    if lhs.p == 0 and (lhs.members or rhs.members):
        raise MatchingError("a pair file cannot hold the empty member of a p = 0 collection")
    lines = [f"{lhs.p} {lhs.q}"]
    lines += [" ".join(str(x) for x in m) for m in lhs.members]
    lines.append("--")
    lines += [" ".join(str(x) for x in m) for m in rhs.members]
    return "\n".join(lines) + "\n"
