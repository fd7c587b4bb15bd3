"""Nested matchings on [p+q], feasibility, the exchange operation, and the
balancedness decision for collection pairs.

An arc (i, j) with i < j covers the interval [i..j].  A matching M of q arcs
is feasible for a p-subset A of [p+q] when the arcs are pairwise disjoint and
each one has exactly one end in A, the arcs are nested, and no element outside
the arcs is covered by one.  Two collections are balanced when every matching
is feasible for equally many members (with multiplicity) of each.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

Arc = tuple[int, int]


class MatchingError(ValueError):
    pass


@dataclass(frozen=True)
class NestedMatching:
    """A set of arcs on [ambient], held in canonical sorted order."""

    arcs: tuple[Arc, ...]
    ambient: int

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(sorted(tuple(a) for a in self.arcs)))
        for i, j in self.arcs:
            if not (1 <= i < j <= self.ambient):
                raise MatchingError(f"bad arc ({i}, {j}) on [{self.ambient}]")

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

    def __str__(self):
        return " ".join(f"({i},{j})" for i, j in self.arcs) or "(empty)"


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


def _scan(n: int, q: int, a_set: frozenset[int] | None):
    """Left-to-right scan over [n] with an explicit stack of partial
    matchings, so its depth is not bounded by the interpreter's recursion
    limit.  At each element k a partial matching may close its innermost open
    arc at k, open an arc at k, or leave k free; the children are pushed in
    reverse, so they are taken in that order and the matchings come out in
    one fixed order.  Arcs open and close stack-wise, so they are nested by
    construction, and k may stay free only outside every open arc.

    With a coloring A (|A| = n - q), closing checks that the arc has exactly
    one end in A, and two exact facts prune the scan:

    - each of the q arcs has one end in A and one outside it, so no element
      outside A is free: k may stay free only when it is in A;
    - an open arc needs a later element of the other color to close it, and
      an arc not yet opened needs one element of each color.  Outside A this
      count is met exactly, as none of those elements is free; in A it fails
      exactly when more than n - 2q elements have been left free.  So k may
      stay free only while fewer than n - 2q elements before it are free.

    The second rule holds for every q-arc matching on [n], colored or not."""

    results: list[NestedMatching] = []
    free_total = n - 2 * q
    # A partial matching before element k: the openers of its open arcs (the
    # innermost last) and its closed arcs.
    todo = [(1, (), ())]
    while todo:
        k, opens, arcs = todo.pop()
        if k > n:
            if not opens and len(arcs) == q:
                results.append(NestedMatching(arcs, n))
            continue
        if not opens and k - 1 - 2 * len(arcs) < free_total and (a_set is None or k in a_set):
            todo.append((k + 1, opens, arcs))
        if len(arcs) + len(opens) < q:
            todo.append((k + 1, opens + (k,), arcs))
        if opens:
            i = opens[-1]
            if a_set is None or (i in a_set) != (k in a_set):
                todo.append((k + 1, opens[:-1], arcs + ((i, k),)))
    return tuple(results)


def enumerate_feasible_matchings(a_set: Iterable[int], p: int, q: int) -> tuple[NestedMatching, ...]:
    """All feasible matchings for the p-subset A of [p+q], each exactly once,
    in a fixed order."""
    A = frozenset(a_set)
    n = p + q
    if len(A) != p or not A <= set(range(1, n + 1)):
        raise MatchingError(f"A must be a {p}-subset of [{n}]")
    return _scan(n, q, A)


def enumerate_nested_matchings(n: int, q: int) -> tuple[NestedMatching, ...]:
    """All q-arc matchings on [n] satisfying the nesting and covering
    conditions, regardless of any coloring."""
    return _scan(n, q, None)


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


@dataclass(frozen=True)
class Collection:
    """Multicollection of p-subsets of [p+q]; members kept sorted, repeats
    meaning multiplicity."""

    p: int
    q: int
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = tuple(sorted(tuple(sorted(m)) for m in self.members))
        object.__setattr__(self, "members", canon)
        n = self.p + self.q
        for m in self.members:
            if len(m) != self.p or len(set(m)) != self.p:
                raise MatchingError(f"member {m} is not a {self.p}-subset")
            if not set(m) <= set(range(1, n + 1)):
                raise MatchingError(f"member {m} is not inside [{n}]")


def collection(p: int, q: int, members: Iterable[Iterable[int]]) -> Collection:
    return Collection(p, q, tuple(tuple(m) for m in members))


def matching_multiset(coll: Collection) -> Counter:
    """Matchings counted with multiplicity |{A in the collection : M feasible
    for A}|, members counted with their own multiplicity.  Each distinct
    member is scanned once and adds its multiplicity."""
    counts: Counter = Counter()
    for member, times in Counter(coll.members).items():
        for m in enumerate_feasible_matchings(member, coll.p, coll.q):
            counts[m] += times
    return counts


@dataclass(frozen=True)
class BalanceResult:
    balanced: bool
    witness: NestedMatching | None
    lhs_count: int
    rhs_count: int


def is_balanced(lhs: Collection, rhs: Collection) -> BalanceResult:
    """Compare the two matching multisets; on failure report a witness
    matching with differing multiplicities (the smallest in sorted order)."""
    if (lhs.p, lhs.q) != (rhs.p, rhs.q):
        raise MatchingError("collections have different (p, q)")
    left = matching_multiset(lhs)
    right = matching_multiset(rhs)
    if left == right:
        return BalanceResult(True, None, 0, 0)
    differing = (m for m in left.keys() | right.keys() if left[m] != right[m])
    witness = min(differing, key=lambda m: m.arcs)
    return BalanceResult(False, witness, left[witness], right[witness])


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
    for ln in lines[1:]:
        if ln == "--":
            blocks.append([])
            continue
        try:
            blocks[-1].append(tuple(int(x) for x in ln.split()))
        except ValueError:
            raise MatchingError(f"bad subset line: {ln!r}") from None
    if len(blocks) != 2:
        raise MatchingError("expected exactly one '--' separator")
    return collection(p, q, blocks[0]), collection(p, q, blocks[1])


def write_collection_pair(lhs: Collection, rhs: Collection) -> str:
    lines = [f"{lhs.p} {lhs.q}"]
    lines += [" ".join(str(x) for x in m) for m in lhs.members]
    lines.append("--")
    lines += [" ".join(str(x) for x in m) for m in rhs.members]
    return "\n".join(lines) + "\n"
