"""Positive-vector machinery: maximal segment sums and the greedy partition.

For an entrywise-positive vector the best partition can be built
top-down: from each segment head, keep linking to an induced support
child with the largest maximal downward segment sum (the "heaviest"
child). "Children" here are induced support children, the minimal
support nodes strictly below a node; the ambient tree's children play
no role in this module. `SupportTree` derives the maximal downward
segment sums once per vector, bottom-up over the support's paths, as
integers scaled by the entries' common denominator (as `NormSolver`
scales them); every operation compares those integers on paths and
makes a `Node` or a `Fraction` only for what it returns. Two
`Fraction`s are equal iff their scaled integers are, so ties stay exact.

All operations reject signed vectors rather than guessing semantics.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import DomainError, _shown
from .norm import NormSolver, Partition
from .tree import Node, Segment, _forest
from .vector import TreeVector


class SupportTree:
    """The support of a vector as a forest under the induced-child relation.

    S(n) is the maximal downward segment sum at support node n. _s maps
    each support path to S times _den, the entries' common denominator,
    and _forest links the support paths. Its kids lists are in
    lexicographic order, so a stable sort by length puts them in
    canonical order. The Node views nodes (canonical order), paths,
    parent, children, roots and s (s[n] is S(n)) are built on first read.
    """

    def __init__(self, x: TreeVector):
        self._val, self._den = x._scaled()
        self._forest = _forest(sorted(self._val))
        kids = self._forest.kids
        s: dict[str, int] = {}
        # lexicographic order puts every path after its ancestors
        for p in reversed(self._forest.order):
            s[p] = self._val[p] + max(0, max((s[c] for c in kids[p]), default=0))
        self._s = s

    @cached_property
    def _node(self) -> dict[str, Node]:
        return {p: Node(p) for p in self._forest.order}

    @cached_property
    def nodes(self) -> list[Node]:
        return sorted(self._node.values(), key=Node.sort_key)

    @cached_property
    def paths(self) -> set[str]:
        return set(self._s)

    @cached_property
    def parent(self) -> dict[Node, Optional[Node]]:
        up, node = self._forest.up, self._node
        return {n: node[up[n.path]] if n.path in up else None for n in self.nodes}

    @cached_property
    def children(self) -> dict[Node, list[Node]]:
        kids, node = self._forest.kids, self._node
        return {n: [node[c] for c in kids[n.path]] for n in self.nodes}

    @cached_property
    def roots(self) -> list[Node]:
        return [self._node[r] for r in self._forest.roots]

    @cached_property
    def s(self) -> dict[Node, Fraction]:
        return {n: Fraction(self._s[n.path], self._den) for n in reversed(self.nodes)}

    def s_at(self, a: Node) -> Fraction:
        """The largest S over the support nodes in the wedge at a; 0 if none.

        S strictly decreases down every chain of a positive vector, so the
        maximum sits on a minimal support node of the wedge. The first
        support path at or after a in sorted order is one when it has a as
        a prefix: the wedge's paths follow a contiguously, ancestors first.
        The others share its parent in the forest (or are roots with it);
        when a is in the support, it is the only one.
        """
        f, a = self._forest, a.path
        i = bisect_left(f.order, a)
        if i == len(f.order) or not f.order[i].startswith(a):
            return Fraction(0)
        above = f.up.get(f.order[i])
        heads = f.roots if above is None else f.kids[above]
        return Fraction(max(self._s[h] for h in heads if h.startswith(a)), self._den)


@dataclass
class GreedyTrace:
    """Per-node record of the greedy run, every map keyed in canonical order.

    s_values holds the maximal downward segment sum at every support
    node; tie_sets holds all heaviest children, so a consistency check
    can accept any maximal choice, not just the one taken.
    """

    s_values: dict[Node, Fraction] = field(default_factory=dict)
    chosen: dict[Node, Optional[Node]] = field(default_factory=dict)
    tie_sets: dict[Node, tuple[Node, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class GreedyViolation:
    """A segment step that bypassed a strictly heavier child."""

    segment: Segment
    node: Node
    chosen: Node
    better: Node
    chosen_sum: Fraction
    better_sum: Fraction


def max_segment_sum(x: TreeVector, a: Node) -> Fraction:
    """Largest sum of a downward segment starting at a.

    For positive vectors this is x(a) plus the best induced child's
    value, or x(a) alone when stopping at a is already maximal.
    """
    x.require_positive("max_segment_sum")
    if a not in x.range():
        raise DomainError(f"node {_shown(repr(a.path))} lies outside ran(x)")
    return SupportTree(x).s_at(a)


def greedy_partition(
    x: TreeVector, tie_policy: str = "lex-min"
) -> tuple[Partition, GreedyTrace]:
    """Build a norming partition for a positive vector by heaviest-child walks.

    Ties among heaviest children break deterministically: lex-min picks
    the first in canonical order (depth, then bits), lex-max the last.
    Every tie choice yields the same score; the trace records the full
    tie set, in canonical order.
    """
    x.require_positive("greedy_partition")
    if tie_policy not in ("lex-min", "lex-max"):
        raise DomainError(f"unknown tie policy {_shown(repr(tie_policy))}")
    st = SupportTree(x)
    kids, s, node = st._forest.kids, st._s, st._node
    trace = GreedyTrace()
    # phase 1: each support node, in canonical order, records its heaviest children
    # and picks one of them
    pick: dict[str, str] = {}
    for p in sorted(st._forest.order, key=len):
        n = node[p]
        trace.s_values[n] = Fraction(s[p], st._den)
        top = max((s[c] for c in kids[p]), default=0)
        ties = sorted((c for c in kids[p] if s[c] == top), key=len)
        trace.tie_sets[n] = tuple(node[c] for c in ties)
        if ties:
            pick[p] = ties[0] if tie_policy == "lex-min" else ties[-1]
        trace.chosen[n] = node[pick[p]] if ties else None
    # phase 2: every node no node picked heads a segment, which follows the picks down
    picked = set(pick.values())
    segments = []
    for head in st._forest.order:
        if head not in picked:
            bottom = head
            while bottom in pick:
                bottom = pick[bottom]
            segments.append(Segment(node[head], node[bottom]))
    return Partition(frozenset(segments)), trace


def recursive_norm_check(x: TreeVector, a: Node) -> bool:
    """Verify the wedge-norm recursion at a support node.

    The squared norm of the restriction to the wedge at a must equal
    x(a)^2 + 2 x(a) max_c S_c + sum over induced children c of the
    squared norm of the wedge at c (middle term zero at leaves).
    """
    x.require_positive("recursive_norm_check")
    st = SupportTree(x)
    if a not in st.children:
        raise DomainError(f"node {_shown(repr(a.path))} is not in supp(x)")
    kids = st.children[a]
    lhs = NormSolver(x.wedge(a)).norm_sq()
    middle = 2 * x.value(a) * max((st.s[c] for c in kids), default=Fraction(0))
    rhs = x.value(a) ** 2 + middle + sum(
        (NormSolver(x.wedge(c)).norm_sq() for c in kids), Fraction(0)
    )
    return lhs == rhs


def consistent_with_greedy(
    x: TreeVector, p: Partition
) -> tuple[bool, list[GreedyViolation]]:
    """Check that every segment of p always proceeds to a heaviest child.

    For each segment and each of its support nodes u except the deepest,
    the next support node down the segment must attain the maximal S
    value among u's induced children.
    """
    x.require_positive("consistent_with_greedy")
    st = SupportTree(x)
    kids, s = st._forest.kids, st._s
    violations: list[GreedyViolation] = []
    for seg in p.sorted_segments():
        b = seg.bottom.path
        chain = [b[:k] for k in range(seg.top.depth, seg.bottom.depth + 1) if b[:k] in s]
        for u, nxt in zip(chain, chain[1:]):
            best = max(s[c] for c in kids[u])
            if s[nxt] < best:
                better = min((c for c in kids[u] if s[c] == best), key=len)
                violations.append(GreedyViolation(
                    seg, Node(u), Node(nxt), Node(better), Fraction(s[nxt], st._den),
                    Fraction(best, st._den),
                ))
    return (not violations, violations)


def forced_segment_is_norming(x: TreeVector, s: Segment) -> bool:
    """Check that forcing a maximal head segment keeps the norm attainable.

    Preconditions: the segment starts at a minimal support node and its
    sum attains the maximal segment sum from that node.
    """
    x.require_positive("forced_segment_is_norming")
    head, b = s.top.path, s.bottom.path
    st = SupportTree(x)
    if head not in st._s or head in st._forest.up:
        raise DomainError(f"segment top {_shown(repr(head))} is not a minimal support node")
    total = sum(st._val.get(b[:k], 0) for k in range(len(head), len(b) + 1))
    if total != st._s[head]:
        raise DomainError("segment sum does not attain the maximal segment sum")
    return NormSolver(x).forced_gap(s) == 0
