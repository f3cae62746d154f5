"""Positive-vector machinery: maximal segment sums and the greedy partition.

For an entrywise-positive vector the best partition can be built
top-down: from each segment head, keep linking to an induced support
child with the largest maximal downward segment sum (the "heaviest"
child). "Children" here are induced support children, the minimal
support nodes strictly below a node; the ambient tree's children play
no role in this module. `SupportTree` derives the maximal downward
segment sums once per vector; every operation reads them from there.

All operations reject signed vectors rather than guessing semantics.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .norm import NormSolver, Partition, jt_norm_sq
from .tree import Node, Segment, _forest, canonical_order
from .vector import TreeVector


class SupportTree:
    """The support of a vector as a forest under the induced-child relation.

    s[n] is S(n), the maximal downward segment sum at support node n.
    """

    def __init__(self, x: TreeVector):
        self.nodes = canonical_order(x.support())
        self.paths = {n.path for n in self.nodes}
        forest = _forest(sorted(self.paths))
        self._order, up = forest.order, forest.up
        by_path = {n.path: n for n in self.nodes}
        self.parent: dict[Node, Optional[Node]] = {
            n: by_path[up[n.path]] if n.path in up else None for n in self.nodes
        }
        self.children: dict[Node, list[Node]] = {
            n: [by_path[c] for c in forest.kids[n.path]] for n in self.nodes
        }
        self.roots = [by_path[r] for r in forest.roots]
        self.s: dict[Node, Fraction] = {}
        for n in reversed(self.nodes):
            best = max((self.s[c] for c in self.children[n]), default=Fraction(0))
            self.s[n] = x.value(n) + max(Fraction(0), best)

    def s_at(self, a: Node) -> Fraction:
        """The largest S over the support nodes in the wedge at a; 0 if none.

        S strictly decreases down every chain of a positive vector, so the
        maximum sits on a minimal support node of the wedge. The first
        support path at or after a in sorted order is one when it has a as
        a prefix: the wedge's paths follow a contiguously, ancestors first.
        The others share its parent in the forest (or are roots with it).
        """
        if a in self.s:
            return self.s[a]
        i = bisect_left(self._order, a.path)
        if i == len(self._order) or not self._order[i].startswith(a.path):
            return Fraction(0)
        above = self.parent[Node(self._order[i])]
        heads = self.roots if above is None else self.children[above]
        return max(self.s[h] for h in heads if h.path.startswith(a.path))


@dataclass
class GreedyTrace:
    """Per-node record of the greedy run.

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
        raise DomainError(f"node {a.path!r} lies outside ran(x)")
    return SupportTree(x).s_at(a)


def greedy_partition(
    x: TreeVector, tie_policy: str = "lex-min"
) -> tuple[Partition, GreedyTrace]:
    """Build a norming partition for a positive vector by heaviest-child walks.

    Ties among heaviest children break deterministically: lex-min picks
    the lexicographically smallest path, lex-max the largest. Every tie
    choice yields the same score; the trace records the full tie set.
    """
    x.require_positive("greedy_partition")
    if tie_policy not in ("lex-min", "lex-max"):
        raise DomainError(f"unknown tie policy {tie_policy!r}")
    st = SupportTree(x)
    s = st.s
    trace = GreedyTrace(s_values=dict(s))
    for n in st.nodes:
        kids = st.children[n]
        if not kids:
            trace.chosen[n] = None
            trace.tie_sets[n] = ()
            continue
        top = max(s[c] for c in kids)
        ties = tuple(c for c in canonical_order(kids) if s[c] == top)
        trace.tie_sets[n] = ties
        trace.chosen[n] = ties[0] if tie_policy == "lex-min" else ties[-1]

    segments = []
    for head in st.roots:
        heads = [head]
        while heads:
            h = heads.pop(0)
            cur = h
            while trace.chosen[cur] is not None:
                nxt = trace.chosen[cur]
                heads.extend(c for c in st.children[cur] if c != nxt)
                cur = nxt
            segments.append(Segment(h, cur))
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
        raise DomainError(f"node {a.path!r} is not in supp(x)")
    kids = st.children[a]
    lhs = jt_norm_sq(x.wedge(a)).norm_sq
    middle = 2 * x.value(a) * max((st.s[c] for c in kids), default=Fraction(0))
    rhs = x.value(a) ** 2 + middle + sum(
        (jt_norm_sq(x.wedge(c)).norm_sq for c in kids), Fraction(0)
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
    s = st.s
    violations: list[GreedyViolation] = []
    for seg in p.sorted_segments():
        b = seg.bottom.path
        chain = [
            Node(b[:k])
            for k in range(seg.top.depth, seg.bottom.depth + 1)
            if b[:k] in st.paths
        ]
        for u, nxt in zip(chain, chain[1:]):
            best = max(s[c] for c in st.children[u])
            if s[nxt] < best:
                better = next(
                    c for c in canonical_order(st.children[u]) if s[c] == best
                )
                violations.append(
                    GreedyViolation(seg, u, nxt, better, s[nxt], best)
                )
    return (not violations, violations)


def forced_segment_is_norming(x: TreeVector, s: Segment) -> bool:
    """Check that forcing a maximal head segment keeps the norm attainable.

    Preconditions: the segment starts at a minimal support node and its
    sum attains the maximal segment sum from that node.
    """
    x.require_positive("forced_segment_is_norming")
    head = s.top
    st = SupportTree(x)
    if head not in st.roots:
        raise DomainError(f"segment top {head.path!r} is not a minimal support node")
    if x.segment_sum(s) != st.s[head]:
        raise DomainError("segment sum does not attain the maximal segment sum")
    return NormSolver(x).forced_gap(s) == 0
