"""Positive-vector machinery: maximal segment sums and the greedy partition.

For an entrywise-positive vector the best partition can be built
top-down: from each segment head, keep linking to an induced support
child with the largest maximal downward segment sum (the "heaviest"
child). "Children" here are induced support children, the minimal
support nodes strictly below a node; the ambient tree's children play
no role in this module.

All operations reject signed vectors rather than guessing semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .norm import ForceSegment, NormSolver, Partition, jt_norm_sq
from .tree import Node, Segment, canonical_order, leq, minimal_nodes
from .vector import TreeVector


class SupportTree:
    """The support of a vector as a forest under the induced-child relation."""

    def __init__(self, x: TreeVector):
        self.nodes = canonical_order(x.support())
        self.parent: dict[Node, Optional[Node]] = {}
        self.children: dict[Node, list[Node]] = {n: [] for n in self.nodes}
        paths = {n.path for n in self.nodes}
        for n in self.nodes:
            parent = None
            for k in range(n.depth - 1, -1, -1):
                if n.path[:k] in paths:
                    parent = Node(n.path[:k])
                    break
            self.parent[n] = parent
            if parent is not None:
                self.children[parent].append(n)
        self.roots = [n for n in self.nodes if self.parent[n] is None]

    def is_leaf(self, n: Node) -> bool:
        return not self.children[n]


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


def _support_s_values(x: TreeVector, st: SupportTree) -> dict[Node, Fraction]:
    """S at every support node: own value plus the heaviest child's S."""
    out: dict[Node, Fraction] = {}
    for n in sorted(st.nodes, key=Node.sort_key, reverse=True):
        best = max((out[c] for c in st.children[n]), default=Fraction(0))
        out[n] = x.value(n) + max(Fraction(0), best)
    return out


def max_segment_sum(x: TreeVector, a: Node) -> Fraction:
    """Largest sum of a downward segment starting at a.

    For positive vectors this is x(a) plus the best induced child's
    value, or x(a) alone when stopping at a is already maximal.
    """
    x.require_positive("max_segment_sum")
    if a not in x.range():
        raise DomainError(f"node {a.path!r} lies outside ran(x)")
    st = SupportTree(x)
    s = _support_s_values(x, st)
    if a in s:
        return s[a]
    below = [n for n in st.nodes if leq(a, n)]
    heads = minimal_nodes(below)
    return max((s[h] for h in heads), default=Fraction(0))


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
    s = _support_s_values(x, st)
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
    s = _support_s_values(x, st)
    kids = st.children[a]
    lhs = jt_norm_sq(x.wedge(a)).norm_sq
    middle = 2 * x.value(a) * max((s[c] for c in kids), default=Fraction(0))
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
    s = _support_s_values(x, st)
    supp = {n.path for n in st.nodes}
    violations: list[GreedyViolation] = []
    for seg in p.sorted_segments():
        b = seg.bottom.path
        chain = [
            Node(b[:k])
            for k in range(seg.top.depth, seg.bottom.depth + 1)
            if b[:k] in supp
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
    if head not in minimal_nodes(x.support()):
        raise DomainError(f"segment top {head.path!r} is not a minimal support node")
    if x.segment_sum(s) != max_segment_sum(x, head):
        raise DomainError("segment sum does not attain the maximal segment sum")
    solver = NormSolver(x)
    return solver.norm_sq((ForceSegment(s),)) == solver.norm_sq()
