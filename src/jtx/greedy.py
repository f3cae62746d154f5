"""Positive-vector machinery: maximal segment sums and the greedy partition.

For an entrywise-positive vector the best partition can be built
top-down: from each segment head, keep linking to an induced support
child with the largest maximal downward segment sum (the "heaviest"
child). "Children" here are induced support children, the minimal
support nodes strictly below a node; the ambient tree's children play
no role in this module. `SupportTree` (in vector.py, below norm.py,
whose jt_norm_sq walks it too) derives the maximal downward segment
sums once per vector, bottom-up over the support's paths, as integers scaled by the
entries' common denominator (as `NormSolver` scales them); every
operation compares those integers on paths and makes a `Node` or a
`Fraction` only for what it returns. Two `Fraction`s are equal iff
their scaled integers are, so ties stay exact.

greedy_partition and jt_norm_sq run one heaviest-child walk
(norm._heaviest_walk) and differ only in the tie pick: lex-min and
lex-max take the first and the last tie in canonical order, jt_norm_sq
the first in lexicographic order. The greedy trace keeps the walk's
picks as paths and builds its maps of Nodes and Fractions on first read.

All operations reject signed vectors rather than guessing semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DomainError, _shown
from .norm import NormSolver, Partition, _heaviest_walk
from .tree import Node, Segment
from .vector import SupportTree, TreeVector


@dataclass
class GreedyTrace:
    """Per-node record of the greedy run, every map keyed in canonical order.

    s_values holds the maximal downward segment sum at every support
    node; tie_sets holds all heaviest children, so a consistency check
    can accept any maximal choice, not just the one taken. A trace that
    greedy_partition returns holds only its support tree and the walk's
    picks, as paths, and builds each map on its first read.
    """

    s_values: dict[Node, Fraction] = field(default_factory=dict)
    chosen: dict[Node, Optional[Node]] = field(default_factory=dict)
    tie_sets: dict[Node, tuple[Node, ...]] = field(default_factory=dict)

    @classmethod
    def _of_walk(cls, st: SupportTree, pick: dict[str, str]) -> GreedyTrace:
        trace = object.__new__(cls)
        trace._walk = st, pick
        return trace

    def __getattr__(self, name: str):
        """Build a map of a walk's trace; reached only while it is unset."""
        if name not in ("s_values", "chosen", "tie_sets") or "_walk" not in self.__dict__:
            raise AttributeError(name)
        st, pick = self._walk
        s, kids, node = st._s, st._forest.kids, st._node
        if name == "s_values":
            value = {n: Fraction(s[n.path], st._den) for n in st.nodes}
        elif name == "chosen":
            value = {n: node[pick[n.path]] if n.path in pick else None for n in st.nodes}
        else:
            value = {}
            for n in st.nodes:
                top = max((s[c] for c in kids[n.path]), default=0)
                ties = sorted((c for c in kids[n.path] if s[c] == top), key=len)
                value[n] = tuple(node[c] for c in ties)
        setattr(self, name, value)
        return value


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
    # canonical order is by length, then lexicographic: lex-min takes the
    # shortest tie, the first in lexicographic order among those; lex-max
    # the longest, the last in lexicographic order among those
    tie = (lambda c: -len(c)) if tie_policy == "lex-min" else (lambda c: (len(c), c))
    partition, pick = _heaviest_walk(st, tie)
    return partition, GreedyTrace._of_walk(st, pick)


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
    # a one-node segment takes no step, so only longer ones are walked
    longer = [seg for seg in p.segments if seg.top.path != seg.bottom.path]
    for seg in sorted(longer, key=Segment.sort_key):
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
