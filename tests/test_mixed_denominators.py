"""The positive layer and the solver on entries with mixed denominators.

Claims, each against a copy of the Fraction recursion the positive layer
ran before it compared integers scaled by a common denominator:
    - every SupportTree view (nodes, paths, parent, children, roots, s)
      has the reference's value, order and types, and s_at agrees at
      every prefix of a support node and at both children of each
    - the greedy partition and its trace (s_values, chosen, tie_sets)
      match under both tie policies
    - consistent_with_greedy gives the reference's verdict and violations
    - forced_segment_is_norming gives the reference's answer or error for
      every head and bottom in the support
    - NormSolver.norm_sq equals the brute-force oracle on signed vectors
    (random vectors whose entries each draw a denominator, hypothesis
    vectors of the same kind, and constructed ties across denominators:
    sibling S values 1/2 + 1/3 and 5/6 at different depths, where the
    lexicographic order of the forest's kids is not the canonical order)
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from helpers import MIXED_DENOMINATORS, random_mixed, support_paths
from hypothesis import given, settings
from hypothesis import strategies as st

from jtx import (
    DomainError,
    NormSolver,
    Node,
    Partition,
    Segment,
    SupportTree,
    TreeVector,
    canonical_order,
    consistent_with_greedy,
    forced_segment_is_norming,
    greedy_partition,
    leq,
    oracle_norm_sq,
    segments_disjoint,
)
from jtx.greedy import GreedyTrace, GreedyViolation


class _Reference:
    """S by the Fraction recursion, on induced children found by scanning the support.

    Children and roots are in lexicographic order, nodes in canonical
    order and s in reversed canonical order, as SupportTree keeps them.
    """

    def __init__(self, x: TreeVector):
        self.nodes = canonical_order(x.support())
        by_path = sorted(self.nodes, key=lambda n: n.path)
        self.parent: dict[Node, Optional[Node]] = {
            n: max((a for a in self.nodes if a != n and leq(a, n)), key=Node.sort_key, default=None)
            for n in self.nodes
        }
        self.children = {n: [c for c in by_path if self.parent[c] == n] for n in self.nodes}
        self.roots = [n for n in by_path if self.parent[n] is None]
        self.s: dict[Node, Fraction] = {}
        for n in reversed(self.nodes):
            best = max((self.s[c] for c in self.children[n]), default=Fraction(0))
            self.s[n] = x.value(n) + max(Fraction(0), best)

    def s_at(self, a: Node) -> Fraction:
        if a in self.s:
            return self.s[a]
        heads = [n for n in self.nodes if leq(a, n) and (self.parent[n] is None or not leq(a, self.parent[n]))]
        return max((self.s[h] for h in heads), default=Fraction(0))

    def greedy(self, tie_policy: str) -> tuple[Partition, GreedyTrace]:
        trace = GreedyTrace(s_values=dict(self.s))
        for n in self.nodes:
            top = max((self.s[c] for c in self.children[n]), default=None)
            ties = tuple(c for c in canonical_order(self.children[n]) if self.s[c] == top)
            trace.tie_sets[n] = ties
            trace.chosen[n] = (ties[0] if tie_policy == "lex-min" else ties[-1]) if ties else None
        picked = set(trace.chosen.values())
        segments = []
        for head in self.nodes:
            if head in picked:
                continue
            cur = head
            while trace.chosen[cur] is not None:
                cur = trace.chosen[cur]
            segments.append(Segment(head, cur))
        return Partition(frozenset(segments)), trace

    def consistent(self, p: Partition) -> tuple[bool, list[GreedyViolation]]:
        violations = []
        for seg in p.sorted_segments():
            chain = [n for n in self.nodes if n in seg]
            for u, nxt in zip(chain, chain[1:]):
                best = max(self.s[c] for c in self.children[u])
                if self.s[nxt] < best:
                    better = next(c for c in canonical_order(self.children[u]) if self.s[c] == best)
                    violations.append(GreedyViolation(seg, u, nxt, better, self.s[nxt], best))
        return (not violations, violations)

    def forced(self, x: TreeVector, seg: Segment) -> bool:
        if seg.top not in self.roots:
            raise DomainError(f"segment top {seg.top.path!r} is not a minimal support node")
        if x.segment_sum(seg) != self.s[seg.top]:
            raise DomainError("segment sum does not attain the maximal segment sum")
        return NormSolver(x).forced_gap(seg) == 0


def _tie_gadget(prefix: str, rng: random.Random) -> dict[str, Fraction]:
    """Entries at and below prefix whose induced children "1" and "00" tie.

    S(prefix + "1") is one entry t; S(prefix + "00") is u + (t - u) over
    a deeper chain, the two parts on other denominators than t. The
    lighter child prefix + "01" is there for a partition to take instead.
    """
    t = Fraction(rng.randint(2, 11), rng.choice((6, 10, 12, 14, 15)))
    u = Fraction(1, rng.choice((2, 3, 4, 5, 7, 9)))
    while u >= t:
        u /= 2
    return {
        prefix: Fraction(rng.randint(1, 5), rng.choice(MIXED_DENOMINATORS)),
        prefix + "1": t,
        prefix + "00": u,
        prefix + "000": t - u,
        prefix + "01": t / rng.randint(2, 5),
    }


def _tied_vector(rng: random.Random) -> TreeVector:
    """One to three tie gadgets at incomparable prefixes of different depths."""
    entries: dict[str, Fraction] = {}
    prefixes: list[str] = []
    for _ in range(rng.randint(1, 3)):
        p = format(rng.getrandbits(8), "08b")[: rng.randint(0, 3)] + "1"
        if all(not p.startswith(q) and not q.startswith(p) for q in prefixes):
            prefixes.append(p)
            entries.update(_tie_gadget(p, rng))
    if len(prefixes) > 1 and rng.random() < 0.5:
        entries[""] = Fraction(1, rng.choice(MIXED_DENOMINATORS))
    return TreeVector.from_dict(entries)


# The tie 1/2 + 1/3 = 5/6 below the root and below "1", at different depths.
TIED = TreeVector.from_dict(
    {"": "1/7", "00": "1/2", "000": "1/3", "01": "1/9", "1": "7/12", "10": "1/5", "11": "1/4"}
)


def _cases() -> list[TreeVector]:
    rng = random.Random(1414)
    return [TIED] + [random_mixed(rng, max_depth=5, max_ran=40) for _ in range(60)] + [
        _tied_vector(rng) for _ in range(60)
    ]


CASES = _cases()


@st.composite
def mixed_positive(draw) -> TreeVector:
    """Positive values on the supports of `support_paths`, a denominator per entry."""
    paths = draw(support_paths())
    return TreeVector.from_dict(
        {
            p: Fraction(draw(st.integers(1, 9)), draw(st.sampled_from(MIXED_DENOMINATORS)))
            for p in paths
        }
    )


def _partitions(x: TreeVector, ref: _Reference, rng: random.Random) -> list[Partition]:
    """Each gadget's bypass of its heaviest children, plus random disjoint families."""
    out = [
        Partition.of(Segment(n, c))
        for n in ref.nodes
        for c in ref.children[n]
        if ref.s[c] < max(ref.s[k] for k in ref.children[n])
    ]
    paths = sorted(n.path for n in ref.nodes)
    for _ in range(4):
        chosen: list[Segment] = []
        for _ in range(rng.randint(1, 5)):
            bottom = rng.choice(paths) + rng.choice(("", "0", "1"))
            seg = Segment(Node(bottom[: rng.randint(0, len(bottom))]), Node(bottom))
            if all(segments_disjoint(seg, other) for other in chosen):
                chosen.append(seg)
        out.append(Partition(frozenset(chosen)))
    return out


def _check_support_tree(x: TreeVector) -> None:
    tree, ref = SupportTree(x), _Reference(x)
    assert tree.nodes == ref.nodes, x
    assert tree.paths == {n.path for n in ref.nodes} and type(tree.paths) is set
    assert tree.parent == ref.parent
    assert tree.children == ref.children
    assert tree.roots == ref.roots
    assert list(tree.s.items()) == list(ref.s.items()), x
    assert all(type(v) is Fraction for v in tree.s.values())
    probes = {Node(n.path[:k]) for n in ref.nodes for k in range(n.depth + 1)}
    probes |= {c for n in ref.nodes for c in n.children()}
    for a in probes:
        got = tree.s_at(a)
        assert got == ref.s_at(a) and type(got) is Fraction, (x, a)


def _check_greedy(x: TreeVector) -> None:
    ref = _Reference(x)
    for policy in ("lex-min", "lex-max"):
        partition, trace = greedy_partition(x, policy)
        ref_partition, ref_trace = ref.greedy(policy)
        assert partition == ref_partition, (x, policy)
        assert trace.s_values == ref_trace.s_values
        assert trace.chosen == ref_trace.chosen, (x, policy)
        assert trace.tie_sets == ref_trace.tie_sets, x


def _check_consistent(x: TreeVector, rng: random.Random) -> None:
    ref = _Reference(x)
    for p in _partitions(x, ref, rng):
        got = consistent_with_greedy(x, p)
        assert got == ref.consistent(p), (x, p)
        assert all(type(v.chosen_sum) is type(v.better_sum) is Fraction for v in got[1])


def _answer(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return ("DomainError", str(exc))


def _check_forced(x: TreeVector) -> None:
    ref = _Reference(x)
    for top in ref.nodes:
        for bottom in ref.nodes:
            if leq(top, bottom):
                seg = Segment(top, bottom)
                got = _answer(forced_segment_is_norming, x, seg)
                assert got == _answer(ref.forced, x, seg), (x, seg)


def test_support_tree_matches_fraction_recursion():
    for x in CASES:
        _check_support_tree(x)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mixed_positive())
def test_support_tree_matches_fraction_recursion_hypothesis(x):
    _check_support_tree(x)


def test_greedy_matches_fraction_recursion():
    for x in CASES:
        _check_greedy(x)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mixed_positive())
def test_greedy_matches_fraction_recursion_hypothesis(x):
    _check_greedy(x)


def test_consistent_matches_fraction_recursion():
    rng = random.Random(1416)
    for x in CASES:
        _check_consistent(x, rng)


def test_tied_example():
    """The cross-depth tie: canonical order puts "1" before "00"."""
    _, trace = greedy_partition(TIED)
    assert trace.tie_sets[Node("")] == (Node("1"), Node("00"))
    assert trace.s_values[Node("1")] == trace.s_values[Node("00")] == Fraction(5, 6)
    ok, violations = consistent_with_greedy(TIED, Partition.of(Segment(Node(""), Node("01"))))
    assert not ok and violations[0].better == Node("1")


def test_forced_segment_matches_fraction_recursion():
    for x in CASES[::3]:
        _check_forced(x)


def test_norm_sq_matches_oracle_on_signed_mixed():
    rng = random.Random(1415)
    for _ in range(150):
        x = random_mixed(rng, signed=True)
        assert NormSolver(x).norm_sq() == oracle_norm_sq(x), x
