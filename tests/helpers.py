"""Random instance generators shared across the test modules.

Every generator takes an explicit random.Random so each test pins its
own seed and the suite stays deterministic; `support_paths` is the
hypothesis strategy shared by the differential suites, and
`range_all_pairs` the range by its definition, for the references that
must not rest on the engine's skeleton. `SegmentTopReferee` scores
partitions without the engine's tables, and `extreme_by_zero_gap_graph`
decides extremality from its scores alone; both read nothing of the
engine but the vector's entries.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from hypothesis import strategies as st

from jtx import Node, Segment, TreeVector


def grid(max_depth: int) -> list[str]:
    """All node paths of the full dyadic tree down to max_depth."""
    out = [""]
    for d in range(1, max_depth + 1):
        out.extend(format(i, f"0{d}b") for i in range(2**d))
    return out


def range_all_pairs(paths) -> frozenset[str]:
    """Reference range from its definition: every node between each
    comparable pair of the given paths, the paths included. It shares
    nothing with the engine's skeleton."""
    members = set(paths)
    out = set(members)
    for a in members:
        for b in members:
            if b.startswith(a):
                out.update(b[:k] for k in range(len(a), len(b)))
    return frozenset(out)


@st.composite
def support_paths(draw, max_chain: int = 12) -> list[str]:
    """Forests of several components, sparse chains and full trees of depth 2-5.

    Sparse supports leave support-free interior nodes in the range.
    """
    kind = draw(st.sampled_from(["forest", "chain", "full"]))
    if kind == "forest":
        below_root = grid(4)[1:]
        return draw(st.lists(st.sampled_from(below_root), min_size=1, max_size=9, unique=True))
    if kind == "chain":
        branch = draw(st.text("01", min_size=1, max_size=max_chain))
        levels = draw(st.sets(st.integers(0, len(branch)), min_size=1, max_size=6))
        return [branch[:k] for k in levels]
    return grid(draw(st.integers(2, 5)))


class SegmentTopReferee:
    """Exact squared norms by segment tops, kept as an independent referee
    above the oracle cap: it shares no idea with the open-sum tables, and
    scales the entries and builds the range on its own.

    f(v), the best score of subtree(v), is the best of closed(v), the sum
    of f over v's kids, and of s^2 + off + closed(b) over the segments
    [v, b] of the range: a walk down every chain from v keeps the running
    sum s and off, the f of the subtrees hanging off the chain. The norm
    is the sum of f over the roots. The walk never steps down the edge
    `cut`, and the nodes in `drop` leave the range, so a subtree below a
    dropped node is a component of its own. Cost O(|ran| * depth) per
    score.
    """

    def __init__(self, x: TreeVector):
        self.den = lcm(*(v.denominator for _, v in x.items()))
        self.val = {n.path: int(v * self.den) for n, v in x.items()}
        tops = {b: next(k for k in range(len(b) + 1) if b[:k] in self.val) for b in self.val}
        self.ran = {b[:k] for b, top in tops.items() for k in range(top, len(b) + 1)}

    def score(self, cut=None, drop=frozenset()) -> Fraction:
        ran = self.ran - drop
        kids = {v: [c for c in (v + "0", v + "1") if c in ran] for v in ran}
        f, closed = {}, {}
        for v in sorted(ran, key=len, reverse=True):
            closed[v] = sum(f[c] for c in kids[v])
            best, walk = closed[v], [(v, 0, 0)]
            while walk:
                p, s, off = walk.pop()
                s += self.val.get(p, 0)
                best = max(best, s * s + off + closed[p])
                walk.extend((c, s, off + closed[p] - f[c]) for c in kids[p] if (p, c) != cut)
            f[v] = best
        roots = [v for v in ran if not v or v[:-1] not in ran]
        return Fraction(sum(f[r] for r in roots), self.den * self.den)

    def forced(self, top: str, bottom: str) -> Fraction:
        """The best score of the partitions holding [top, bottom]: the walk
        on the range without the segment's chain, plus s^2."""
        chain = frozenset(bottom[:k] for k in range(len(top), len(bottom) + 1))
        s = Fraction(sum(self.val.get(p, 0) for p in chain), self.den)
        return self.score(drop=chain) + s * s


# The vertex of extreme_by_zero_gap_graph for P = 0, the parent of a
# component root; it is no node path.
BOTTOM = "bottom"


def extreme_by_zero_gap_graph(x: TreeVector) -> bool:
    """Extremality as connectivity of the zero-gap segment graph, read
    off SegmentTopReferee's scores alone.

    A perturbation y with ||x + y|| and ||x - y|| at most ||x|| sums to 0
    on every segment of every norming partition and vanishes off ran(x)
    (the extremality module docstring). The segments of the norming
    partitions are the segments [a, b] of ran(x) with forced gap 0. With
    P(v) the indicator of v's range ancestors and v, [a, b] is
    P(b) - P(parent(a)), where P(parent(a)) is 0 (the vertex BOTTOM)
    when a is a component root. The P(v) are a basis, so those segments
    pin y = 0 iff the graph on ran(x) and BOTTOM, with an edge from
    parent(a) or BOTTOM to b for each, is connected (union-find).
    """
    ref = SegmentTopReferee(x)
    norm_sq = ref.score()
    leader = {v: v for v in [*ref.ran, BOTTOM]}

    def find(v: str) -> str:
        while leader[v] != v:
            leader[v] = leader[leader[v]]
            v = leader[v]
        return v

    parts = len(leader)
    for b in ref.ran:
        for k in range(len(b), -1, -1):
            a = b[:k]
            if a not in ref.ran:
                break  # ran(x) is convex, so no range node lies higher up
            if ref.forced(a, b) == norm_sq:
                above = a[:-1] if a and a[:-1] in ref.ran else BOTTOM
                ends = find(above), find(b)
                if ends[0] != ends[1]:
                    leader[ends[0]] = ends[1]
                    parts -= 1
    return parts == 1


# A generator whose bounds no draw meets gives up after this many draws.
MAX_DRAWS = 10_000


def random_signed(
    rng: random.Random,
    max_depth: int = 4,
    max_ran: int = 11,
    density: float = 0.5,
    max_abs: int = 3,
    max_den: int = 4,
) -> TreeVector:
    """Random signed vector with |ran(x)| bounded; entries k/q, k nonzero.

    Raises ValueError when none of MAX_DRAWS draws meets the bound.
    """
    choices = [k for k in range(-max_abs, max_abs + 1) if k != 0]
    for _ in range(MAX_DRAWS):
        support = [p for p in grid(max_depth) if rng.random() < density]
        if not support:
            continue
        q = rng.randint(1, max_den)
        x = TreeVector.from_dict({p: Fraction(rng.choice(choices), q) for p in support})
        if len(x.range()) <= max_ran:
            return x
    raise ValueError(
        f"no random_signed draw in {MAX_DRAWS} met max_ran={max_ran} "
        f"(max_depth={max_depth}, density={density})"
    )


def random_positive(
    rng: random.Random,
    max_depth: int = 6,
    max_density: float = 0.6,
    max_den: int = 4,
) -> TreeVector:
    """Random entrywise-positive vector; depth and density vary per instance."""
    while True:
        depth = rng.randint(1, max_depth)
        density = rng.uniform(0.15, max_density)
        support = [p for p in grid(depth) if rng.random() < density]
        if support:
            q = rng.randint(1, max_den)
            return TreeVector.from_dict(
                {p: Fraction(rng.randint(1, 4), q) for p in support}
            )


# Denominators for entries that each draw their own: their least common
# multiple runs up to 27,720, so scaled integers differ from the numerators.
MIXED_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)


def random_mixed(
    rng: random.Random, max_depth: int = 4, max_ran: int = 11, signed: bool = False
) -> TreeVector:
    """Random vector with |ran(x)| bounded whose entries each draw a denominator.

    Raises ValueError when none of MAX_DRAWS draws meets the bound.
    """
    for _ in range(MAX_DRAWS):
        support = [p for p in grid(rng.randint(1, max_depth)) if rng.random() < 0.5]
        x = TreeVector.from_dict(
            {
                p: Fraction(
                    rng.randint(1, 9) * (rng.choice((-1, 1)) if signed else 1),
                    rng.choice(MIXED_DENOMINATORS),
                )
                for p in support
            }
        )
        if support and len(x.range()) <= max_ran:
            return x
    raise ValueError(
        f"no random_mixed draw in {MAX_DRAWS} met max_ran={max_ran} (max_depth={max_depth})"
    )


def level_symmetric(rng: random.Random, max_depth: int = 3) -> TreeVector:
    """Full tree with one positive value per level (hence separated)."""
    depth = rng.randint(0, max_depth)
    values = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(depth + 1)]
    return TreeVector.from_dict({p: values[len(p)] for p in grid(depth)})


def chain_vector(rng: random.Random, max_depth: int = 6) -> TreeVector:
    """Signed vector supported on a random chain along one branch."""
    while True:
        depth = rng.randint(1, max_depth)
        branch = format(rng.getrandbits(depth), f"0{depth}b")
        support = [branch[:k] for k in range(depth + 1) if rng.random() < 0.7]
        if support:
            return TreeVector.from_dict(
                {
                    p: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                    for p in support
                }
            )


def antichain_vector(rng: random.Random, depth_lo: int = 1, depth_hi: int = 4) -> TreeVector:
    """Signed vector supported on pairwise incomparable nodes."""
    while True:
        depth = rng.randint(depth_lo, depth_hi)
        support = [p for p in grid(depth) if len(p) == depth and rng.random() < 0.5]
        if support:
            return TreeVector.from_dict(
                {
                    p: Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
                    for p in support
                }
            )


def incomparable_segments_vector(rng: random.Random, top_depth: int = 3) -> TreeVector:
    """Signed vector supported on a family of pairwise incomparable segments."""
    while True:
        tops = [p for p in grid(top_depth) if len(p) == top_depth and rng.random() < 0.4]
        entries = {}
        for top in tops:
            path = top
            for step in range(rng.randint(1, 3)):
                if rng.random() < 0.8:
                    entries[path] = Fraction(
                        rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)
                    )
                path += rng.choice("01")
        if entries:
            return TreeVector.from_dict(entries)


def full_tree_vector(n: int) -> TreeVector:
    """x_n: every node of depth at most n gets coefficient 1."""
    return TreeVector.from_dict({p: 1 for p in grid(n)})


def maximal_head_segment(x: TreeVector, head: Node) -> Segment:
    """A segment from `head` attaining the maximal downward sum (x positive)."""
    from jtx import SupportTree, canonical_order, max_segment_sum

    st = SupportTree(x)
    s_vals = {n: max_segment_sum(x, n) for n in x.support()}
    cur = head
    while st.children[cur]:
        best = max(s_vals[c] for c in st.children[cur])
        cur = next(c for c in canonical_order(st.children[cur]) if s_vals[c] == best)
    return Segment(head, cur)
