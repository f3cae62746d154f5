"""Random instance generators shared across the test modules.

Every generator takes an explicit random.Random so each test pins its
own seed and the suite stays deterministic; `support_paths` is the
hypothesis strategy shared by the differential suites, and
`range_all_pairs` the range by its definition, for the references that
must not rest on the engine's skeleton.
"""

from __future__ import annotations

import random
from fractions import Fraction

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
