"""S on the support tree: SupportTree.s and SupportTree.s_at.

Claims:
    - st.s equals the per-node S recursion it replaced (own value plus
      the heaviest induced child's S), at every support node
    - st.s_at(a) equals the scan it replaced (the largest S over the
      minimal support nodes in the wedge at a, 0 when there is none) at
      every prefix of a support node (ran(x) and the nodes above it), at
      both children of every support node, and at a node below the
      support, where it is 0
    (hypothesis differentials on positive forests, sparse chains and
    full trees)
"""

from __future__ import annotations

from fractions import Fraction

from helpers import support_paths
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtx import Node, SupportTree, TreeVector, leq, minimal_nodes

EX = TreeVector.from_dict({"": 1, "00": 1, "01": 1})
COUNTEREXAMPLE = TreeVector.from_dict({"": "1/4", "1": 1, "00": 1})


def _s_values_reference(x: TreeVector, st_: SupportTree) -> dict[Node, Fraction]:
    """Reference: S at every support node, deepest first."""
    out: dict[Node, Fraction] = {}
    for n in sorted(st_.nodes, key=Node.sort_key, reverse=True):
        best = max((out[c] for c in st_.children[n]), default=Fraction(0))
        out[n] = x.value(n) + max(Fraction(0), best)
    return out


def _wedge_s_reference(s: dict[Node, Fraction], st_: SupportTree, a: Node) -> Fraction:
    """Reference: S at a, else the best S among the minimal support nodes below a."""
    if a in s:
        return s[a]
    heads = minimal_nodes(n for n in st_.nodes if leq(a, n))
    return max((s[h] for h in heads), default=Fraction(0))


@st.composite
def positive_vectors(draw) -> TreeVector:
    """Positive values on the supports of `support_paths`."""
    paths = draw(support_paths())
    den = draw(st.integers(1, 4))
    return TreeVector.from_dict({p: Fraction(draw(st.integers(1, 4)), den) for p in paths})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(positive_vectors())
@example(EX)
@example(COUNTEREXAMPLE)
def test_s_and_s_at_match_reference(x):
    st_ = SupportTree(x)
    s = _s_values_reference(x, st_)
    assert st_.s == s
    prefixes = {Node(n.path[:k]) for n in x.support() for k in range(n.depth + 1)}
    assert x.range() <= prefixes
    for a in prefixes:
        assert st_.s_at(a) == _wedge_s_reference(s, st_, a), a
    for n in x.support():
        for c in n.children():
            assert st_.s_at(c) == _wedge_s_reference(s, st_, c), c
    deepest = max(x.support(), key=Node.sort_key)
    below = deepest.child(0)
    assert below not in x.range()
    assert st_.s_at(below) == _wedge_s_reference(s, st_, below) == 0
