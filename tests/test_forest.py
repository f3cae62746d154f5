"""The nearest-ancestor linker `tree._forest` and the support forest on it.

Claims:
    - `_forest` links every path of a sorted set to its nearest proper
      ancestor in the set, lists each path's nearest descendants in
      sorted order and the paths without an ancestor as roots, on any
      set of paths, not only order-convex ones
    - `SupportTree.parent`, `children` and `roots` equal a brute-force
      nearest-support-ancestor scan
    (hypothesis differentials on arbitrary path sets, positive forests,
    sparse chains and full trees)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from helpers import support_paths
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtx import Node, SupportTree, TreeVector
from jtx.tree import _forest

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _nearest_above(path: str, members) -> Optional[str]:
    """Reference: the deepest member that is a proper prefix of path."""
    return next((path[:k] for k in range(len(path) - 1, -1, -1) if path[:k] in members), None)


@_SETTINGS
@given(st.sets(st.text("01", max_size=8), max_size=40))
@example({"0", "0000", "01", "1", "10", "11"})
def test_forest_links_nearest_ancestors(paths):
    order = sorted(paths)
    forest = _forest(order)
    assert forest.order == order
    above = {p: _nearest_above(p, paths) for p in paths}
    assert forest.up == {p: a for p, a in above.items() if a is not None}
    assert forest.roots == [p for p in order if above[p] is None]
    assert forest.kids == {p: [c for c in order if above[c] == p] for p in order}


@st.composite
def positive_vectors(draw) -> TreeVector:
    """Positive values on the supports of `support_paths`, chains to depth 40."""
    paths = draw(support_paths(max_chain=40))
    value = st.integers(1, 4).map(lambda k: Fraction(k, 2))
    return TreeVector.from_dict({p: draw(value) for p in paths}, max_depth=40)


@_SETTINGS
@given(positive_vectors())
@example(TreeVector.from_dict({"": "1/4", "1": 1, "00": 1}))
@example(TreeVector.from_dict({"000": 1, "01": 1, "1": 1, "0110": 1}))
def test_support_tree_links_match_scan(x):
    st_ = SupportTree(x)
    supp = {n.path for n in x.support()}
    above = {p: _nearest_above(p, supp) for p in supp}
    assert st_.parent == {
        Node(p): None if a is None else Node(a) for p, a in above.items()
    }
    assert {n: set(kids) for n, kids in st_.children.items()} == {
        Node(p): {Node(c) for c in supp if above[c] == p} for p in supp
    }
    assert set(st_.roots) == {Node(p) for p, a in above.items() if a is None}
    assert len(st_.roots) == len(set(st_.roots))
