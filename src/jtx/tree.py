"""The dyadic tree: nodes, the prefix order, segments, complete subtrees,
and the forest that links a set of nodes to their nearest ancestors in it.

Nodes are finite 0/1 strings; the root is the empty string. The tree
order is the initial-segment (prefix) order. A segment is an
order-convex chain, stored by its two endpoints so that membership and
disjointness are O(depth) string tests and deep chains are never
materialized unless asked for.

Node and Segment are the engine's most numerous values, so they are
slotted frozen dataclasses with their own __eq__ and __hash__ over the
paths: no __dict__, and no dataclass tuple built per comparison or
hash. The public constructors check their input; the engine builds
values it derived from checked ones with the trusted _of, and gives a
one-node segment a single Node as both ends.

The range of a set of paths, its smallest complete subtree, is read
off one map, its skeleton (_skeleton): the paths plus every range node
with two range children, linked by _forest. Every other range node
below a skeleton root lies on the stretch above exactly one skeleton
node, and _stretches lists each with that node; _expand reads the
range off as the roots and those nodes. range_paths, the solver's ran,
the separation scan and the branch exits of the equal sums report all
take the range from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, InputError, _shown

# Inputs deeper than this are rejected at the parse boundary; internal
# derived nodes (e.g. the exit child of a leaf in a branch-sum scan) may
# exceed it by one.
DEFAULT_MAX_DEPTH = 30

_BITS = frozenset("01")

# The trusted constructors (_of) fill a slotted frozen value through these,
# past the dataclass's __init__ and its frozen __setattr__.
_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True, slots=True, eq=False)
class Node:
    """A position in the dyadic tree, identified by its bit path.

    A slotted value: two Nodes are equal iff their paths are, and a Node
    hashes as its path does. There is no order on Nodes (sort by
    sort_key), no __dict__, and assignment raises FrozenInstanceError.
    """

    path: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.path, str):
            raise InputError(f"node path must be a string, got {_shown(repr(self.path))}")
        if not set(self.path) <= _BITS:
            raise InputError(f"node path must consist of 0/1 bits, got {_shown(repr(self.path))}")

    @classmethod
    def _of(cls, path: str) -> Node:
        """A node on a bit string the engine took from other nodes' paths,
        so it is not checked again; outside input goes through __init__."""
        node = _new(cls)
        _set(node, "path", path)
        return node

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.path == other.path

    def __hash__(self) -> int:
        return hash(self.path)

    @property
    def depth(self) -> int:
        return len(self.path)

    def parent(self) -> Node | None:
        return Node(self.path[:-1]) if self.path else None

    def child(self, bit: int) -> Node:
        return Node(self.path + "01"[bit])

    def children(self) -> tuple[Node, Node]:
        return self.child(0), self.child(1)

    def sort_key(self) -> tuple[int, str]:
        """Canonical order: by depth, then lexicographic on bits."""
        return (len(self.path), self.path)

    def __repr__(self) -> str:
        return f"Node({self.path!r})"


ROOT = Node("")


def parse_node(text: str, max_depth: int = DEFAULT_MAX_DEPTH) -> Node:
    """Parse a node from its wire form (bit string, root = ""); Node rejects a non-string."""
    if isinstance(text, str) and len(text) > max_depth:
        raise InputError(f"node {_shown(repr(text))} exceeds max depth {max_depth}")
    return Node(text)


def leq(a: Node, b: Node) -> bool:
    """True iff a precedes b in the tree order (a's path is a prefix of b's)."""
    return b.path.startswith(a.path)


def comparable(a: Node, b: Node) -> bool:
    return leq(a, b) or leq(b, a)


@dataclass(frozen=True, slots=True, eq=False)
class Segment:
    """An order-convex chain [top, bottom], stored by its endpoints.

    A slotted value like Node: two Segments are equal iff their ends
    are, and a Segment hashes as the pair of its end paths. The engine
    gives a one-node segment one Node as both ends.
    """

    top: Node
    bottom: Node

    def __post_init__(self) -> None:
        if not leq(self.top, self.bottom):
            raise DomainError(
                "segment endpoints out of order: "
                f"{_shown(repr(self.top.path))} !<= {_shown(repr(self.bottom.path))}"
            )

    @classmethod
    def _of(cls, top: Node, bottom: Node) -> Segment:
        """A segment whose top the engine knows to be at or above its
        bottom, so it is not checked again."""
        seg = _new(cls)
        _set(seg, "top", top)
        _set(seg, "bottom", bottom)
        return seg

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.top.path == other.top.path and self.bottom.path == other.bottom.path

    def __hash__(self) -> int:
        return hash((self.top.path, self.bottom.path))

    def __contains__(self, node: Node) -> bool:
        return leq(self.top, node) and leq(node, self.bottom)

    def __len__(self) -> int:
        return self.bottom.depth - self.top.depth + 1

    def members(self) -> list[Node]:
        """The chain from top to bottom inclusive, in increasing depth order."""
        b = self.bottom.path
        return [Node(b[:k]) for k in range(self.top.depth, self.bottom.depth + 1)]

    def sort_key(self) -> tuple[int, str, int, str]:
        t, b = self.top.path, self.bottom.path
        return len(t), t, len(b), b

    def __repr__(self) -> str:
        return f"Segment({self.top.path!r}, {self.bottom.path!r})"


def singleton(node: Node) -> Segment:
    return Segment(node, node)


def segments_disjoint(s1: Segment, s2: Segment) -> bool:
    """True iff the member chains do not intersect.

    Two chains meet iff each top lies above the other's bottom, so this
    is a pair of prefix tests on the endpoints.
    """
    return not (leq(s1.top, s2.bottom) and leq(s2.top, s1.bottom))


def canonical_order(nodes: Iterable[Node]) -> list[Node]:
    return sorted(nodes, key=Node.sort_key)


def range_paths(paths: Iterable[str]) -> frozenset[str]:
    """Paths of the smallest complete subtree containing the given paths.

    A node belongs to it iff it is a prefix of a member and has a member
    as a prefix. It is read off the skeleton of the paths (_expand).
    """
    return _expand(_forest(sorted(_skeleton(paths))))


def complete_closure(nodes: Iterable[Node]) -> frozenset[Node]:
    """Smallest complete subtree containing the given nodes."""
    return frozenset(Node(p) for p in range_paths(n.path for n in nodes))


def comparable_pairs(nodes: Iterable[Node]) -> list[tuple[Node, Node]]:
    """All strictly ordered pairs (u, v) with u < v, in canonical order."""
    ns = canonical_order(nodes)
    return [(u, v) for u in ns for v in ns if u != v and leq(u, v)]


def parent_child_pairs(nodes: Iterable[Node]) -> list[tuple[Node, Node]]:
    """Pairs (u, v) of the node set with v an immediate child of u, in canonical order."""
    ns = canonical_order(nodes)
    have = {n.path for n in ns}
    out = []
    for u in ns:
        for v in u.children():
            if v.path in have:
                out.append((u, v))
    return out


def minimal_nodes(nodes: Iterable[Node]) -> list[Node]:
    """Members with no strict ancestor in the set, in canonical order:
    the roots of the set's forest (_forest)."""
    return canonical_order(Node(p) for p in _forest(sorted({n.path for n in nodes})).roots)


class _Forest(NamedTuple):
    """A set of node paths, each linked to its nearest proper ancestor in the set.

    order lists the paths in lexicographic order, so each path follows
    its ancestors; kids maps a path to its nearest descendants in the
    set, bit-0 side first; up maps a path to its nearest proper ancestor
    in the set; roots are the paths without one.
    """

    order: list[str]
    kids: dict[str, list[str]]
    up: dict[str, str]
    roots: list[str]

    def without(self, cut: set[str]) -> _Forest:
        """The forest minus the paths in cut; no link is made across them,
        so a path whose nearest ancestor is cut becomes a root."""
        order = [p for p in self.order if p not in cut]
        up = {p: a for p, a in self.up.items() if p not in cut and a not in cut}
        kids = {p: [k for k in self.kids[p] if k not in cut] for p in order}
        return _Forest(order, kids, up, [p for p in order if p not in up])


def _forest(order: list[str]) -> _Forest:
    """Link lexicographically sorted, distinct node paths into a forest.

    A stack holds the ancestors of the current path among those already
    seen; after popping the ones that are no prefix of it, its top is
    the nearest. Every path between an ancestor a and p in sorted order
    has a as a prefix, so no ancestor of p is popped before p arrives.
    One pass costs O(n * depth) for n paths.
    """
    kids: dict[str, list[str]] = {p: [] for p in order}
    up: dict[str, str] = {}
    roots: list[str] = []
    stack: list[str] = []
    for p in order:
        while stack and not p.startswith(stack[-1]):
            stack.pop()
        if stack:
            up[p] = stack[-1]
            kids[stack[-1]].append(p)
        else:
            roots.append(p)
        stack.append(p)
    return _Forest(order, kids, up, roots)


def _skeleton(paths: Iterable[str]) -> set[str]:
    """The paths and every node of their range with two range children.

    In sorted order the paths of a subtree are contiguous, so a node
    with members below both children is the longest common prefix p
    of two neighbouring members a < b. That prefix is a itself when a
    is a prefix of b, and b's parent when the parent is a member.
    Otherwise p is kept when it lies in the range, that is when it
    starts with a's root, a's shallowest member prefix, so that a and b
    share a component. In the first two cases they share one too, and
    otherwise b is its component's first path and root. This is the
    unary-path compression of Patricia tries: at most 2n - 1 nodes for
    n members, however deep they lie, and the range is never built.
    """
    members = set(paths)
    order = sorted(members)
    kept = set(order)
    root = order[0] if order else ""
    for a, b in zip(order, order[1:]):
        if not b.startswith(a) and b[:-1] not in members:
            k = 0  # b does not start with a < b, so they differ before either ends
            while a[k] == b[k]:
                k += 1
            if len(root) <= k:  # p = a[:k] starts with root, a prefix of a
                kept.add(a[:k])
            else:
                root = b
    return kept


def _stretches(skel: _Forest) -> Iterator[tuple[str, str]]:
    """(v, d) for every range node v below a root of the skeleton forest,
    with d the skeleton node at or below v.

    The range nodes strictly between a skeleton node d and its nearest
    skeleton ancestor u lie off the skeleton, so each has one range
    child and no member: they and d form d's stretch, the nodes
    d[:k] for len(u) < k <= len(d). The range is the skeleton's roots
    and every v, each listed once.
    """
    for d, u in skel.up.items():
        for k in range(len(u) + 1, len(d) + 1):
            yield d[:k], d


def _expand(skel: _Forest) -> frozenset[str]:
    """The range of a skeleton forest: its roots and every stretch node."""
    return frozenset([*skel.roots, *(v for v, _ in _stretches(skel))])
