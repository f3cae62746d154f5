"""Finite-support vectors on the dyadic tree with exact rational entries.

Zero entries are dropped at construction, all values are
`fractions.Fraction`, and vectors are immutable, so every downstream
decision (separation, tie detection, certificate checks) can rely on
exact equality. No floating point appears anywhere on a decision path.

SupportTree, the support as a forest with each node's maximal downward
segment sum, sits here, below norm.py and greedy.py: jt_norm_sq and
greedy_partition both walk it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping, Union

from .errors import InputError, PositivityError, _shown
from .tree import (
    DEFAULT_MAX_DEPTH,
    Node,
    Segment,
    _forest,
    complete_closure,
    leq,
    parse_node,
)

Rational = Fraction
RationalLike = Union[Fraction, int, str]


def parse_rational(value: RationalLike) -> Fraction:
    """Exact scalar from "p", "-p", "p/q", an exact decimal string, or an int.

    Exponent forms such as "1e50" are rejected: a few characters would
    otherwise denote an integer of any size. So are "_", a digit separator
    to Fraction on 3.11+ only, whitespace inside the value, which Fraction
    allows around "/" on 3.12+ only, and non-ASCII characters such as digits.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"rational values must be exact strings or ints, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value.lower():
            raise InputError(f"exponent forms are not accepted, got {_shown(repr(value))}")
        if "_" in value or not value.isascii() or len(value.split()) > 1:
            raise InputError(
                f"'_', inner whitespace and non-ASCII characters are not accepted, got {_shown(repr(value))}"
            )
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(
                f"cannot parse rational {_shown(repr(value))}: {_shown(str(exc))}"
            ) from None
    raise InputError(f"cannot parse rational from {type(value).__name__}")


def format_rational(q: Fraction | int) -> str:
    """"p" or "p/q"; a value past the interpreter's integer-to-text limit is an InputError."""
    try:
        return str(q)
    except ValueError:
        raise InputError(
            f"a result has more than {sys.get_int_max_str_digits()} digits to write out"
        ) from None


class TreeVector:
    """Immutable finite mapping Node -> nonzero rational."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Node, RationalLike]):
        cleaned: dict[Node, Fraction] = {}
        for node, raw in entries.items():
            if not isinstance(node, Node):
                raise InputError(f"vector keys must be Nodes, got {_shown(repr(node))}")
            value = parse_rational(raw)
            if value != 0:
                cleaned[node] = value
        object.__setattr__(self, "_entries", cleaned)

    @classmethod
    def _of(cls, entries: dict[Node, Fraction]) -> TreeVector:
        """A vector on entries already clean, Fraction values on Node keys as
        arithmetic derives them, so only zeros are dropped; outside input
        goes through __init__."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "_entries", {n: v for n, v in entries.items() if v})
        return vec

    @classmethod
    def from_dict(
        cls,
        entries: Mapping[Union[str, Node], RationalLike],
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> TreeVector:
        """Build from a {path or Node: rational-like} mapping."""
        coerced: dict[Node, RationalLike] = {}
        for key, value in entries.items():
            node = key if isinstance(key, Node) else parse_node(key, max_depth)
            if node in coerced:
                raise InputError(f"duplicate entry for node {_shown(repr(node.path))}")
            coerced[node] = value
        return cls(coerced)

    @classmethod
    def zero(cls) -> TreeVector:
        return cls({})

    @classmethod
    def unit(cls, node: Node, coeff: RationalLike = 1) -> TreeVector:
        return cls({node: coeff})

    def value(self, node: Node) -> Fraction:
        return self._entries.get(node, Fraction(0))

    def items(self) -> Iterator[tuple[Node, Fraction]]:
        """Entries in canonical node order."""
        for node in sorted(self._entries, key=Node.sort_key):
            yield node, self._entries[node]

    def support(self) -> frozenset[Node]:
        return frozenset(self._entries)

    def _scaled(self) -> tuple[dict[str, int], int]:
        """The entries by path as integers over their least common denominator,
        and that denominator; no Fraction arithmetic and no sort."""
        den = lcm(*(v.denominator for v in self._entries.values()))
        return {n.path: v.numerator * (den // v.denominator) for n, v in self._entries.items()}, den

    def range(self) -> frozenset[Node]:
        """Smallest complete subtree containing the support."""
        return complete_closure(self._entries)

    def l2_sq(self) -> Fraction:
        return sum((v * v for v in self._entries.values()), Fraction(0))

    def is_zero(self) -> bool:
        return not self._entries

    def is_positive(self) -> bool:
        """Entrywise x >= 0 (stored entries are nonzero; a Fraction's sign is its numerator's)."""
        return all(v.numerator > 0 for v in self._entries.values())

    def require_positive(self, op: str) -> None:
        if not self.is_positive():
            raise PositivityError(f"{op} is defined only for entrywise-positive vectors")

    def restrict(self, nodes: Iterable[Node]) -> TreeVector:
        """Entries whose node lies in the given finite set."""
        keep = set(nodes)
        return TreeVector._of({n: v for n, v in self._entries.items() if n in keep})

    def wedge(self, a: Node) -> TreeVector:
        """Restriction to the wedge rooted at a, by prefix test (wedges are infinite)."""
        return TreeVector._of({n: v for n, v in self._entries.items() if leq(a, n)})

    def segment_sum(self, s: Segment) -> Fraction:
        """Exact sum of the vector over the segment's members."""
        return sum((v for n, v in self._entries.items() if n in s), Fraction(0))

    def __add__(self, other: TreeVector) -> TreeVector:
        merged = dict(self._entries)
        for node, v in other._entries.items():
            merged[node] = merged.get(node, Fraction(0)) + v
        return TreeVector._of(merged)

    def __sub__(self, other: TreeVector) -> TreeVector:
        merged = dict(self._entries)
        for node, v in other._entries.items():
            merged[node] = merged.get(node, Fraction(0)) - v
        return TreeVector._of(merged)

    def scale(self, c: RationalLike) -> TreeVector:
        factor = parse_rational(c)
        return TreeVector._of({n: v * factor for n, v in self._entries.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        body = ", ".join(f"{n.path!r}: {v}" for n, v in self.items())
        return f"TreeVector({{{body}}})"


class SupportTree:
    """The support of a vector as a forest under the induced-child relation.

    S(n) is the maximal downward segment sum at support node n. _s maps
    each support path to S times _den, the entries' common denominator,
    and _forest links the support paths. Its kids lists are in
    lexicographic order, so a stable sort by length puts them in
    canonical order. The Node views nodes (canonical order), paths,
    parent, children, roots and s (s[n] is S(n)) are built on first read.

    The fill runs once per vector, bottom-up in reverse lexicographic
    order: S(p) = x(p) + max(0, S of p's induced children), with one
    max over the children's S, no generator per node.
    """

    def __init__(self, x: TreeVector):
        self._val, self._den = x._scaled()
        self._forest = _forest(sorted(self._val))
        val, kids = self._val, self._forest.kids
        s: dict[str, int] = {}
        # lexicographic order puts every path after its ancestors
        for p in reversed(self._forest.order):
            ks = kids[p]
            s[p] = val[p] + max(0, *map(s.__getitem__, ks)) if ks else val[p]
        self._s = s

    @cached_property
    def _node(self) -> dict[str, Node]:
        return {p: Node._of(p) for p in self._forest.order}

    @cached_property
    def nodes(self) -> list[Node]:
        return sorted(self._node.values(), key=Node.sort_key)

    @cached_property
    def paths(self) -> set[str]:
        return set(self._s)

    @cached_property
    def parent(self) -> dict[Node, Node | None]:
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

        One pass over the support paths with a as a prefix. S strictly
        decreases down every chain of a positive vector, so the maximum
        sits on a minimal support node of the wedge; when a is in the
        support, it is S(a).
        """
        a = a.path
        return Fraction(max((s for p, s in self._s.items() if p.startswith(a)), default=0), self._den)
