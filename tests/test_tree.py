"""Dyadic tree primitives.

Claims:
    - leq is the prefix order: reflexive, antisymmetric, transitive
    - segment members form the chain between the endpoints
    - endpoint disjointness test agrees with member-set intersection on
      every segment pair of the depth-5 tree
    - complete_closure is the minimal interval-closed superset,
      idempotent and monotone
    - range_paths, read off the skeleton, equals the all-pairs
      definition of the range on forests, sparse chains and full trees
      (hypothesis differential), on two roots below a zero node, on a
      branch node off the support and on a 600-level chain with twigs
    - comparable_pairs scans exactly the strictly ordered pairs
    - minimal_nodes, read off the forest's roots, equals the members with
      no strict ancestor in the set (hypothesis differential)
    - node errors echo a path of ordinary length whole, and a long one
      cut short with its length; a path that is not a string is an
      InputError, from Node and from parse_node
    - Node and Segment are slotted frozen values: a checked and a
      trusted (_of) build of one path or pair of ends are equal, hash
      alike and make one set member; equality with another type is
      NotImplemented and there is no order; assignment and del raise
      FrozenInstanceError and there is no __dict__; reprs keep their
      form; pickle and deepcopy round-trip Node, Segment, Partition and
      NormResult (hypothesis, paths to depth 12)
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest
from helpers import grid, range_all_pairs, support_paths
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtx import (
    DomainError,
    InputError,
    Node,
    NormResult,
    Partition,
    Segment,
    TreeVector,
    canonical_order,
    comparable_pairs,
    complete_closure,
    jt_norm_sq,
    leq,
    minimal_nodes,
    parent_child_pairs,
    parse_node,
    segments_disjoint,
    singleton,
)
from jtx.tree import range_paths


def _nodes(*paths: str) -> list[Node]:
    return [Node(p) for p in paths]


def _closure_by_iteration(nodes: set[Node]) -> frozenset[Node]:
    """Reference closure: add interval members until nothing changes."""
    out = set(nodes)
    changed = True
    while changed:
        changed = False
        for a in list(out):
            for b in list(out):
                if leq(a, b):
                    for member in Segment(a, b).members():
                        if member not in out:
                            out.add(member)
                            changed = True
    return frozenset(out)


class TestNode:
    def test_rejects_non_bits(self):
        with pytest.raises(InputError):
            Node("012")

    def test_parse_depth_cap(self):
        parse_node("0" * 30)
        with pytest.raises(InputError):
            parse_node("0" * 31)
        parse_node("0" * 31, max_depth=40)

    def test_ordinary_paths_echo_whole(self):
        with pytest.raises(InputError) as exc:
            Node("012")
        assert str(exc.value) == "node path must consist of 0/1 bits, got '012'"
        with pytest.raises(InputError) as exc:
            parse_node("0" * 31)
        assert str(exc.value) == f"node {'0' * 31!r} exceeds max depth 30"

    def test_long_paths_echo_cut_short(self):
        with pytest.raises(InputError) as exc:
            Node("2" * 100_000)
        assert str(exc.value) == (
            "node path must consist of 0/1 bits, got '" + "2" * 199 + "... (100002 characters)"
        )
        with pytest.raises(InputError) as exc:
            parse_node("0" * 100_000)
        assert str(exc.value) == (
            "node '" + "0" * 199 + "... (100002 characters) exceeds max depth 30"
        )

    @pytest.mark.parametrize(
        "path", [("0",), ["0"], 0, None, ("0",) * 100], ids=["tuple", "list", "int", "None", "long"]
    )
    def test_rejects_non_strings(self, path):
        shown = repr(path)
        if len(shown) > 200:
            shown = f"{shown[:200]}... ({len(shown)} characters)"
        for build in (Node, parse_node):
            with pytest.raises(InputError) as exc:
                build(path)
            assert str(exc.value) == f"node path must be a string, got {shown}"

    def test_repr(self):
        assert repr(Node("01")) == "Node('01')"
        assert repr(Node()) == "Node('')"

    def test_parent_child(self):
        n = Node("01")
        assert n.parent() == Node("0")
        assert Node("").parent() is None
        assert n.child(0) == Node("010")
        assert n.child(1) == Node("011")


class TestLeq:
    @pytest.mark.parametrize(
        "a, b, expected",
        [("", "01", True), ("0", "01", True), ("00", "01", False)],
    )
    def test_examples(self, a, b, expected):
        assert leq(Node(a), Node(b)) is expected

    def test_order_laws(self):
        rng = random.Random(1)
        sample = [Node(p) for p in grid(5) if rng.random() < 0.4]
        for a in sample:
            assert leq(a, a)
            for b in sample:
                if leq(a, b) and leq(b, a):
                    assert a == b
                for c in sample:
                    if leq(a, b) and leq(b, c):
                        assert leq(a, c)


class TestSegment:
    def test_members_examples(self):
        assert Segment(Node(""), Node("00")).members() == _nodes("", "0", "00")
        assert Segment(Node(""), Node("")).members() == _nodes("")
        assert Segment(Node("01"), Node("011")).members() == _nodes("01", "011")

    def test_length_and_singleton(self):
        seg = Segment(Node("0"), Node("0110"))
        assert len(seg) == len(seg.members()) == 4
        assert singleton(Node("01")) == Segment(Node("01"), Node("01"))
        assert len(singleton(Node(""))) == 1

    def test_invalid_endpoints(self):
        with pytest.raises(DomainError):
            Segment(Node("00"), Node("01"))

    def test_member_chain_shape(self):
        rng = random.Random(2)
        nodes = [Node(p) for p in grid(5)]
        for _ in range(200):
            a = rng.choice(nodes)
            b = Node(a.path + "".join(rng.choice("01") for _ in range(rng.randint(0, 4))))
            members = Segment(a, b).members()
            assert len(members) == b.depth - a.depth + 1
            for parent, child in zip(members, members[1:]):
                assert child.parent() == parent

    @pytest.mark.parametrize(
        "s1, s2, expected",
        [
            ((("", "00"), ("01", "01")), None, True),
            ((("", "0"), ("0", "00")), None, False),
            ((("00", "00"), ("01", "01")), None, True),
        ],
    )
    def test_disjoint_examples(self, s1, s2, expected):
        (t1, b1), (t2, b2) = s1
        seg1 = Segment(Node(t1), Node(b1))
        seg2 = Segment(Node(t2), Node(b2))
        assert segments_disjoint(seg1, seg2) is expected
        assert segments_disjoint(seg2, seg1) is expected

    def test_disjoint_matches_member_intersection_depth5(self):
        nodes = [Node(p) for p in grid(5)]
        segments = [
            Segment(a, b) for a in nodes for b in nodes if leq(a, b)
        ]
        for s1 in segments[::7]:  # stride keeps the quadratic scan quick
            m1 = set(s1.members())
            for s2 in segments:
                assert segments_disjoint(s1, s2) == (not (m1 & set(s2.members())))


class TestClosure:
    def test_examples(self):
        assert complete_closure(_nodes("", "00", "01")) == frozenset(
            _nodes("", "0", "00", "01")
        )
        assert complete_closure(_nodes("")) == frozenset(_nodes(""))
        assert complete_closure(_nodes("00", "01")) == frozenset(_nodes("00", "01"))

    def test_matches_iterated_closure(self):
        rng = random.Random(3)
        for _ in range(100):
            sample = {Node(p) for p in grid(4) if rng.random() < 0.25}
            assert complete_closure(sample) == _closure_by_iteration(sample)

    def test_idempotent_and_monotone(self):
        rng = random.Random(4)
        for _ in range(100):
            a = {Node(p) for p in grid(4) if rng.random() < 0.3}
            b = a | {Node(p) for p in grid(4) if rng.random() < 0.2}
            ca, cb = complete_closure(a), complete_closure(b)
            assert complete_closure(ca) == ca
            assert ca <= cb


# A 600-level chain with side branches: one forks above every chain
# member, so it roots a component of its own, and two fork inside
# support-free stretches, so branch nodes lie deep in the range.
_CHAIN = "0110" * 150
_CHAIN_WITH_TWIGS = [_CHAIN[:k] for k in (7, 150, 333, 600)] + [
    _CHAIN[:k] + "10"[int(_CHAIN[k])] + "01" for k in (5, 200, 420)
]


class TestRangePaths:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(support_paths(max_chain=40))
    @example(["00", "000", "01", "1", "100", "101"])  # three components
    @example(["00", "01"])  # two roots below a zero node
    @example(["", "00", "01"])  # "0" is a branch node off the support
    @example(_CHAIN_WITH_TWIGS)
    @example([""])
    @example([])
    def test_matches_all_pairs_definition(self, paths):
        expected = range_all_pairs(set(paths))
        assert range_paths(paths) == expected
        assert range_paths(reversed(sorted(paths))) == expected
        assert complete_closure(Node(p) for p in paths) == frozenset(
            Node(p) for p in expected
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.text("01", max_size=8), max_size=12))
    def test_matches_on_arbitrary_path_sets(self, paths):
        assert range_paths(paths) == range_all_pairs(set(paths))


class TestPairScans:
    def test_comparable_pairs_example(self):
        got = comparable_pairs(_nodes("", "0", "00", "01"))
        assert got == [
            (Node(""), Node("0")),
            (Node(""), Node("00")),
            (Node(""), Node("01")),
            (Node("0"), Node("00")),
            (Node("0"), Node("01")),
        ]

    def test_comparable_pairs_trivial(self):
        assert comparable_pairs(_nodes("")) == []
        assert comparable_pairs(_nodes("00", "01")) == []

    def test_parent_child_pairs(self):
        got = parent_child_pairs(_nodes("", "0", "00", "01"))
        assert got == [
            (Node(""), Node("0")),
            (Node("0"), Node("00")),
            (Node("0"), Node("01")),
        ]

    def test_minimal_nodes(self):
        assert minimal_nodes(_nodes("0", "00", "1")) == _nodes("0", "1")

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(support_paths())
    @example(["00", "01", "00"])
    @example(["", "0", "1"])
    def test_minimal_nodes_by_definition(self, paths):
        expected = [p for p in set(paths) if not any(p[:k] in paths for k in range(len(p)))]
        assert minimal_nodes(_nodes(*paths)) == canonical_order(_nodes(*expected))
        assert canonical_order(_nodes("1", "00", "", "0")) == _nodes("", "0", "1", "00")


PATHS = st.text("01", max_size=12)


@st.composite
def chains(draw) -> tuple[str, str]:
    """Ends (top, bottom) of a segment at most 12 levels deep, one-node
    segments (top == bottom) among them."""
    bottom = draw(PATHS)
    return bottom[: draw(st.integers(0, len(bottom)))], bottom


def _both_builds(top: str, bottom: str) -> tuple[Segment, Segment]:
    """The segment through the checked constructors, and through the
    trusted ones with one Node for both ends of a one-node segment."""
    head = Node._of(top)
    return Segment(Node(top), Node(bottom)), Segment._of(head, head if top == bottom else Node._of(bottom))


def _round_trips(value) -> None:
    """A pickled and a deep copy equal the value; a Node's or a Segment's
    copy also hashes and prints alike (a Partition's frozenset may list
    its segments in another order)."""
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value) and copied == value
        if isinstance(value, (Node, Segment)):
            assert hash(copied) == hash(value) and repr(copied) == repr(value)


class TestValueContract:
    """Node and Segment are slotted frozen dataclasses with their own
    __eq__ and __hash__; both builds must stay one value."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(PATHS)
    @example("")
    def test_node_builds_are_one_value(self, p):
        checked, trusted = Node(p), Node._of(p)
        assert checked == trusted and not checked != trusted
        assert hash(checked) == hash(trusted)
        assert len({checked, trusted}) == 1
        assert {checked: 1}[trusted] == 1
        assert repr(checked) == repr(trusted) == f"Node({p!r})"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(chains())
    @example(("", ""))
    @example(("0", "0110"))
    def test_segment_builds_are_one_value(self, ends):
        checked, trusted = _both_builds(*ends)
        assert checked == trusted and not checked != trusted
        assert hash(checked) == hash(trusted)
        assert len({checked, trusted}) == 1
        assert repr(checked) == repr(trusted) == f"Segment({ends[0]!r}, {ends[1]!r})"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(chains(), chains())
    def test_unequal_values_differ(self, ends, other):
        assert (Node(ends[1]) == Node(other[1])) is (ends[1] == other[1])
        assert (_both_builds(*ends)[0] == _both_builds(*other)[1]) is (ends == other)

    def test_other_types_are_not_implemented(self):
        node, seg = Node("0"), Segment(Node(""), Node("0"))
        assert node.__eq__("0") is NotImplemented
        assert seg.__eq__(("", "0")) is NotImplemented
        assert node.__eq__(seg) is NotImplemented and seg.__eq__(node) is NotImplemented
        assert node != "0" and seg != (node, node)
        for a, b in ((node, Node("1")), (seg, Segment(Node(""), Node("1")))):
            with pytest.raises(TypeError):
                a < b
            with pytest.raises(TypeError):
                a <= b

    @pytest.mark.parametrize("build", ["checked", "trusted"])
    def test_frozen_and_slotted(self, build):
        checked, trusted = _both_builds("0", "01")
        node = Node("0") if build == "checked" else Node._of("0")
        seg = checked if build == "checked" else trusted
        for value, field in ((node, "path"), (seg, "top"), (seg, "bottom")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, Node("1"))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, field)
            assert not hasattr(value, "__dict__")
        assert node.path == "0" and (seg.top.path, seg.bottom.path) == ("0", "01")

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(PATHS, min_size=1, max_size=6, unique=True), chains())
    def test_pickle_and_deepcopy(self, paths, ends):
        for value in (Node(ends[1]), Node._of(ends[1]), *_both_builds(*ends)):
            _round_trips(value)
        # all-positive entries take the heaviest-child walk, alternating signs the DP
        for sign in (1, -1):
            x = TreeVector.from_dict({p: sign ** i for i, p in enumerate(paths)})
            result = jt_norm_sq(x)
            assert isinstance(result, NormResult) and isinstance(result.witness, Partition)
            _round_trips(result.witness)
            _round_trips(result)
            copied = pickle.loads(pickle.dumps(result)).witness
            assert copied.sorted_segments() == result.witness.sorted_segments()
