"""Norm engine: scoring, the DP, constraints, oracle, enumeration.

Claims:
    - score reproduces the worked squared sums and rejects overlaps
    - Partition raises iff some pair of its segments meets (exhaustive
      on small families, hypothesis on nested, overlapping and
      same-top families), and its message equals the nearest-top dict
      scan's, which names the first offender in canonical order, also
      with tops more than 500 levels deep (compared uncut too)
    - the DP equals the brute-force oracle on every tested instance
    - witnesses are canonical, score their own norm, satisfy constraints
    - up to two forced segments (zero endpoints and chains inside
      support-free stretches included) with up to two pairs inside, across
      or off them: solve and norm_sq equal the brute-force best over
      canonical families joined with the forced segments, and
      InfeasibleError is raised exactly when no family qualifies
    - separation gaps match the worked example and vanish on
      incomparable pairs
    - constraint sets shrink the constrained optimum monotonically; a
      SeparatePair of one node and an object that is no constraint each
      raise DomainError, which echoes a long object cut short
    - every library error that names a node path, a segment or a
      partition's overlapping pair echoes a 5,000-bit path cut short
    - restriction to a complete subtree never increases the norm
    - parent-child gaps, node isolation and every forced segment
      answered from the cached tables equal the constrained DP, and the
      score-only path equals solve(...).norm_sq (hypothesis differential
      suites); an endpoint outside ran(x) raises the constraint error
    - witness reconstruction runs at depths past the recursion limit
    - every Node, Segment and Partition the engine builds without the
      public checks (witnesses of solve, of constrained solves, of the
      positive walk and of greedy_partition, the nodes of the trace, of
      SupportTree and of both separation scans) equals its twin rebuilt
      through the public constructors, which raise on a bad value
    - support-free stretch nodes that share their child's open entries
      leave every answer as the DP that rebuilds each node gave it:
      norm, witness bytes, every gap and isolation gap, constrained
      solves with constraints on and just below stretches, and the key
      order, scores, closed best and closing key of every table under
      multi-pair constraint sets; that DP follows stored choices for its
      witness, so it referees the engine's replay of the offers
    - inside a support-free stretch, the gap above a node, the gap below
      it and its isolation gap are equal
    - the DP keeps tables exactly on the skeleton (support, branch nodes
      and the constraint nodes of a solve, less the nodes on forced
      segments, which the solve cuts out), each equal to the full-range
      DP's table at that node, also with both ends of a separation pair
      inside one stretch; a sparse 800-level chain with k support nodes
      costs at most 2k node visits
    - a gap between non-adjacent comparable nodes, the least parent-child
      gap on the path, equals the SeparatePair solve, and the all-pairs
      separation scan scores one cut per skeleton edge
    - outside(v) read from the top-down contexts equals the path re-visit
      it replaced at every skeleton node, and so do every parent-child
      gap, every isolation gap and the forced gaps of segments from
      three tops to every range node, whatever order the queries come in;
      a full separation scan makes one visit per skeleton node for the
      solve plus one per skeleton edge for the contexts
    - above the oracle cap, the segment-top referee, which scales the
      entries and builds the range on its own, gives the DP's norm on
      signed chains to depth 500 and full trees to depth 8, and every
      parent-child gap (public gap and separation scan), every isolation
      gap and the forced gaps of `_forced_segments` on small stretch
      inputs
    - every skeleton node below a root, leaves included, recomposes the
      squared norm from its table and its context: N is the best of
      closed(v) + outside(v) and of an open entry of v's table finished
      by an entry of above(v)
    - the solver builds ran(x) only when a query reads it: building,
      solve() and norm_sq() never expand the skeleton's stretches, the
      skeleton equals the support plus the range nodes with two range
      children, and ran, once read off the skeleton, is the range_paths
      frozenset and the range by definition; on several
      components in separate wedges and on 600-level chains with twigs,
      gap, forced_gap, isolation_gap and the constrained API raise the
      same DomainError for a node outside ran(x) before and after it is
      read
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from helpers import (
    SegmentTopReferee,
    chain_vector,
    grid,
    random_signed,
    range_all_pairs,
    support_paths,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jtx.tree
from jtx import (
    CapError,
    DomainError,
    EMPTY_PARTITION,
    ForceSegment,
    InfeasibleError,
    InvalidPartitionError,
    IsolateNode,
    JtxError,
    Node,
    NormSolver,
    Partition,
    ROOT,
    Segment,
    SeparatePair,
    SupportTree,
    TreeVector,
    comparable,
    comparable_pairs,
    complete_closure,
    constrained_norm_sq,
    enumerate_norming,
    forced_segment_is_norming,
    gap,
    greedy_partition,
    is_separated,
    isolatable_nodes,
    jt_norm_sq,
    leq,
    max_segment_sum,
    oracle_norm_sq,
    parent_child_pairs,
    perturbation_witness,
    recursive_norm_check,
    score,
    segments_disjoint,
)
from jtx.errors import _shown
from jtx.norm import _NO_SEP
from jtx.tree import range_paths
from jtx.wire import norm_result_doc


def _all_canonical_partitions(x: TreeVector):
    """Reference enumeration of every family of disjoint canonical segments."""
    supp = sorted(x.support(), key=Node.sort_key)
    segs = [Segment(a, b) for a in supp for b in supp if leq(a, b)]

    def rec(start: int, chosen: tuple):
        yield Partition(frozenset(chosen))
        for i in range(start, len(segs)):
            if all(segments_disjoint(segs[i], s) for s in chosen):
                yield from rec(i + 1, chosen + (segs[i],))

    yield from rec(0, ())


EX = TreeVector.from_dict({"": 1, "00": 1, "01": 1})
P1 = Partition.of(Segment(Node(""), Node("00")), Segment(Node("01"), Node("01")))
P2 = Partition.of(Segment(Node(""), Node("01")), Segment(Node("00"), Node("00")))
SINGLETONS = Partition.of(
    Segment(Node(""), Node("")),
    Segment(Node("00"), Node("00")),
    Segment(Node("01"), Node("01")),
)


class TestScore:
    def test_worked_example(self):
        assert score(EX, P1) == 5
        assert score(EX, P2) == 5
        assert score(EX, SINGLETONS) == 3
        assert score(EX, EMPTY_PARTITION) == 0

    def test_overlap_rejected(self):
        with pytest.raises(InvalidPartitionError):
            Partition.of(
                Segment(Node(""), Node("0")), Segment(Node("0"), Node("00"))
            )


def _some_pair_meets(segments) -> bool:
    """Reference: the pairwise disjointness scan Partition once ran."""
    segs = sorted(set(segments), key=Segment.sort_key)
    return any(
        not segments_disjoint(s1, s2) for i, s1 in enumerate(segs) for s2 in segs[i + 1 :]
    )


def _raises_invalid(segments) -> bool:
    try:
        Partition(frozenset(segments))
    except InvalidPartitionError:
        return True
    return False


@st.composite
def segment_families(draw) -> list[Segment]:
    """Up to 6 segments of a depth-5 tree: nested, overlapping or sharing tops."""
    segs = []
    for _ in range(draw(st.integers(0, 6))):
        top = draw(st.text("01", max_size=3))
        if segs and draw(st.booleans()):
            top = draw(st.sampled_from(segs)).top.path  # a shared top
        bottom = top + draw(st.text("01", max_size=2))
        segs.append(Segment(Node(top), Node(bottom)))
    return segs


@st.composite
def deep_segment_families(draw) -> list[Segment]:
    """Up to 8 segments with tops 500 to 520 levels deep, on two branches
    that part at depth 505: nested, overlapping or sharing tops."""
    stem = "01" * 253
    branches = [stem[:505] + "0" * 20, stem[:505] + "1" * 20]
    segs = []
    for _ in range(draw(st.integers(0, 8))):
        branch = draw(st.sampled_from(branches))
        top = branch[: draw(st.integers(500, 520))]
        if segs and draw(st.booleans()):
            top = draw(st.sampled_from(segs)).top.path  # a shared top
        bottom = top + draw(st.text("01", max_size=3))
        segs.append(Segment(Node(top), Node(bottom)))
    return segs


def _by_top_scan_message(segments, shown=_shown) -> str | None:
    """Reference: the overlap report of the nearest-top scan Partition
    once ran, which looked each top's prefixes up in a dict, in
    canonical order, each segment echoed through shown; None when no
    segments meet."""
    by_top: dict[str, Segment] = {}
    for seg in sorted(set(segments), key=Segment.sort_key):
        t = seg.top.path
        nearest = next((by_top[t[:k]] for k in range(len(t), -1, -1) if t[:k] in by_top), None)
        if nearest is not None and leq(seg.top, nearest.bottom):
            return f"segments overlap: {shown(repr(nearest))} and {shown(repr(seg))}"
        by_top[t] = seg
    return None


def _overlap_message(segments) -> str | None:
    try:
        Partition(frozenset(segments))
    except InvalidPartitionError as exc:
        return str(exc)
    return None


def _uncut(text: str) -> str:
    return text


class TestPartitionValidation:
    def test_all_families_of_up_to_three_segments_depth2(self):
        nodes = [Node(p) for p in grid(2)]
        segments = [Segment(a, b) for a in nodes for b in nodes if leq(a, b)]
        outcomes = set()
        for k in range(4):
            for family in itertools.combinations(segments, k):
                expected = _some_pair_meets(family)
                assert _raises_invalid(family) == expected, family
                outcomes.add(expected)
        assert outcomes == {True, False}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(segment_families())
    @example([Segment(Node(""), Node("000")), Segment(Node("00"), Node("00"))])
    @example([Segment(Node("0"), Node("00")), Segment(Node("0"), Node("01"))])
    # [00, 00]'s nearest higher top is 0, whose segment misses 00; the
    # overlap with [, 000] shows at the top 0
    @example([Segment(Node(""), Node("000")), Segment(Node("0"), Node("0")),
              Segment(Node("00"), Node("00"))])
    @example([Segment(Node(""), Node("")), Segment(Node("0"), Node("00")),
              Segment(Node("000"), Node("0001")), Segment(Node("00"), Node("00"))])
    def test_raises_iff_some_pair_meets(self, segments):
        assert _raises_invalid(segments) == _some_pair_meets(segments)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(segment_families(), deep_segment_families()))
    # the first overlap in lexicographic order of tops is [0, 00] with
    # [00, 000], but [1, 1] and [1, 10] come first in canonical order
    @example([Segment(Node("0"), Node("00")), Segment(Node("00"), Node("000")),
              Segment(Node("1"), Node("1")), Segment(Node("1"), Node("10"))])
    @example([Segment(Node("0"), Node("0")), Segment(Node("0"), Node("00")),
              Segment(Node("0"), Node("01"))])
    def test_message_names_the_first_overlap_in_canonical_order(self, segments):
        assert _overlap_message(segments) == _by_top_scan_message(segments)
        # segments 500 levels deep share the first 200 characters that an
        # echo keeps, so the pair named is compared uncut as well
        with mock.patch("jtx.norm._shown", _uncut):
            assert _overlap_message(segments) == _by_top_scan_message(segments, _uncut)


class TestJtNormSq:
    def test_worked_example(self):
        res = jt_norm_sq(EX)
        assert res.norm_sq == 5
        assert res.witness in (P1, P2)

    def test_zero_vector(self):
        res = jt_norm_sq(TreeVector.zero())
        assert res.norm_sq == 0
        assert res.witness == EMPTY_PARTITION

    def test_two_chain(self):
        # brute force over the 5 canonical families of a 2-chain gives 4
        x = TreeVector.from_dict({"": 1, "0": 1})
        res = jt_norm_sq(x)
        assert res.norm_sq == 4 == oracle_norm_sq(x)
        assert res.witness == Partition.of(Segment(Node(""), Node("0")))

    def test_root_with_two_children(self):
        x = TreeVector.from_dict({"": 1, "0": 1, "1": 1})
        assert jt_norm_sq(x).norm_sq == 5 == oracle_norm_sq(x)

    def test_witness_is_deterministic(self):
        a = jt_norm_sq(EX)
        b = jt_norm_sq(EX)
        assert a.witness == b.witness == P1  # tie broken toward bit 0

    def test_zero_sum_segments_omitted_from_witness(self):
        x = TreeVector.from_dict({"": 1, "0": -1})
        res = jt_norm_sq(x)
        assert res.norm_sq == 2
        assert res.witness == Partition.of(
            Segment(Node(""), Node("")), Segment(Node("0"), Node("0"))
        )


class TestConstrained:
    def test_separate_worked_pairs(self):
        root, zero = Node(""), Node("0")
        assert constrained_norm_sq(EX, {SeparatePair(root, zero)}).norm_sq == 3
        assert constrained_norm_sq(EX, {SeparatePair(root, Node("00"))}).norm_sq == 5

    def test_isolate_single_node(self):
        x = TreeVector.from_dict({"": 1})
        assert constrained_norm_sq(x, {IsolateNode(Node(""))}).norm_sq == 1

    def test_witness_satisfies_constraints(self):
        cs = {SeparatePair(Node(""), Node("0")), IsolateNode(Node("00"))}
        res = constrained_norm_sq(EX, cs)
        assert score(EX, res.witness) == res.norm_sq
        assert Segment(Node("00"), Node("00")) in res.witness.segments
        for seg in res.witness:
            assert not (Node("") in seg and Node("0") in seg)

    def test_forced_segment_kept_verbatim(self):
        seg = Segment(Node("0"), Node("0"))  # not canonical: node outside supp
        res = constrained_norm_sq(EX, {ForceSegment(seg)})
        assert res.norm_sq == 3
        assert seg in res.witness.segments

    def test_infeasible_conflict(self):
        with pytest.raises(InfeasibleError):
            constrained_norm_sq(
                EX,
                {
                    ForceSegment(Segment(Node(""), Node("0"))),
                    SeparatePair(Node(""), Node("0")),
                },
            )

    def test_overlapping_forced_segments(self):
        with pytest.raises(InfeasibleError):
            constrained_norm_sq(
                EX,
                {
                    ForceSegment(Segment(Node(""), Node("0"))),
                    IsolateNode(Node("0")),
                },
            )
        # the overlapping pair is not adjacent in canonical order: [0, 0] sits between
        with pytest.raises(InfeasibleError):
            constrained_norm_sq(
                TreeVector.from_dict({"": 1, "0": 1, "10": 1}),
                [
                    ForceSegment(Segment(Node(""), Node("10"))),
                    ForceSegment(Segment(Node("1"), Node("1"))),
                    ForceSegment(Segment(Node("0"), Node("0"))),
                ],
            )

    def test_constraint_outside_range(self):
        with pytest.raises(DomainError):
            constrained_norm_sq(EX, {IsolateNode(Node("11"))})

    def test_separate_pair_needs_two_nodes(self):
        with pytest.raises(DomainError, match="^SeparatePair requires two distinct nodes$"):
            constrained_norm_sq(EX, {SeparatePair(Node("0"), Node("0"))})

    def test_unknown_constraint_rejected(self):
        with pytest.raises(DomainError, match="^unknown constraint "):
            constrained_norm_sq(EX, [Segment(Node(""), Node("0"))])

    def test_long_unknown_constraint_is_cut_short(self):
        with pytest.raises(DomainError) as exc:
            constrained_norm_sq(EX, ["x" * 5000])
        assert str(exc.value) == "unknown constraint '" + "x" * 199 + "... (5002 characters)"

    def test_monotone_in_constraint_sets(self):
        rng = random.Random(20)
        for _ in range(60):
            x = random_signed(rng, max_depth=3, max_ran=9)
            pairs = comparable_pairs(x.range())
            if len(pairs) < 2:
                continue
            c1 = {SeparatePair(*rng.choice(pairs))}
            c2 = c1 | {SeparatePair(*rng.choice(pairs))}
            assert (
                constrained_norm_sq(x, c1).norm_sq
                >= constrained_norm_sq(x, c2).norm_sq
            )

    def test_separate_pair_matches_filtered_brute_force(self):
        rng = random.Random(26)
        for _ in range(60):
            x = random_signed(rng, max_depth=3, max_ran=9)
            pairs = comparable_pairs(x.range())
            if not pairs:
                continue
            u, v = rng.choice(pairs)
            best = max(
                (
                    score(x, p)
                    for p in _all_canonical_partitions(x)
                    if not any(u in s and v in s for s in p.segments)
                ),
                default=Fraction(0),
            )
            assert constrained_norm_sq(x, {SeparatePair(u, v)}).norm_sq == best

    def test_isolate_matches_filtered_brute_force(self):
        rng = random.Random(27)
        for _ in range(40):
            x = random_signed(rng, max_depth=3, max_ran=9)
            a = rng.choice(sorted(x.range(), key=Node.sort_key))
            single = Segment(a, a)
            best = max(
                (
                    score(x, p)
                    for p in _all_canonical_partitions(x)
                    if all(a not in s or s == single for s in p.segments)
                    and (a not in x.support() or single in p.segments)
                ),
                default=Fraction(0),
            )
            # when a is outside the support the forced singleton adds 0,
            # so the optimum equals the best family keeping a uncovered
            assert constrained_norm_sq(x, {IsolateNode(a)}).norm_sq == best

    def test_force_segment_matches_filtered_brute_force(self):
        # endpoints drawn from ran(x), so forced segments may be
        # non-canonical (zero endpoints) and must be kept verbatim
        rng = random.Random(28)
        for _ in range(60):
            x = random_signed(rng, max_depth=3, max_ran=9)
            ran = sorted(x.range(), key=Node.sort_key)
            a = rng.choice(ran)
            below = [b for b in ran if leq(a, b)]
            seg = Segment(a, rng.choice(below))
            forced_part = x.segment_sum(seg) ** 2
            best = max(
                (
                    score(x, p) + forced_part
                    for p in _all_canonical_partitions(x)
                    if all(segments_disjoint(s, seg) for s in p.segments)
                ),
                default=forced_part,
            )
            res = constrained_norm_sq(x, {ForceSegment(seg)})
            assert res.norm_sq == best
            assert seg in res.witness.segments

    def test_multiple_separate_pairs_match_filtered_brute_force(self):
        # several pair masks live in the DP state at once
        rng = random.Random(29)
        for _ in range(50):
            x = random_signed(rng, max_depth=3, max_ran=9)
            pairs = comparable_pairs(x.range())
            if len(pairs) < 2:
                continue
            chosen = [rng.choice(pairs) for _ in range(rng.randint(2, 4))]
            cs = {SeparatePair(u, v) for u, v in chosen}
            best = max(
                (
                    score(x, p)
                    for p in _all_canonical_partitions(x)
                    if all(
                        not any(u in s and v in s for s in p.segments)
                        for u, v in chosen
                    )
                ),
                default=Fraction(0),
            )
            res = constrained_norm_sq(x, cs)
            assert res.norm_sq == best
            for u, v in chosen:
                assert not any(u in s and v in s for s in res.witness.segments)

    def test_mixed_constraints_match_filtered_brute_force(self):
        rng = random.Random(30)
        tested = 0
        for _ in range(80):
            x = random_signed(rng, max_depth=3, max_ran=9)
            pairs = comparable_pairs(x.range())
            supp = sorted(x.support(), key=Node.sort_key)
            if not pairs or len(supp) < 2:
                continue
            u, v = rng.choice(pairs)
            iso = rng.choice(supp)
            single = Segment(iso, iso)
            best = max(
                (
                    score(x, p)
                    for p in _all_canonical_partitions(x)
                    if single in p.segments
                    and all(s == single or iso not in s for s in p.segments)
                    and not any(u in s and v in s for s in p.segments)
                ),
                default=None,
            )
            cs = {SeparatePair(u, v), IsolateNode(iso)}
            if best is None:
                with pytest.raises(InfeasibleError):
                    constrained_norm_sq(x, cs)
                continue
            tested += 1
            assert constrained_norm_sq(x, cs).norm_sq == best
        assert tested >= 30


def _brute_force_best(x: TreeVector, forced, pairs):
    """Best score over canonical families joined with the forced segments
    that stay disjoint and separate every pair; None when none does."""
    best = None
    for p in _all_canonical_partitions(x):
        family = set(p.segments) | set(forced)
        if any(not segments_disjoint(a, b) for a, b in itertools.combinations(family, 2)):
            continue
        if any(u in s and v in s for s in family for u, v in pairs):
            continue
        total = sum((x.segment_sum(s) ** 2 for s in family), Fraction(0))
        best = total if best is None else max(best, total)
    return best


def _draw_pair(rng: random.Random, ran: list[Node], forced: list[Segment]):
    """A comparable pair with one node inside a forced segment, both inside,
    one above and one below it, or anywhere; returns (kind, pair) or None."""
    kind = rng.choice(["one", "both", "straddle", "straddle", "any"]) if forced else "any"
    if kind == "any":
        candidates = comparable_pairs(ran)
    elif kind == "one":
        candidates = [(u, v) for seg in forced for u in ran for v in ran
                      if u in seg and v not in seg and comparable(u, v)]
    elif kind == "both":
        candidates = [(u, v) for seg in forced for u in ran for v in ran
                      if u != v and u in seg and v in seg]
    else:
        candidates = [(u, v) for seg in forced for u in ran for v in ran
                      if leq(u, seg.top) and u != seg.top and leq(seg.bottom, v)
                      and v != seg.bottom]
    return (kind, rng.choice(candidates)) if candidates else None


# A node path far deeper than any parsed input: an error that echoed it
# whole would run past 5,000 characters.
LONG = "0" * 5000
ONE = TreeVector.from_dict({"": 1})

# Each raises an error that names LONG, or a segment that holds it.
_LONG_PATH_ERRORS = {
    "gap": lambda: NormSolver(ONE).gap(ROOT, Node(LONG)),
    "isolate-node": lambda: NormSolver(ONE).solve((IsolateNode(Node(LONG)),)),
    "forced-gap": lambda: NormSolver(ONE).forced_gap(Segment(ROOT, Node(LONG))),
    "not-a-child": lambda: perturbation_witness(ONE, ROOT, Node(LONG)),
    "separable": lambda: perturbation_witness(
        TreeVector.from_dict({LONG[:-1]: 1, LONG: -1}, max_depth=5000), Node(LONG[:-1]), Node(LONG)
    ),
    "max-segment-sum": lambda: max_segment_sum(ONE, Node(LONG)),
    "recursive-norm-check": lambda: recursive_norm_check(ONE, Node(LONG)),
    "forced-segment-head": lambda: forced_segment_is_norming(ONE, Segment(Node(LONG), Node(LONG))),
    "segment-order": lambda: Segment(Node(LONG), ROOT),
    "partition-overlap": lambda: Partition.of(Segment(ROOT, Node(LONG)), Segment(Node(LONG), Node(LONG))),
    "duplicate-entry": lambda: TreeVector.from_dict({LONG: 1, Node(LONG): 2}, max_depth=5000),
}


@pytest.mark.parametrize("raise_it", _LONG_PATH_ERRORS.values(), ids=_LONG_PATH_ERRORS.keys())
def test_long_paths_echo_cut_short(raise_it):
    with pytest.raises(JtxError) as exc:
        raise_it()
    message = str(exc.value)
    assert len(message) < 1000 and " characters)" in message


class TestForcedSegmentsAgainstBruteForce:
    """An independent referee for the forced-segment cut: brute force over
    canonical families, with no DP state shared."""

    def test_forced_segments_and_pairs_match_brute_force(self):
        rng = random.Random(31)
        seen: Counter[str] = Counter()
        for _ in range(200):
            x = random_signed(rng, max_depth=3, max_ran=9) if rng.random() < 0.5 else (
                chain_vector(rng, max_depth=8))
            ran = sorted(x.range(), key=Node.sort_key)
            forced = []
            for _ in range(rng.randint(1, 2)):
                top = rng.choice(ran)
                below = [b for b in ran if leq(top, b) and b != top]
                bottom = rng.choice(below) if below and rng.random() < 0.7 else top
                forced.append(Segment(top, bottom))
            drawn = [_draw_pair(rng, ran, forced) for _ in range(rng.randint(0, 2))]
            drawn = [d for d in drawn if d]
            pairs = [pair for _, pair in drawn]
            seen.update(kind for kind, _ in drawn)
            for seg in forced:
                on = [n for n in ran if n in seg]
                seen["zero end"] += x.value(seg.top) == 0 or x.value(seg.bottom) == 0
                seen["support-free"] += all(x.value(n) == 0 for n in on)
            constraints = [ForceSegment(seg) for seg in forced]
            constraints += [SeparatePair(u, v) for u, v in pairs]
            best = _brute_force_best(x, forced, pairs)
            if best is None:
                seen["infeasible"] += 1
                with pytest.raises(InfeasibleError):
                    NormSolver(x).solve(constraints)
                with pytest.raises(InfeasibleError):
                    NormSolver(x).norm_sq(constraints)
                continue
            res = NormSolver(x).solve(constraints)
            assert res.norm_sq == best == NormSolver(x).norm_sq(constraints)
            assert score(x, res.witness) == best
            for seg in forced:
                assert seg in res.witness.segments
            for u, v in pairs:
                assert not any(u in s and v in s for s in res.witness.segments)
        assert min(seen[k] for k in ("one", "both", "straddle", "any", "infeasible")) >= 10, seen
        assert seen["zero end"] >= 20 and seen["support-free"] >= 5, seen


class TestGap:
    def test_worked_example(self):
        assert gap(EX, Node(""), Node("0")) == 2
        assert gap(EX, Node(""), Node("01")) == 0
        assert gap(EX, Node("00"), Node("01")) == 0

    def test_errors(self):
        with pytest.raises(DomainError):
            gap(EX, Node(""), Node(""))
        with pytest.raises(DomainError):
            gap(EX, Node(""), Node("111"))

    def test_incomparable_pairs_have_zero_gap(self):
        rng = random.Random(21)
        for _ in range(40):
            x = random_signed(rng, max_depth=3, max_ran=9)
            for u, v in [
                (a, b)
                for a in x.range()
                for b in x.range()
                if a != b and not comparable(a, b)
            ][:5]:
                assert gap(x, u, v) == 0


class TestOracle:
    def test_worked_example(self):
        assert oracle_norm_sq(EX) == 5

    def test_two_chain_families(self):
        assert oracle_norm_sq(TreeVector.from_dict({"": 1, "0": 1})) == 4

    def test_zero_vector(self):
        assert oracle_norm_sq(TreeVector.zero()) == 0

    def test_cap(self):
        x = TreeVector.from_dict({p: 1 for p in grid(3)})  # |ran| = 15
        with pytest.raises(CapError):
            oracle_norm_sq(x)
        assert oracle_norm_sq(x, cap=15) == jt_norm_sq(x).norm_sq

    def test_dp_matches_oracle_randomly(self):
        rng = random.Random(22)
        for _ in range(120):
            x = random_signed(rng)
            res = jt_norm_sq(x)
            assert res.norm_sq == oracle_norm_sq(x)
            assert score(x, res.witness) == res.norm_sq
            assert x.l2_sq() <= res.norm_sq
            supp = x.support()
            for seg in res.witness:
                assert seg.top in supp and seg.bottom in supp

    def test_l2_equality_iff_singletons_norming(self):
        rng = random.Random(23)
        for _ in range(60):
            x = random_signed(rng, max_depth=3, max_ran=9)
            singles = Partition.of(*(Segment(n, n) for n in x.support()))
            norm_sq = jt_norm_sq(x).norm_sq
            assert (x.l2_sq() == norm_sq) == (score(x, singles) == norm_sq)


class TestEnumerate:
    def test_worked_example_exactly_two(self):
        assert enumerate_norming(EX) == {P1, P2}

    def test_single_node(self):
        x = TreeVector.from_dict({"": 1})
        assert enumerate_norming(x) == {Partition.of(Segment(Node(""), Node("")))}

    def test_two_chain(self):
        x = TreeVector.from_dict({"": 1, "0": 1})
        assert enumerate_norming(x) == {Partition.of(Segment(Node(""), Node("0")))}

    def test_zero_vector(self):
        assert enumerate_norming(TreeVector.zero()) == {EMPTY_PARTITION}

    def test_every_member_scores_the_norm(self):
        rng = random.Random(24)
        for _ in range(40):
            x = random_signed(rng, max_depth=3, max_ran=9)
            norm_sq = jt_norm_sq(x).norm_sq
            partitions = enumerate_norming(x)
            assert partitions
            for p in partitions:
                assert score(x, p) == norm_sq


class TestRestrictionLemma:
    def test_complete_subtree_never_increases_norm(self):
        rng = random.Random(25)
        for _ in range(80):
            x = random_signed(rng)
            ran = list(x.range())
            sub = complete_closure(n for n in ran if rng.random() < 0.6)
            assert jt_norm_sq(x.restrict(sub)).norm_sq <= jt_norm_sq(x).norm_sq


# -- differential suites: cached-table answers against the constrained DP ----

_DIFF = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def signed_vectors(draw) -> TreeVector:
    """Signed values on the supports of `support_paths`."""
    paths = draw(support_paths())
    den = draw(st.integers(1, 4))
    nonzero = st.integers(-3, 3).filter(bool)
    return TreeVector.from_dict({p: Fraction(draw(nonzero), den) for p in paths})


# three components rooted at "00", "01" and "1"; "10" is an interior zero
FOREST = TreeVector.from_dict({"00": 1, "000": -2, "01": 2, "1": 1, "100": 1, "101": 3})


class TestCutIdentity:
    @_DIFF
    @given(signed_vectors())
    @example(FOREST)
    @example(EX)
    def test_parent_child_gaps_match_constrained_dp(self, x):
        oracle = NormSolver(x)
        norm = oracle.solve().norm_sq
        solver = NormSolver(x)  # fresh: construction solves the DP, no gap is cached
        for u, v in parent_child_pairs(x.range()):
            expected = norm - oracle.solve((SeparatePair(u, v),)).norm_sq
            assert solver.gap(u, v) == expected
            assert solver.gap(v, u) == expected

    @_DIFF
    @given(signed_vectors())
    @example(FOREST)
    def test_isolation_matches_constrained_dp(self, x):
        oracle = NormSolver(x)
        norm = oracle.solve().norm_sq
        solver = NormSolver(x)
        for a in x.range():  # includes every component root and interior zero
            expected = norm - oracle.solve((IsolateNode(a),)).norm_sq
            assert solver.isolation_gap(a) == expected
        assert isolatable_nodes(x) == {
            a: oracle.solve((IsolateNode(a),)).norm_sq == norm for a in x.support()
        }

    @_DIFF
    @given(signed_vectors(), st.data())
    def test_score_only_matches_solve(self, x, data):
        ran = sorted(x.range(), key=Node.sort_key)
        pool = (
            [SeparatePair(u, v) for u in ran for v in ran if u != v and leq(u, v)]
            + [IsolateNode(a) for a in ran]
            + [ForceSegment(Segment(u, v)) for u in ran for v in ran if leq(u, v)]
        )
        for _ in range(4):
            constraints = data.draw(st.lists(st.sampled_from(pool), max_size=3))
            solver = NormSolver(x)
            try:
                expected = solver.solve(constraints).norm_sq
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    NormSolver(x).norm_sq(constraints)
                continue
            assert NormSolver(x).norm_sq(constraints) == expected
            assert solver.norm_sq(constraints) == expected

    @_DIFF
    @given(signed_vectors())
    @example(FOREST)
    @example(EX)
    def test_forced_segments_match_constrained_dp(self, x):
        oracle = NormSolver(x)
        norm = oracle.solve().norm_sq
        solver = NormSolver(x)
        ran = sorted(x.range(), key=Node.sort_key)
        for seg in (Segment(t, b) for t in ran for b in ran if leq(t, b)):
            expected = norm - oracle.solve((ForceSegment(seg),)).norm_sq
            assert solver.forced_gap(seg) == expected, seg

    def test_non_adjacent_gap_matches_constrained_dp(self):
        x = TreeVector.from_dict({"": 1, "0": -1, "00": 1, "001": 2})
        solver = NormSolver(x)
        for u, v in [(Node(""), Node("00")), (Node("001"), Node(""))]:
            assert solver.gap(u, v) == (
                solver.norm_sq() - solver.solve((SeparatePair(u, v),)).norm_sq
            )

    def test_isolation_outside_range(self):
        with pytest.raises(DomainError) as exc:
            NormSolver(EX).isolation_gap(Node("111"))
        assert str(exc.value) == "constraint node '111' lies outside ran(x)"

    def test_forced_segment_outside_range(self):
        x = TreeVector.from_dict({"": 1})
        with pytest.raises(DomainError) as exc:
            NormSolver(x).forced_gap(Segment(Node(""), Node("0")))
        assert str(exc.value) == "constraint node '0' lies outside ran(x)"


class TestDeepChains:
    def test_alternating_chain_of_depth_900_under_default_limit(self):
        depth = 900
        levels = range(0, depth + 1, 100)
        branch = "01" * (depth // 2)
        x = TreeVector.from_dict(
            {branch[:k]: (-1) ** i for i, k in enumerate(levels)}, max_depth=depth
        )
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            result = jt_norm_sq(x)
        finally:
            sys.setrecursionlimit(old)
        assert result.norm_sq == len(levels)
        assert result.witness == Partition(frozenset(Segment(n, n) for n in x.support()))


# -- stretch pass-through: differential against the DP that rebuilds every node --


class _ChoiceTable(tuple):
    """A table in the engine's shape, (done, opens, closed, closing), that
    also keeps the stored-choice table it came from (`old`) and its
    closed best's (score, closure choice) (`closure`)."""


_DONE = ("cdone",)


class _RebuildEveryNodeSolver(NormSolver):
    """The DP as it was before the skeleton, the stretch pass-through and
    the score-only tables, kept as the reference.

    Its forest is the whole range, read from the range's definition and
    not from the engine's skeleton, so every range node gets a table and
    rebuilds its open entries; masks are frozensets of pair indices, and
    keys sort by (open sum, sorted mask tuple). Each table stores the
    choice behind every entry, one of ("start", closures), ("ext", i,
    key, closures), ("done", closures), _DONE and ("cclose", key), and
    `_reconstruct` follows those choices, so it referees the engine's
    replay of the offers. It shares `_solve`, whose forest cut handles
    forced segments, so it does not check them:
    `test_forced_segments_and_pairs_match_brute_force` does.
    """

    def _skeleton(self):
        return set(range_all_pairs(self.supp))

    @staticmethod
    def _sorted_keys(opens):
        return sorted(opens, key=lambda k: (k[0], tuple(sorted(k[1]))))

    def _closed_best(self, c, old):
        """Best (score, closure choice) of c's subtree with no segment open
        into its parent; an open segment may close at c only when c is in
        the support."""
        (done, _), opens = old
        best = (done, _DONE)
        if c in self.supp:
            for key in self._sorted_keys(opens):
                cand = opens[key][0] + key[0] * key[0]
                if cand > best[0]:
                    best = (cand, ("cclose", key))
        return best

    def _visit(self, p, kids, tables, sep):
        kid_closed = [tables[c].closure for c in kids]
        xv = self.val.get(p, 0)
        start_mask = frozenset(sep.lower_at.get(p, ()))
        check_bits = frozenset(sep.upper_at.get(p, ()))
        all_closed = sum(kc[0] for kc in kid_closed)
        closures = tuple(kc[1] for kc in kid_closed)

        opens = {}

        def offer(key, entry):
            old = opens.get(key)
            if old is None or entry[0] > old[0]:
                opens[key] = entry

        if p in self.supp:
            offer((xv, start_mask), (all_closed, ("start", closures)))
        for i, c in enumerate(kids):
            rest = sum(kc[0] for j, kc in enumerate(kid_closed) if j != i)
            c_opens = tables[c].old[1]
            for key in self._sorted_keys(c_opens):
                s, mask = key
                if mask & check_bits:
                    continue
                new_key = (s + xv, mask | start_mask)
                offer(new_key, (c_opens[key][0] + rest, ("ext", i, key, closures)))
        old = ((all_closed, ("done", closures)), opens)
        closed, closure = self._closed_best(p, old)
        closing = None if closure == _DONE else closure[1]
        table = _ChoiceTable((all_closed, {k: e[0] for k, e in opens.items()}, closed, closing))
        table.old, table.closure = old, (closed, closure)
        return table

    def _reconstruct(self, forest, tables, sep):
        """Segments of the witness on the forest, following the stored choices."""
        segments, kids = [], forest.kids
        stack = [(root, tables[root].closure[1]) for root in forest.roots]

        def push(p, closures, climbed=-1):
            stack.extend(
                (c, cl) for i, (c, cl) in enumerate(zip(kids[p], closures)) if i != climbed
            )

        while stack:
            top, cl = stack.pop()
            if cl == _DONE:
                push(top, tables[top].old[0][1][1])
                continue
            p, k = top, cl[1]
            while True:
                choice = tables[p].old[1][k][1]
                if choice[0] == "start":
                    push(p, choice[1])
                    segments.append(Segment(Node(top), Node(p)))
                    break
                _, child_index, child_key, closures = choice
                push(p, closures, child_index)
                p = kids[p][child_index]
                k = child_key
        return segments


def _bits(depth: int):
    return st.integers(0, 2**depth - 1).map(lambda b: format(b, f"0{depth}b") if depth else "")


@st.composite
def stretch_vectors(draw) -> TreeVector:
    """Signed vectors whose ranges hold long support-free stretches.

    Sparse chains to depth 300, sparse trees of up to three long branches
    off a common trunk, and the forests and full trees of `support_paths`.
    """
    kind = draw(st.sampled_from(["chain", "tree", "small"]))
    if kind == "chain":
        branch = draw(st.one_of(st.integers(1, 30), st.integers(200, 300)).flatmap(_bits))
        levels = draw(st.sets(st.integers(0, len(branch)), min_size=1, max_size=6))
        paths = {branch[:k] for k in levels}
    elif kind == "tree":
        trunk = draw(st.integers(0, 40).flatmap(_bits))
        paths = {trunk} if draw(st.booleans()) else set()
        for _ in range(draw(st.integers(1, 3))):
            branch = trunk + draw(st.integers(1, 40).flatmap(_bits))
            levels = draw(
                st.sets(st.integers(len(trunk) + 1, len(branch)), min_size=1, max_size=3)
            )
            paths |= {branch[:k] for k in levels}
    else:
        paths = set(draw(support_paths()))
    den = draw(st.integers(1, 4))
    nonzero = st.integers(-3, 3).filter(bool)
    return TreeVector.from_dict(
        {p: Fraction(draw(nonzero), den) for p in sorted(paths)}, max_depth=400
    )


def _stretch_nodes(x: TreeVector) -> list[str]:
    """Range nodes outside the support with exactly one range child."""
    ran = {n.path for n in x.range()}
    supp = {n.path for n in x.support()}
    return sorted(
        (p for p in ran if p not in supp and (p + "0" in ran) != (p + "1" in ran)),
        key=lambda p: (len(p), p),
    )


def _targets(x: TreeVector) -> list[str]:
    """Stretch nodes and the range node just below each of them."""
    ran = {n.path for n in x.range()}
    stretch = _stretch_nodes(x)
    below = {c for p in stretch for c in (p + "0", p + "1") if c in ran}
    return sorted(set(stretch) | below, key=lambda p: (len(p), p))


@st.composite
def stretch_constraints(draw, x: TreeVector, kinds=("pair", "isolate", "force")):
    """One constraint with an endpoint or an interior node on a target node."""
    ran = sorted((n.path for n in x.range()), key=lambda p: (len(p), p))
    t = draw(st.sampled_from(_targets(x) or ran))
    above = [p for p in ran if t.startswith(p)]  # t itself included
    below = [p for p in ran if p.startswith(t)]
    kind = draw(st.sampled_from(kinds))
    others = [p for p in above + below if p != t]
    if kind == "pair" and others:
        return SeparatePair(Node(t), Node(draw(st.sampled_from(others))))
    if kind != "force":
        return IsolateNode(Node(t))
    role = draw(st.sampled_from(["top", "bottom", "interior"]))
    top = t if role == "top" else draw(st.sampled_from(above[:-1] or above))
    bottom = t if role == "bottom" else draw(st.sampled_from(below[1:] or below))
    return ForceSegment(Segment(Node(top), Node(bottom)))


def _doc(result) -> str:
    return json.dumps(norm_result_doc(result), sort_keys=True)


_STRETCH = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# A multi-pair set whose witness follows the sorted-tuple mask order: int
# bitmasks ({1} before {0, 2}) would break a tie toward another witness.
TUPLE_ORDER_WITNESS = (
    TreeVector.from_dict(
        {"": 2, "1": 1, "00": -2, "01": -1, "11": 2, "001": -1, "110": 2, "111": 2}
    ),
    [SeparatePair(Node(""), Node("11")), SeparatePair(Node("1"), Node("11")),
     SeparatePair(Node(""), Node("111"))],
)


def _validated(p: Partition) -> Partition:
    """p rebuilt through the public constructors, which check every value."""
    return Partition(frozenset(Segment(Node(s.top.path), Node(s.bottom.path)) for s in p.segments))


class TestTrustedValues:
    """Engine-built values skip the public checks (Node._of, Segment._of,
    Partition._of); each must equal its validated twin."""

    @_DIFF
    @given(stretch_vectors(), st.data())
    def test_engine_built_values_equal_validated_twins(self, x, data):
        solver = NormSolver(x)
        witnesses = [solver.solve().witness, jt_norm_sq(x).witness]
        try:
            witnesses.append(solver.solve([data.draw(stretch_constraints(x))]).witness)
        except InfeasibleError:
            pass
        positive = TreeVector({n: abs(v) for n, v in x.items()})
        witnesses.append(jt_norm_sq(positive).witness)
        nodes = list(SupportTree(positive).nodes)
        for policy in ("lex-min", "lex-max"):
            partition, trace = greedy_partition(positive, policy)
            witnesses.append(partition)
            nodes += [*trace.s_values, *(c for c in trace.chosen.values() if c is not None)]
            nodes += [c for ties in trace.tie_sets.values() for c in ties]
        for w in witnesses:
            assert _validated(w) == w
        reports = [is_separated(x)]
        if len(solver.ran) <= 40:
            reports.append(is_separated(x, all_pairs=True))
        nodes += [n for report in reports for pair in report.pair_gaps for n in pair]
        assert all(Node(n.path) == n for n in nodes)


class TestStretchPassThrough:
    """Support-free stretch nodes share their child's open entries.

    Each check runs the solver against `_RebuildEveryNodeSolver`, the DP
    that rebuilds every node's table with frozenset masks.
    """

    @_STRETCH
    @given(stretch_vectors())
    @example(FOREST)
    @example(TreeVector.from_dict({"": 1, "0101": -2, "0101100": 3}))
    def test_unconstrained_answers_match_reference(self, x):
        ref, solver = _RebuildEveryNodeSolver(x), NormSolver(x)
        assert _doc(solver.solve()) == _doc(ref.solve())
        ran = x.range()
        for u, v in parent_child_pairs(ran):
            assert solver.gap(u, v) == ref.gap(u, v)
        for a in ran:
            assert solver.isolation_gap(a) == ref.isolation_gap(a)

    @_STRETCH
    @given(stretch_vectors(), st.data())
    def test_constrained_solves_match_reference(self, x, data):
        for _ in range(3):
            constraints = data.draw(st.lists(stretch_constraints(x), min_size=1, max_size=3))
            try:
                expected = _doc(_RebuildEveryNodeSolver(x).solve(constraints))
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    constrained_norm_sq(x, constraints)
                continue
            assert _doc(constrained_norm_sq(x, constraints)) == expected

    # One case per condition of the rule: each input has a node that
    # meets all the other conditions and fails this one.
    @pytest.mark.parametrize(
        "entries, constraints",
        [
            ({"": 1, "00": 2, "01": -1}, []),  # two range children ("0")
            ({"": 1, "0": 2, "000": -1}, []),  # in the support ("0")
            ({"": 2, "000": 3}, [SeparatePair(Node(""), Node("00"))]),  # lower endpoint
            ({"": 2, "000": 3}, [SeparatePair(Node("0"), Node("000"))]),  # upper endpoint
            ({"": 2, "000": 3}, [ForceSegment(Segment(Node("0"), Node("00")))]),  # forced
            ({"": 3, "000": 2}, [ForceSegment(Segment(Node("00"), Node("000")))]),  # its child
        ],
    )
    def test_each_condition_of_the_rule(self, entries, constraints):
        x = TreeVector.from_dict(entries)
        expected = _RebuildEveryNodeSolver(x).solve(constraints)
        assert _doc(NormSolver(x).solve(constraints)) == _doc(expected)

    @_STRETCH
    @given(stretch_vectors(), st.data())
    def test_multi_pair_key_order_matches_reference(self, x, data):
        pairs = st.lists(stretch_constraints(x, kinds=("pair",)), min_size=2, max_size=4)
        _assert_tables_match(x, data.draw(pairs))

    def test_pinned_witness_follows_the_tuple_order(self):
        x, constraints = TUPLE_ORDER_WITNESS
        _assert_tables_match(x, constraints)
        witness = constrained_norm_sq(x, constraints).witness
        assert Segment(Node("11"), Node("111")) in witness.segments


def _skeleton_nodes(x: TreeVector, constraints=()) -> set[str]:
    """The support, every range node with two range children, and the
    nodes the constraints splice in: comparable pair endpoints and
    forced tops and bottoms; less every node on a forced segment, which
    the solve cuts out of its forest."""
    ran = {n.path for n in x.range()}
    nodes = {n.path for n in x.support()}
    nodes |= {p for p in ran if p + "0" in ran and p + "1" in ran}
    forced = []
    for c in constraints:
        if isinstance(c, SeparatePair) and (leq(c.u, c.v) or leq(c.v, c.u)):
            nodes |= {c.u.path, c.v.path}
        elif isinstance(c, IsolateNode):
            forced.append((c.node.path, c.node.path))
        elif isinstance(c, ForceSegment):
            forced.append((c.segment.top.path, c.segment.bottom.path))
    return {p for p in nodes if not any(b.startswith(p) and p.startswith(t) for t, b in forced)}


def _tuple_key(key):
    """A reference key with its frozenset mask as the engine's sorted tuple."""
    return None if key is None else (key[0], tuple(sorted(key[1])))


def _assert_tables_match(x: TreeVector, constraints) -> None:
    """The solve keeps a table exactly on its skeleton; each of them sorts
    its keys as the reference's table at that node does, with equal
    scores, the same closed best and the same closing key; and the
    witness documents are byte-equal."""
    ref, solver = _RebuildEveryNodeSolver(x), NormSolver(x)
    try:
        _, ref_tables = ref._solve(*ref._normalize(constraints))
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            constrained_norm_sq(x, constraints)
        return
    _, tables = solver._solve(*solver._normalize(constraints))
    assert tables.keys() <= ref_tables.keys()
    assert tables.keys() == _skeleton_nodes(x, constraints)
    for p, (done, opens, closed, closing) in tables.items():
        ref_done, ref_opens, ref_closed, ref_closing = ref_tables[p]
        assert (done, closed, closing) == (ref_done, ref_closed, _tuple_key(ref_closing))
        keys = sorted(opens)
        ref_keys = ref._sorted_keys(ref_opens)
        assert keys == [_tuple_key(k) for k in ref_keys]
        assert [opens[k] for k in keys] == [ref_opens[k] for k in ref_keys]
    assert _doc(constrained_norm_sq(x, constraints)) == _doc(ref.solve(constraints))


class TestStretchLaw:
    def test_gaps_and_isolation_agree_along_a_stretch(self):
        """Inside a support-free stretch, the gap above a node, the gap
        below it and its isolation gap are one number."""
        rng = random.Random(6)
        checked = 0
        for _ in range(300):
            depth = rng.randint(2, 60)
            branches = [
                format(rng.getrandbits(depth), f"0{depth}b") for _ in range(rng.randint(1, 3))
            ]
            paths = {b[:k] for b in branches for k in range(depth + 1) if rng.random() < 0.08}
            paths.add(branches[0])
            x = TreeVector.from_dict(
                {p: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                 for p in paths},
                max_depth=depth,
            )
            ran = {n.path for n in x.range()}
            solver = NormSolver(x)
            for p in _stretch_nodes(x):
                assert p and p[:-1] in ran  # a stretch node is never a component root
                (c,) = [c for c in (p + "0", p + "1") if c in ran]
                above = solver.gap(Node(p[:-1]), Node(p))
                assert solver.gap(Node(p), Node(c)) == above
                assert solver.isolation_gap(Node(p)) == above
                checked += 1
        assert checked >= 5000


# -- the skeleton: a pass visits only the support and the branch nodes --------


def _stretches(x: TreeVector) -> list[list[str]]:
    """Maximal runs of stretch nodes, each listed top down."""
    nodes = _stretch_nodes(x)
    stretch = set(nodes)
    return [
        [q for q in nodes if q.startswith(p) and all(q[:k] in stretch for k in range(len(p), len(q)))]
        for p in nodes
        if p[:-1] not in stretch
    ]


@st.composite
def pairs_in_one_stretch(draw, x: TreeVector):
    """A SeparatePair with both endpoints in one stretch, plus up to two
    constraints on or just below stretch nodes."""
    runs = [run for run in _stretches(x) if len(run) >= 2]
    if not runs:
        return [draw(stretch_constraints(x))]
    run = draw(st.sampled_from(runs))
    u, v = draw(st.lists(st.sampled_from(run), min_size=2, max_size=2, unique=True))
    return [SeparatePair(Node(u), Node(v))] + draw(
        st.lists(stretch_constraints(x), max_size=2)
    )


def _counting(monkeypatch, name: str) -> list[int]:
    """Count the calls of NormSolver.<name>; the list holds the count."""
    calls = [0]
    original = getattr(NormSolver, name)

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(NormSolver, name, counted)
    return calls


def _sparse_chain(depth: int, k: int) -> TreeVector:
    """k alternating entries spread over one branch of the given depth."""
    branch = "01" * (depth // 2)
    levels = [round(i * depth / (k - 1)) for i in range(k)]
    return TreeVector.from_dict(
        {branch[:lv]: (-1) ** i for i, lv in enumerate(levels)}, max_depth=depth
    )


class TestSkeleton:
    """The DP keeps tables only on the support, the branch nodes and the
    constraint nodes of a solve; each check runs against
    `_RebuildEveryNodeSolver`, whose forest is the whole range."""

    @_STRETCH
    @given(stretch_vectors(), st.data())
    def test_pairs_inside_one_stretch_match_reference(self, x, data):
        constraints = data.draw(pairs_in_one_stretch(x))
        _assert_tables_match(x, constraints)

    @_STRETCH
    @given(stretch_vectors(), st.data())
    def test_path_minimum_gap_matches_constrained_dp(self, x, data):
        """gap(u, v) for non-adjacent comparable u < v is the least
        parent-child gap on the path, and equals a SeparatePair solve."""
        ran = sorted(x.range(), key=Node.sort_key)
        pairs = [
            (u, v) for u, v in comparable_pairs(ran) if v.depth > u.depth + 1
        ]
        if not pairs:
            return
        drawn = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12))
        solver, ref = NormSolver(x), _RebuildEveryNodeSolver(x)
        norm = solver.norm_sq()
        for u, v in drawn:
            expected = norm - ref.solve((SeparatePair(u, v),)).norm_sq
            assert solver.gap(u, v) == expected
            assert solver.gap(v, u) == expected

    @pytest.mark.parametrize("k", [2, 5, 11, 40])
    def test_visits_stay_on_the_skeleton(self, k, monkeypatch):
        x = _sparse_chain(800, k)
        visits = _counting(monkeypatch, "_visit")
        NormSolver(x).solve()
        assert visits[0] <= 2 * k

    def test_all_pairs_scan_cuts_each_edge_once(self, monkeypatch):
        cuts = _counting(monkeypatch, "_outside")
        x6 = TreeVector.from_dict({p: 1 for p in grid(6)})
        report = is_separated(x6, all_pairs=True)
        assert len(report.pair_gaps) == 642
        assert cuts[0] == 126  # one per parent-child edge of the depth-6 tree
        cuts[0] = 0
        report = is_separated(_sparse_chain(200, 11), all_pairs=True)
        assert len(report.pair_gaps) == 200 * 201 // 2
        assert cuts[0] == 10  # one per stretch above a support node but the root


# -- top-down contexts: differential against the path re-visit --------------


class _PathRevisitSolver(NormSolver):
    """Cut queries as they were before the top-down contexts, kept as the
    reference.

    outside(v) re-visits v's nearest skeleton ancestor without v, then
    each skeleton ancestor up to the component root, against the cached
    tables of everything else.
    """

    def _outside(self, v):
        tables, kids, up = self._tables, self._skel.kids, self._skel.up
        child, table, p = v, None, up.get(v)
        while p is not None:
            if table is None:
                ks = [c for c in kids[p] if c != child]
            else:
                ks = kids[p]
            local = {c: table if c == child else tables[c] for c in ks}
            table = self._visit(p, ks, local, _NO_SEP)
            child, p = p, up.get(p)
        rest = self._total - self._tables[child][2]
        if table is None:
            return rest  # v is a component root
        return rest + table[2]


@st.composite
def dense_chains(draw) -> TreeVector:
    """Signed chains to depth 60 with most levels in the support, so the
    skeleton is nearly the whole chain and every cut sits below a long
    ancestor path; sometimes a second chain branches off it."""
    branch = draw(st.integers(10, 60).flatmap(_bits))
    paths = {branch[:k] for k in range(len(branch) + 1)}
    if draw(st.booleans()):
        fork = draw(st.integers(0, len(branch) - 1))
        side = branch[:fork] + ("1" if branch[fork] == "0" else "0")
        side += draw(st.integers(0, 20).flatmap(_bits))
        paths |= {side[:k] for k in range(fork + 1, len(side) + 1)}
    gaps = draw(st.sets(st.sampled_from(sorted(paths)), max_size=len(paths) // 8))
    den = draw(st.integers(1, 4))
    nonzero = st.integers(-3, 3).filter(bool)
    return TreeVector.from_dict(
        {p: Fraction(draw(nonzero), den) for p in sorted(paths - gaps)}, max_depth=400
    )


def _forced_segments(x: TreeVector) -> list[Segment]:
    """For each range node b, the segments to b from the top, the middle
    and the parent of its chain of range ancestors."""
    ran = {n.path for n in x.range()}
    segments = set()
    for b in ran:
        tops = [b[:k] for k in range(len(b)) if b[:k] in ran]
        if tops:  # b is not a component root
            for t in (tops[0], tops[len(tops) // 2], tops[-1]):
                segments.add(Segment(Node(t), Node(b)))
    return sorted(segments, key=Segment.sort_key)


def _assert_contexts_match(x: TreeVector, shuffled) -> None:
    """outside(v) at every skeleton node, every parent-child gap, every
    isolation gap and the forced gaps of `_forced_segments` equal the
    path re-visit's; each kind of query runs on a fresh solver in the
    order `shuffled` gives, so the lazy fills start from different
    memoised ancestors."""
    ref = _PathRevisitSolver(x)
    solver = NormSolver(x)
    for v in shuffled(solver._skel.order):
        assert solver._outside(v) == ref._outside(v)
    solver = NormSolver(x)
    for u, v in shuffled(parent_child_pairs(x.range())):
        assert solver.gap(u, v) == ref.gap(u, v)
    solver = NormSolver(x)
    for a in shuffled(sorted(x.range(), key=Node.sort_key)):
        assert solver.isolation_gap(a) == ref.isolation_gap(a)
    solver = NormSolver(x)
    for seg in shuffled(_forced_segments(x)):
        assert solver.forced_gap(seg) == ref.forced_gap(seg)


def _drawn_order(data):
    return lambda items: data.draw(st.permutations(items))


class TestContexts:
    """Cut queries read outside(v) from memoised top-down contexts; each
    check runs against `_PathRevisitSolver`."""

    @_DIFF
    @given(signed_vectors(), st.data())
    def test_signed_vectors_match_path_revisit(self, x, data):
        _assert_contexts_match(x, _drawn_order(data))

    @pytest.mark.parametrize("seed", range(4))
    def test_forest_matches_path_revisit(self, seed):
        rng = random.Random(seed)
        _assert_contexts_match(FOREST, lambda items: rng.sample(list(items), len(items)))

    @_STRETCH
    @given(stretch_vectors(), st.data())
    def test_stretch_vectors_match_path_revisit(self, x, data):
        _assert_contexts_match(x, _drawn_order(data))

    @_DIFF
    @given(dense_chains(), st.data())
    def test_dense_chains_match_path_revisit(self, x, data):
        _assert_contexts_match(x, _drawn_order(data))

    def test_separation_scan_visits_each_skeleton_edge_once(self, monkeypatch):
        visits = _counting(monkeypatch, "_visit")
        x6 = TreeVector.from_dict({p: 1 for p in grid(6)})
        assert is_separated(x6).separated
        assert visits[0] <= 253  # 127 for the solve, 126 for the contexts
        visits[0] = 0
        rng = random.Random(8)
        branch = format(rng.getrandbits(400), "0400b")
        chain = TreeVector.from_dict(
            {branch[:k]: rng.choice([-3, -2, -1, 1, 2, 3]) for k in range(401)},
            max_depth=400,
        )
        is_separated(chain)
        assert visits[0] <= 801  # 401 for the solve, 400 for the contexts


def _signed_full_tree(depth: int, seed: int) -> TreeVector:
    rng = random.Random(seed)
    return TreeVector.from_dict({p: rng.choice([-3, -2, -1, 1, 2, 3]) for p in grid(depth)})


@_DIFF
@given(signed_vectors())
@example(TreeVector.from_dict({p: 1 for p in grid(6)}))
@example(_signed_full_tree(5, 9))
def test_every_context_recomposes_the_norm(x):
    """N at every skeleton node v below a root: the best partition cuts
    the edge above v, or runs one segment across it, which gathers s
    below v (an open entry of v's table) and t above it (an entry of
    above(v))."""
    solver = NormSolver(x)
    for v in solver._skel.up:
        outside, above = solver._context(v)
        _, opens, closed, _ = solver._tables[v]
        crossing = [
            sc + rest + (s + t) * (s + t)
            for (s, _), sc in opens.items()
            for t, rest in above.items()
        ]
        assert solver._total == max([closed + outside, *crossing])


def _signed_chain(depth: int, seed: int) -> TreeVector:
    """Every level of one branch, signed values with their own denominators."""
    rng = random.Random(seed)
    branch = format(rng.getrandbits(depth), f"0{depth}b")
    return TreeVector.from_dict(
        {branch[:k]: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 6))
         for k in range(depth + 1)},
        max_depth=depth,
    )


@st.composite
def deep_signed_chains(draw) -> TreeVector:
    """Signed values with their own denominators on up to 40 levels of a
    branch up to 500 deep."""
    branch = draw(st.integers(1, 500).flatmap(_bits))
    levels = draw(st.sets(st.integers(0, len(branch)), min_size=1, max_size=40))
    value = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 6))
    return TreeVector.from_dict({branch[:k]: draw(value) for k in levels}, max_depth=500)


@st.composite
def signed_full_trees(draw, depth: int) -> TreeVector:
    """Every node to the given depth, signed values with their own denominators."""
    value = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 6))
    return TreeVector.from_dict({p: draw(value) for p in grid(depth)})


class TestSegmentTopReferee:
    """The DP's norm, every parent-child gap (through the public gap and
    the parent-child separation scan), every isolation gap and the forced
    gaps of `_forced_segments` equal `SegmentTopReferee`'s, at sizes the
    oracle refuses."""

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(deep_signed_chains())
    @example(_signed_chain(500, 4))
    def test_norm_on_deep_chains(self, x):
        assert jt_norm_sq(x).norm_sq == SegmentTopReferee(x).score()

    @pytest.mark.parametrize("depth", [2, 5, 8])
    def test_norm_on_full_trees(self, depth):
        @settings(max_examples=4, deadline=None, derandomize=True, database=None)
        @given(signed_full_trees(depth))
        def check(x):
            assert jt_norm_sq(x).norm_sq == SegmentTopReferee(x).score()

        check()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(signed_vectors())
    @example(FOREST)
    @example(TreeVector.from_dict({"": "1/7", "00": "-1/2", "0010": "2/9", "1": "3/4"}))
    def test_gaps_match_on_stretch_inputs(self, x):
        ref, solver = SegmentTopReferee(x), NormSolver(x)
        n = ref.score()
        ran = sorted(ref.ran, key=lambda p: (len(p), p))
        expected = {
            (Node(v[:-1]), Node(v)): n - ref.score(cut=(v[:-1], v))
            for v in ran if v and v[:-1] in ref.ran
        }
        assert list(is_separated(x).pair_gaps.items()) == list(expected.items())
        for (u, v), g in expected.items():
            assert solver.gap(u, v) == g
        for a in ran:
            assert solver.isolation_gap(Node(a)) == n - ref.forced(a, a)
        for seg in _forced_segments(x):
            assert solver.forced_gap(seg) == n - ref.forced(seg.top.path, seg.bottom.path)


# -- the range is built only by the queries that read it ---------------------


@st.composite
def wedge_or_chain_vectors(draw) -> TreeVector:
    """Signed vectors whose supports have several components, or deep chains.

    "wedges": support below 1-4 distinct nodes of one depth, which need
    not be in the support, so one wedge may hold several components and
    the root holds none. "chain": up to 8 levels of a branch up to 600
    deep, with up to 3 twigs leaving it, so branch nodes lie deep in the
    chain, inside the range or above every support node of the branch.
    """
    nonzero = st.integers(-3, 3).filter(bool)
    if draw(st.booleans()):
        depth = draw(st.integers(1, 3))
        wedges = draw(st.lists(st.sampled_from(grid(depth)[2**depth - 1 :]),
                               min_size=1, max_size=4, unique=True))
        paths = {w + tail for w in wedges
                 for tail in draw(st.lists(st.text("01", max_size=4), min_size=1, max_size=4))}
    else:
        branch = "".join(draw(st.lists(st.sampled_from("01"), min_size=600, max_size=600)))
        levels = draw(st.sets(st.integers(0, 600), min_size=1, max_size=8))
        paths = {branch[:k] for k in levels}
        for k in draw(st.lists(st.integers(0, 599), max_size=3)):
            paths.add(branch[:k] + "10"[int(branch[k])] + draw(st.text("01", max_size=5)))
    return TreeVector.from_dict({p: draw(nonzero) for p in paths}, max_depth=610)


def _skeleton_by_definition(supp) -> set[str]:
    """Reference: the support and every range node with two range children."""
    ran = range_all_pairs(supp)
    return set(supp) | {p for p in ran if p + "0" in ran and p + "1" in ran}


def _outside_nodes(solver: NormSolver) -> list[str]:
    """Children and parents of range nodes that lie outside the range."""
    ran = range_all_pairs(solver.supp)
    near = {p + bit for p in ran for bit in "01"} | {p[:-1] for p in ran if p}
    return sorted(near - ran)


def _forbidden_stretches(skel):
    raise AssertionError("ran(x) was built")


_LAZY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestLazyRange:
    @_LAZY
    @given(wedge_or_chain_vectors())
    @example(TreeVector.from_dict({"00": 1, "01": -1}))  # two roots below a zero "0"
    @example(TreeVector.from_dict({"": 1, "00": 1, "01": -1}))  # "0" is a branch node
    def test_skeleton_matches_the_range_definition(self, x):
        assert NormSolver(x)._skeleton() == _skeleton_by_definition({n.path for n in x.support()})

    @_LAZY
    @given(wedge_or_chain_vectors())
    def test_build_solve_and_norm_sq_never_build_the_range(self, x):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jtx.tree, "_stretches", _forbidden_stretches)
            solver = NormSolver(x)
            result = solver.solve()
            assert "ran" not in solver.__dict__ and solver._ran is None
            assert solver.norm_sq() == result.norm_sq
            assert "ran" not in solver.__dict__ and solver._ran is None
        assert solver.ran == range_paths(solver.supp) == range_all_pairs(solver.supp)
        assert type(solver.ran) is frozenset
        assert solver.ran is solver.ran  # built once, then kept

    @_LAZY
    @given(wedge_or_chain_vectors(), st.data())
    def test_nodes_outside_ran_raise_before_and_after_it_is_read(self, x, data):
        solver = NormSolver(x)
        o = Node(data.draw(st.sampled_from(_outside_nodes(solver))))
        i = Node(data.draw(st.sampled_from(sorted(solver.supp))))
        queries = [
            lambda s: s.gap(o, i),
            lambda s: s.gap(i, o),
            lambda s: s.forced_gap(Segment(o, o)),
            lambda s: s.isolation_gap(o),
            lambda s: s.solve([IsolateNode(o)]),
            lambda s: s.norm_sq([SeparatePair(i, o)]),
            lambda s: s.solve([ForceSegment(Segment(o, o))]),
        ]
        for query in queries:
            messages = []
            for read_first in (False, True):
                s = NormSolver(x)
                if read_first:
                    s.ran
                with pytest.raises(DomainError, match="lies outside ran") as exc:
                    query(s)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]
        with pytest.raises(DomainError, match="lies outside ran"):
            constrained_norm_sq(x, [IsolateNode(o)])

