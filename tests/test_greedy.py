"""Greedy machinery for positive vectors.

Claims:
    - maximal segment sums match explicit enumeration of downward chains
    - the greedy partition always attains the squared norm
    - the wedge-norm recursion holds at every support node
    - every norming partition is consistent with the greedy rule, and
      inconsistent partitions are reported with their witness
    - consistent_with_greedy gives the verdict and violations of the
      support-wide chain rule it replaced, also for segments whose
      endpoints lie outside the support (hypothesis differential)
    - skipping one-node segments keeps consistent_with_greedy's verdict
      and violations, in order, equal to the all-segments loop it
      replaced, on random non-greedy partitions of positive supports
      that mix one-node and longer segments (hypothesis differential,
      with a guard that the draws hold violations and such mixes)
    - forcing a maximal head segment at a minimal support node keeps the
      norm attainable
    - all tie branches of the greedy walk score identically
    - the walk's trace equals the per-node pre-pass it replaced, builds
      each map on its first read, and an unknown tie policy is a
      DomainError that echoes a long one cut short
    - on positive vectors, jt_norm_sq's heaviest-child walk gives the
      DP's norm and witness byte for byte (NormSolver(x).solve()), also on
      tie-heavy grids and forests with branch nodes off the support; this
      equality is empirical
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from helpers import (
    MIXED_DENOMINATORS,
    maximal_head_segment,
    random_positive,
    support_paths,
    tie_heavy,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtx import (
    DomainError,
    GreedyTrace,
    Node,
    NormSolver,
    Partition,
    PositivityError,
    Segment,
    SupportTree,
    TreeVector,
    canonical_order,
    consistent_with_greedy,
    enumerate_norming,
    forced_segment_is_norming,
    greedy_partition,
    jt_norm_sq,
    leq,
    max_segment_sum,
    recursive_norm_check,
    score,
    segments_disjoint,
)
from jtx.greedy import GreedyViolation
from jtx.wire import norm_result_doc

EX = TreeVector.from_dict({"": 1, "00": 1, "01": 1})
LOPSIDED = TreeVector.from_dict({"": 1, "0": 2, "1": 1})
SIGNED = TreeVector.from_dict({"": 1, "0": -1})


def _all_downward_sums(x: TreeVector, a: Node) -> list[Fraction]:
    """Reference: the sum of every segment starting at a within the grid."""
    depth_cap = max((n.depth for n in x.support()), default=0) + 1
    sums = []
    frontier = [(a, x.value(a))]
    while frontier:
        node, total = frontier.pop()
        sums.append(total)
        if node.depth < depth_cap:
            for c in node.children():
                frontier.append((c, total + x.value(c)))
    return sums


class TestMaxSegmentSum:
    def test_worked_example(self):
        assert max_segment_sum(EX, Node("")) == 2

    def test_leaf(self):
        assert max_segment_sum(EX, Node("01")) == 1

    def test_three_nodes(self):
        assert max_segment_sum(LOPSIDED, Node("")) == 3
        assert max_segment_sum(LOPSIDED, Node("")) == max(
            _all_downward_sums(LOPSIDED, Node(""))
        )

    def test_matches_enumeration_randomly(self):
        rng = random.Random(30)
        for _ in range(40):
            x = random_positive(rng, max_depth=4)
            for a in canonical_order(x.range()):
                assert max_segment_sum(x, a) == max(_all_downward_sums(x, a))

    def test_errors(self):
        with pytest.raises(PositivityError):
            max_segment_sum(SIGNED, Node(""))
        with pytest.raises(DomainError):
            max_segment_sum(EX, Node("11"))


class TestGreedyPartition:
    def test_worked_example_tie_toward_zero(self):
        partition, trace = greedy_partition(EX)
        assert partition == Partition.of(
            Segment(Node(""), Node("00")), Segment(Node("01"), Node("01"))
        )
        assert score(EX, partition) == 5
        assert trace.s_values[Node("")] == 2
        assert trace.tie_sets[Node("")] == (Node("00"), Node("01"))
        assert trace.chosen[Node("")] == Node("00")

    def test_tie_policy_lex_max(self):
        partition, trace = greedy_partition(EX, tie_policy="lex-max")
        assert partition == Partition.of(
            Segment(Node(""), Node("01")), Segment(Node("00"), Node("00"))
        )
        assert trace.chosen[Node("")] == Node("01")

    def test_single_node(self):
        partition, _ = greedy_partition(TreeVector.from_dict({"": 1}))
        assert partition == Partition.of(Segment(Node(""), Node("")))

    def test_lopsided(self):
        partition, _ = greedy_partition(LOPSIDED)
        assert partition == Partition.of(
            Segment(Node(""), Node("0")), Segment(Node("1"), Node("1"))
        )
        assert score(LOPSIDED, partition) == 10

    def test_rejects_signed(self):
        with pytest.raises(PositivityError):
            greedy_partition(SIGNED)

    def test_rejects_unknown_tie_policy(self):
        with pytest.raises(DomainError, match="^unknown tie policy 'lex-mid'$"):
            greedy_partition(EX, "lex-mid")

    def test_long_unknown_tie_policy_is_cut_short(self):
        with pytest.raises(DomainError) as exc:
            greedy_partition(EX, "x" * 5000)
        assert str(exc.value) == "unknown tie policy '" + "x" * 199 + "... (5002 characters)"

    def test_trace_invariants(self):
        rng = random.Random(31)
        for _ in range(30):
            x = random_positive(rng, max_depth=4)
            st = SupportTree(x)
            _, trace = greedy_partition(x)
            for n in x.support():
                kids = st.children[n]
                if not kids:
                    assert trace.chosen[n] is None
                    continue
                top = max(trace.s_values[c] for c in kids)
                assert set(trace.tie_sets[n]) == {
                    c for c in kids if trace.s_values[c] == top
                }
                assert trace.chosen[n] in trace.tie_sets[n]

    @pytest.mark.parametrize("tie_policy", ["lex-min", "lex-max"])
    def test_trace_equals_per_node_reference(self, tie_policy):
        """The walk's trace equals one built node by node from SupportTree's
        views, the pre-pass the walk replaced."""
        rng = random.Random(33)
        for _ in range(60):
            x = random_positive(rng, max_depth=5)
            st = SupportTree(x)
            _, trace = greedy_partition(x, tie_policy)
            ties = {}
            for n in st.nodes:
                top = max((st.s[c] for c in st.children[n]), default=0)
                ties[n] = tuple(sorted((c for c in st.children[n] if st.s[c] == top),
                                       key=Node.sort_key))
            pick = 0 if tie_policy == "lex-min" else -1
            assert trace.s_values == st.s
            assert trace.tie_sets == ties
            assert trace.chosen == {n: t[pick] if t else None for n, t in ties.items()}

    def test_trace_maps_built_on_first_read(self):
        """A trace holds the walk's picks until a map is read; then it
        equals the trace built field by field, as a keyword trace does."""
        _, trace = greedy_partition(EX)
        assert not {"s_values", "chosen", "tie_sets"} & set(vars(trace))
        assert trace.tie_sets[Node("")] == (Node("00"), Node("01"))
        assert "tie_sets" in vars(trace) and "s_values" not in vars(trace)
        assert trace == GreedyTrace(
            s_values={Node(""): 2, Node("00"): 1, Node("01"): 1},
            chosen={Node(""): Node("00"), Node("00"): None, Node("01"): None},
            tie_sets={Node(""): (Node("00"), Node("01")), Node("00"): (), Node("01"): ()},
        )
        with pytest.raises(AttributeError):
            trace.missing

    def test_greedy_attains_norm_randomly(self):
        rng = random.Random(32)
        for _ in range(80):
            x = random_positive(rng, max_depth=5)
            partition, _ = greedy_partition(x)
            assert score(x, partition) == jt_norm_sq(x).norm_sq

    def test_all_tie_branches_score_equally(self):
        rng = random.Random(33)
        for _ in range(25):
            x = random_positive(rng, max_depth=3, max_density=0.5)
            st = SupportTree(x)
            _, trace = greedy_partition(x)
            branchy = [n for n in x.support() if len(trace.tie_sets[n]) > 1]
            if len(branchy) > 4:
                continue
            target = jt_norm_sq(x).norm_sq
            for combo in itertools.product(
                *(range(len(trace.tie_sets[n])) for n in branchy)
            ):
                chosen = dict(trace.chosen)
                for n, pick in zip(branchy, combo):
                    chosen[n] = trace.tie_sets[n][pick]
                segments = []
                for head in st.roots:
                    queue = [head]
                    while queue:
                        h = queue.pop(0)
                        cur = h
                        while chosen[cur] is not None:
                            nxt = chosen[cur]
                            queue.extend(c for c in st.children[cur] if c != nxt)
                            cur = nxt
                        segments.append(Segment(h, cur))
                assert score(x, Partition(frozenset(segments))) == target


@st.composite
def positive_forests(draw) -> TreeVector:
    """Positive values with mixed denominators on the supports of
    `support_paths`, whose ranges hold branch nodes off the support."""
    paths = draw(support_paths())
    value = st.builds(Fraction, st.integers(1, 4), st.sampled_from(MIXED_DENOMINATORS))
    return TreeVector.from_dict({p: draw(value) for p in paths})


# The S = 5/6 tie at the root between "00" and "1": the walk takes "00",
# first in lexicographic order; lex-min takes "1", first in canonical order.
MIXED_TIE = TreeVector.from_dict({
    "": "1/7", "00": "1/2", "000": "1/3", "01": "1/9", "1": "7/12", "10": "1/5", "11": "1/4",
})


class TestWalkReferee:
    """The positive path of jt_norm_sq against the DP, which NormSolver
    runs on every input."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.randoms(use_true_random=False).map(tie_heavy), positive_forests()))
    @example(MIXED_TIE)
    @example(EX)
    @example(TreeVector.zero())
    def test_walk_equals_dp(self, x):
        walk, dp = jt_norm_sq(x), NormSolver(x).solve()
        assert norm_result_doc(walk) == norm_result_doc(dp)
        assert walk == dp

    def test_tie_picks(self):
        witness = jt_norm_sq(MIXED_TIE).witness
        assert Segment(Node(""), Node("000")) in witness.segments
        partition, _ = greedy_partition(MIXED_TIE)
        assert Segment(Node(""), Node("11")) in partition.segments


class TestRecursiveNormCheck:
    def test_worked_example(self):
        # 1 + 2*1*1 + (1 + 1) = 5
        assert recursive_norm_check(EX, Node(""))

    def test_leaf(self):
        assert recursive_norm_check(EX, Node("00"))

    def test_lopsided(self):
        # 1 + 2*1*2 + (4 + 1) = 10
        assert recursive_norm_check(LOPSIDED, Node(""))

    def test_every_support_node_randomly(self):
        rng = random.Random(34)
        for _ in range(40):
            x = random_positive(rng, max_depth=4)
            for a in x.support():
                assert recursive_norm_check(x, a)

    def test_errors(self):
        with pytest.raises(DomainError):
            recursive_norm_check(EX, Node("0"))
        with pytest.raises(PositivityError):
            recursive_norm_check(SIGNED, Node(""))


class TestConsistency:
    def test_worked_example_consistent(self):
        ok, violations = consistent_with_greedy(
            EX,
            Partition.of(Segment(Node(""), Node("00")), Segment(Node("01"), Node("01"))),
        )
        assert ok and not violations

    def test_violation_reported(self):
        bad = Partition.of(Segment(Node(""), Node("1")), Segment(Node("0"), Node("0")))
        ok, violations = consistent_with_greedy(LOPSIDED, bad)
        assert not ok
        (v,) = violations
        assert v.node == Node("")
        assert v.chosen == Node("1")
        assert v.better == Node("0")
        assert (v.chosen_sum, v.better_sum) == (1, 2)

    def test_all_singletons_vacuous(self):
        singles = Partition.of(*(Segment(n, n) for n in LOPSIDED.support()))
        assert consistent_with_greedy(LOPSIDED, singles) == (True, [])

    def test_every_norming_partition_is_consistent(self):
        rng = random.Random(35)
        for _ in range(40):
            x = random_positive(rng, max_depth=3, max_density=0.5)
            if len(x.range()) > 11:
                continue
            for p in enumerate_norming(x):
                ok, violations = consistent_with_greedy(x, p)
                assert ok, (x, p, violations)


def _consistent_by_support_scan(x: TreeVector, p: Partition):
    """Reference: each segment's chain found by scanning the whole support."""
    st_ = SupportTree(x)
    s = st_.s
    violations = []
    for seg in p.sorted_segments():
        chain = [n for n in canonical_order(st_.nodes) if n in seg]
        for u, nxt in zip(chain, chain[1:]):
            best = max(s[c] for c in st_.children[u])
            if s[nxt] < best:
                better = next(c for c in canonical_order(st_.children[u]) if s[c] == best)
                violations.append(GreedyViolation(seg, u, nxt, better, s[nxt], best))
    return (not violations, violations)


@st.composite
def positive_with_partition(draw) -> tuple[TreeVector, Partition]:
    """A positive vector and a disjoint family of segments along its support.

    Each segment ends at or below a support node, possibly past the
    range, and starts at one of its prefixes, possibly above the range.
    """
    paths = draw(support_paths())
    den = draw(st.integers(1, 3))
    x = TreeVector.from_dict({p: Fraction(draw(st.integers(1, 3)), den) for p in paths})
    chosen: list[Segment] = []
    for _ in range(draw(st.integers(0, 5))):
        anchor = draw(st.sampled_from(sorted(paths)))
        bottom = anchor + draw(st.text("01", max_size=2))
        top = bottom[: draw(st.integers(0, len(bottom)))]
        seg = Segment(Node(top), Node(bottom))
        if all(segments_disjoint(seg, other) for other in chosen):
            chosen.append(seg)
    return x, Partition(frozenset(chosen))


class TestConsistencyDifferential:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(positive_with_partition())
    @example((LOPSIDED, Partition.of(Segment(Node(""), Node("1")), Segment(Node("0"), Node("0")))))
    @example((EX, Partition.of(Segment(Node(""), Node("010")))))
    def test_matches_support_scan(self, case):
        x, p = case
        assert consistent_with_greedy(x, p) == _consistent_by_support_scan(x, p)


def _consistent_all_segments(x: TreeVector, p: Partition):
    """Reference: consistent_with_greedy before it skipped one-node
    segments, walking every segment of p in canonical order."""
    st_ = SupportTree(x)
    kids, s = st_._forest.kids, st_._s
    violations = []
    for seg in p.sorted_segments():
        b = seg.bottom.path
        chain = [b[:k] for k in range(seg.top.depth, seg.bottom.depth + 1) if b[:k] in s]
        for u, nxt in zip(chain, chain[1:]):
            best = max(s[c] for c in kids[u])
            if s[nxt] < best:
                better = min((c for c in kids[u] if s[c] == best), key=len)
                violations.append(GreedyViolation(
                    seg, Node(u), Node(nxt), Node(better), Fraction(s[nxt], st_._den),
                    Fraction(best, st_._den),
                ))
    return (not violations, violations)


def _random_walk_partition(x: TreeVector, pick_of) -> Partition:
    """The partition of supp(x) whose segments follow pick_of(p, kids), an
    induced child of p or None, down from every node no node picked."""
    forest = SupportTree(x)._forest
    pick = {}
    for p in forest.order:
        c = pick_of(p, forest.kids[p])
        if c is not None:
            pick[p] = c
    picked = set(pick.values())
    segments = []
    for head in forest.order:
        if head not in picked:
            bottom = head
            while bottom in pick:
                bottom = pick[bottom]
            segments.append(Segment(Node(head), Node(bottom)))
    return Partition(frozenset(segments))


@st.composite
def positive_with_walk_partition(draw) -> tuple[TreeVector, Partition]:
    """A positive vector and a partition of its support whose segments
    step to any induced child, the lighter ones included, or stop."""
    x = draw(st.one_of(st.randoms(use_true_random=False).map(tie_heavy), positive_forests()))
    return x, _random_walk_partition(x, lambda p, kids: draw(st.sampled_from([None, *kids])))


def _one_node_flags(p: Partition) -> set[bool]:
    return {seg.top == seg.bottom for seg in p.segments}


class TestConsistencyReferee:
    """consistent_with_greedy skips one-node segments; the all-segments
    loop it replaced referees it."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(positive_with_walk_partition())
    @example((MIXED_TIE, Partition.of(
        Segment(Node(""), Node("01")), Segment(Node("1"), Node("10")),
        Segment(Node("00"), Node("00")), Segment(Node("000"), Node("000")),
        Segment(Node("11"), Node("11")),
    )))
    def test_matches_all_segments_loop(self, case):
        x, p = case
        assert consistent_with_greedy(x, p) == _consistent_all_segments(x, p)

    def test_mixed_example_violations_in_order(self):
        singles = [Segment(Node(q), Node(q)) for q in ("00", "000", "11")]
        longer = [Segment(Node(""), Node("01")), Segment(Node("1"), Node("10"))]
        ok, violations = consistent_with_greedy(MIXED_TIE, Partition.of(*longer, *singles))
        assert not ok
        assert [(v.segment, v.better) for v in violations] == [
            (longer[0], Node("1")), (longer[1], Node("11")),
        ]
        assert consistent_with_greedy(MIXED_TIE, Partition.of(*longer)) == (ok, violations)

    def test_draws_are_not_vacuous(self):
        """Seeded draws of the same kind hold violations, mixes of one-node
        and longer segments, and both together."""
        rng = random.Random(25)
        violated = mixed = both = 0
        for _ in range(300):
            x = tie_heavy(rng) if rng.random() < 0.5 else random_positive(rng, max_depth=5)
            p = _random_walk_partition(x, lambda q, kids: rng.choice([None, *kids]))
            ok, violations = consistent_with_greedy(x, p)
            assert (ok, violations) == _consistent_all_segments(x, p)
            is_mixed = _one_node_flags(p) == {True, False}
            violated += not ok
            mixed += is_mixed
            both += is_mixed and not ok
        assert violated >= 100 and mixed >= 150 and both >= 100, (violated, mixed, both)


class TestForcedSegment:
    def test_worked_example_both_heads(self):
        assert forced_segment_is_norming(EX, Segment(Node(""), Node("00")))
        assert forced_segment_is_norming(EX, Segment(Node(""), Node("01")))

    def test_single_node(self):
        x = TreeVector.from_dict({"": 1})
        assert forced_segment_is_norming(x, Segment(Node(""), Node("")))

    def test_preconditions(self):
        with pytest.raises(DomainError):
            # top is not a minimal support node
            forced_segment_is_norming(EX, Segment(Node("00"), Node("00")))
        with pytest.raises(DomainError):
            # sum 1 does not attain the maximal segment sum 2
            forced_segment_is_norming(EX, Segment(Node(""), Node("")))

    def test_bottom_outside_range(self):
        x = TreeVector.from_dict({"": 1})
        with pytest.raises(DomainError) as exc:
            forced_segment_is_norming(x, Segment(Node(""), Node("0")))
        assert str(exc.value) == "constraint node '0' lies outside ran(x)"

    def test_random_minimal_heads(self):
        rng = random.Random(36)
        for _ in range(60):
            x = random_positive(rng, max_depth=4)
            for head in x.support():
                if any(leq(other, head) and other != head for other in x.support()):
                    continue
                seg = maximal_head_segment(x, head)
                assert forced_segment_is_norming(x, seg), (x, seg)
                break
