"""Norm engine: scoring, the DP, constraints, oracle, enumeration.

Claims:
    - score reproduces the worked squared sums and rejects overlaps
    - the DP equals the brute-force oracle on every tested instance
    - witnesses are canonical, score their own norm, satisfy constraints
    - separation gaps match the worked example and vanish on
      incomparable pairs
    - constraint sets shrink the constrained optimum monotonically
    - restriction to a complete subtree never increases the norm
    - parent-child gaps and node isolation answered from the cached
      tables equal the constrained DP, and the score-only path equals
      solve(...).norm_sq (hypothesis differential suites)
    - witness reconstruction runs at depths past the recursion limit
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from helpers import grid, random_signed
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtx import (
    CapError,
    DomainError,
    EMPTY_PARTITION,
    ForceSegment,
    InfeasibleError,
    InvalidPartitionError,
    IsolateNode,
    Node,
    NormSolver,
    Partition,
    Segment,
    SeparatePair,
    TreeVector,
    comparable,
    comparable_pairs,
    complete_closure,
    constrained_norm_sq,
    enumerate_norming,
    gap,
    isolatable_nodes,
    jt_norm_sq,
    leq,
    oracle_norm_sq,
    parent_child_pairs,
    score,
    segments_disjoint,
)


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

    def test_constraint_outside_range(self):
        with pytest.raises(DomainError):
            constrained_norm_sq(EX, {IsolateNode(Node("11"))})

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
    """Forests of several components, sparse chains and full trees of depth 2-5.

    Sparse supports leave zero-valued interior nodes in the range.
    """
    kind = draw(st.sampled_from(["forest", "chain", "full"]))
    if kind == "forest":
        below_root = grid(4)[1:]
        paths = draw(st.lists(st.sampled_from(below_root), min_size=1, max_size=9, unique=True))
    elif kind == "chain":
        branch = draw(st.text("01", min_size=1, max_size=12))
        levels = draw(st.sets(st.integers(0, len(branch)), min_size=1, max_size=6))
        paths = [branch[:k] for k in levels]
    else:
        paths = grid(draw(st.integers(2, 5)))
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
        solver = NormSolver(x)  # fresh: the first gap triggers the base solve
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

    def test_non_adjacent_gap_matches_constrained_dp(self):
        x = TreeVector.from_dict({"": 1, "0": -1, "00": 1, "001": 2})
        solver = NormSolver(x)
        for u, v in [(Node(""), Node("00")), (Node("001"), Node(""))]:
            assert solver.gap(u, v) == (
                solver.norm_sq() - solver.solve((SeparatePair(u, v),)).norm_sq
            )

    def test_isolation_outside_range(self):
        with pytest.raises(DomainError):
            NormSolver(EX).isolation_gap(Node("111"))


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
