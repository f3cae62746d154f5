"""Separation, extremality certificates, and equal sums.

Claims:
    - the worked vector is separated on its support but not on its
      range, with (root, 0) blocked at gap 2
    - parent-child scanning decides separation identically to the
      all-comparable-pairs scan
    - non-separated vectors yield verified perturbation witnesses whose
      sums vanish on every norming partition
    - l2 equality forces separation and extremality; on single branches
      and incomparable-segment supports the converse holds too
    - isolation of every support node forces l2 equality
    - positive separated vectors have balanced sibling sums; their
      branch sums agree when supp = ran, but not in general: a
      separated, extreme vector with unequal branch sums is pinned
    - branch sums are computed without recursion on deep chains
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from helpers import (
    antichain_vector,
    chain_vector,
    full_tree_vector,
    incomparable_segments_vector,
    level_symmetric,
    random_positive,
    random_signed,
)

from jtx import (
    DomainError,
    Node,
    PositivityError,
    TreeVector,
    all_isolatable_implies_l2,
    certify_extreme,
    equal_sums_report,
    is_separated,
    isolatable_nodes,
    jt_norm_sq,
    perturbation_witness,
    vanishes_on_all_norming,
)

EX = TreeVector.from_dict({"": 1, "00": 1, "01": 1})
TRIPOD = TreeVector.from_dict({"": 1, "0": 1, "1": 1})


class TestIsSeparated:
    def test_worked_example_blocked_on_range(self):
        report = is_separated(EX)
        assert not report.separated
        assert report.first_blocked_pair == (Node(""), Node("0"))
        assert report.pair_gaps[(Node(""), Node("0"))] == 2

    def test_worked_example_support_pairs_all_free(self):
        report = is_separated(EX, all_pairs=True)
        assert not report.separated
        for pair in [(Node(""), Node("00")), (Node(""), Node("01"))]:
            assert report.pair_gaps[pair] == 0
        assert report.first_blocked_pair == (Node(""), Node("0"))

    def test_tripod_separated(self):
        assert is_separated(TRIPOD).separated

    def test_single_node_trivially_separated(self):
        report = is_separated(TreeVector.from_dict({"": 1}))
        assert report.separated and not report.pair_gaps

    def test_parent_child_scan_decides(self):
        rng = random.Random(40)
        for _ in range(60):
            x = random_signed(rng, max_depth=3, max_ran=9)
            assert is_separated(x).separated == is_separated(x, all_pairs=True).separated

    def test_blocked_pair_is_parent_child(self):
        rng = random.Random(41)
        for _ in range(40):
            x = random_signed(rng, max_depth=3, max_ran=9)
            report = is_separated(x, all_pairs=True)
            if report.first_blocked_pair is not None:
                u, v = report.first_blocked_pair
                assert v.parent() == u


class TestPerturbationWitness:
    def test_worked_example(self):
        y, eps = perturbation_witness(EX, Node(""), Node("0"))
        assert eps == Fraction(1, 2)
        assert y == TreeVector.from_dict({"": "1/2", "0": "-1/2"})
        assert jt_norm_sq(EX + y).norm_sq == 5
        assert jt_norm_sq(EX - y).norm_sq == 5

    def test_tiny_epsilon_also_works(self):
        y = TreeVector.from_dict({"": "1/8", "0": "-1/8"})
        assert jt_norm_sq(EX + y).norm_sq == 5
        assert jt_norm_sq(EX - y).norm_sq == 5

    def test_separable_pair_rejected(self):
        with pytest.raises(DomainError):
            perturbation_witness(TRIPOD, Node(""), Node("0"))

    def test_non_child_pair_rejected(self):
        with pytest.raises(DomainError):
            perturbation_witness(EX, Node(""), Node("00"))

    def test_random_non_separated_instances(self):
        rng = random.Random(42)
        seen = 0
        for _ in range(60):
            x = random_signed(rng, max_depth=3, max_ran=9)
            report = is_separated(x, stop_on_blocked=True)
            if report.separated:
                continue
            seen += 1
            u, v = report.first_blocked_pair
            y, eps = perturbation_witness(x, u, v)
            base = jt_norm_sq(x).norm_sq
            assert not y.is_zero() and eps > 0
            assert jt_norm_sq(x + y).norm_sq == base
            assert jt_norm_sq(x - y).norm_sq == base
            assert vanishes_on_all_norming(x, y)
        assert seen >= 10


class TestCertifyExtreme:
    def test_worked_example_not_extreme(self):
        cert = certify_extreme(EX)
        assert cert.verdict == "not-extreme"
        assert cert.basis == "blocked-pair"
        assert cert.blocked_pair == (Node(""), Node("0"))
        assert cert.witness_y is not None and not cert.witness_y.is_zero()
        base = cert.norm_sq
        assert jt_norm_sq(EX + cert.witness_y).norm_sq == base
        assert jt_norm_sq(EX - cert.witness_y).norm_sq == base

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_trees_extreme(self, n):
        cert = certify_extreme(full_tree_vector(n))
        assert cert.verdict == "extreme"
        assert cert.basis == "separated-finite-support"

    def test_single_node_l2_basis(self):
        cert = certify_extreme(TreeVector.from_dict({"": 1}))
        assert cert.verdict == "extreme"
        assert cert.basis == "l2-equality"

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            certify_extreme(TreeVector.zero())

    def test_positive_characterization_regression_guard(self):
        # for positive finite-support vectors the verdict must track the
        # separation decision exactly, in both directions
        rng = random.Random(49)
        for _ in range(40):
            x = random_positive(rng, max_depth=3)
            assert (certify_extreme(x).verdict == "extreme") == is_separated(
                x
            ).separated

    def test_l2_equality_implies_extreme_and_separated(self):
        rng = random.Random(43)
        hits = 0
        for _ in range(60):
            x = antichain_vector(rng) if rng.random() < 0.6 else random_signed(
                rng, max_depth=3, max_ran=9
            )
            if jt_norm_sq(x).norm_sq != x.l2_sq():
                continue
            hits += 1
            assert is_separated(x).separated
            cert = certify_extreme(x)
            assert cert.verdict == "extreme"
        assert hits >= 20


class TestVanishes:
    def test_worked_example_direction(self):
        y = TreeVector.from_dict({"": 1, "0": -1})
        assert vanishes_on_all_norming(EX, y)

    def test_unit_at_support_leaf_fails(self):
        assert not vanishes_on_all_norming(EX, TreeVector.from_dict({"00": 1}))

    def test_zero_vanishes(self):
        assert vanishes_on_all_norming(EX, TreeVector.zero())


class TestIsolatable:
    def test_incomparable_pair(self):
        x = TreeVector.from_dict({"00": 1, "01": 1})
        assert all_isolatable_implies_l2(x) == (True, True)

    def test_worked_example(self):
        assert all_isolatable_implies_l2(EX) == (False, False)
        per_node = isolatable_nodes(EX)
        assert per_node[Node("")] is False
        assert per_node[Node("00")] is True

    def test_single_node(self):
        assert all_isolatable_implies_l2(TreeVector.from_dict({"": 1})) == (True, True)

    def test_implication_randomly(self):
        rng = random.Random(44)
        for _ in range(60):
            x = random_signed(rng, max_depth=3, max_ran=9)
            every, l2_match = all_isolatable_implies_l2(x)
            if every:
                assert l2_match


class TestSpecialSupports:
    def test_single_branch_separated_iff_l2(self):
        rng = random.Random(45)
        for _ in range(80):
            x = chain_vector(rng)
            assert is_separated(x).separated == (jt_norm_sq(x).norm_sq == x.l2_sq())

    def test_incomparable_segments_separated_implies_l2(self):
        rng = random.Random(46)
        hits = 0
        for _ in range(60):
            x = incomparable_segments_vector(rng)
            if is_separated(x).separated:
                hits += 1
                assert jt_norm_sq(x).norm_sq == x.l2_sq()
        assert hits >= 10


class TestEqualSums:
    def test_deep_chain_past_the_recursion_limit(self):
        depth = 300
        x = TreeVector.from_dict(
            {"1" * k: 1 for k in range(0, depth + 1, 50)}, max_depth=depth
        )
        frames, f = 0, sys._getframe()
        while f is not None:
            frames, f = frames + 1, f.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(frames + 100)  # far fewer frames than levels
        try:
            report = equal_sums_report(x)
        finally:
            sys.setrecursionlimit(old)
        sums = report.branch_sums[Node("")]
        assert sums[Node("1" * depth)] == 7
        assert sums[Node("0")] == 1  # the exit just below the root
        assert len(sums) == depth + 1
        assert not report.holds

    def test_tripod_holds(self):
        report = equal_sums_report(TRIPOD)
        assert report.holds
        assert set(report.branch_sums[Node("")].values()) == {Fraction(2)}
        assert report.sigma == 2
        assert report.sibling_balance[Node("")] == (1, 1)

    def test_counterexample_two_chain(self):
        report = equal_sums_report(TreeVector.from_dict({"": 1, "0": 1}))
        assert not report.holds
        sums = report.branch_sums[Node("")]
        assert sums[Node("0")] == 2
        assert sums[Node("1")] == 1
        assert report.sibling_balance[Node("")] == (1, 0)

    def test_single_node(self):
        report = equal_sums_report(TreeVector.from_dict({"": 1}))
        assert report.holds
        assert report.sigma == 1
        assert not report.sibling_balance

    def test_rejects_signed(self):
        with pytest.raises(PositivityError):
            equal_sums_report(TreeVector.from_dict({"": 1, "0": -1}))

    def test_separated_positive_has_balanced_siblings(self):
        rng = random.Random(47)
        found = 0
        for trial in range(80):
            x = level_symmetric(rng) if trial % 3 == 0 else random_positive(
                rng, max_depth=3
            )
            if not is_separated(x, stop_on_blocked=True).separated:
                continue
            found += 1
            for a, b in equal_sums_report(x).sibling_balance.values():
                assert a == b
        assert found >= 15

    def test_separated_positive_with_complete_support_has_equal_sums(self):
        # with supp(x) = ran(x) every branching node is a support node,
        # so sibling balance propagates to full branch-sum equality
        rng = random.Random(48)
        found = 0
        for trial in range(90):
            x = level_symmetric(rng) if trial % 2 == 0 else random_positive(
                rng, max_depth=3
            )
            if x.support() != x.range():
                continue
            if not is_separated(x, stop_on_blocked=True).separated:
                continue
            found += 1
            assert equal_sums_report(x).holds, x
        assert found >= 15

    def test_separated_without_equal_sums_counterexample(self):
        # sibling balance at support nodes does not reach branching nodes
        # that carry no support: here "0" splits 1/2 against 3/4 while the
        # support-node balance at the root is satisfied, so the vector is
        # separated yet its branch sums differ (3/2 vs 7/4 vs 1)
        x = TreeVector.from_dict({"": 1, "00": "1/2", "01": "3/4", "11": "3/4"})
        assert is_separated(x).separated
        report = equal_sums_report(x)
        assert not report.holds
        assert report.sibling_balance[Node("")] == (Fraction(3, 4), Fraction(3, 4))
        sums = report.branch_sums[Node("")]
        assert sums[Node("00")] == Fraction(3, 2)
        assert sums[Node("01")] == Fraction(7, 4)
        assert sums[Node("10")] == 1
        assert certify_extreme(x).verdict == "extreme"
