"""Separation, extremality certificates, and equal sums.

Claims:
    - the worked vector is separated on its support but not on its
      range, with (root, 0) blocked at gap 2
    - parent-child scanning decides separation identically to the
      all-comparable-pairs scan
    - non-separated vectors yield verified perturbation witnesses whose
      sums vanish on every norming partition; the scale 2^-k at the
      least k with g^2 * 4^k >= 8N always works, so the halving reaches
      scales past 2^-64 when the gap is that small
    - each halving is checked on the cached cut tables and returns the
      (y, eps) of fresh solves of x + y and x - y (hypothesis and seeded
      differentials that meet u or v on a stretch, v a skeleton leaf
      below a stretch, u a component root and a perturbed entry of 0,
      at scales 2^-70 and 2^-200 too); certify_extreme builds one solver
    - the parent-child scan and certify_extreme read one memoised cut per
      skeleton node and match the ran-based scan kept as the reference
      (pairs, order, gaps, first blocked pair, with and without
      stop_on_blocked, and the certificate) on hypothesis signed vectors
      with stretches and several components and on x_1..x_8; a
      certificate builds no range
    - l2 equality forces separation and extremality; on single branches
      and incomparable-segment supports the converse holds too
    - isolation of every support node forces l2 equality
    - positive separated vectors have balanced sibling sums; their
      branch sums agree when supp = ran, but not in general: a
      separated, extreme vector with unequal branch sums is pinned
    - branch sums are computed without recursion on deep chains, and
      equal the per-level construction and the stack walk they replaced
      (hypothesis differentials on positive forests, sparse chains to
      depth 300 and full trees)
    - every report map iterates in canonical order of its keys: the pair
      gaps of both scan modes, with and without stop_on_blocked, the
      isolatable nodes, the branch sums (outer and inner), the sibling
      balance and the greedy trace under both tie policies
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
    range_all_pairs,
    support_paths,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtx import (
    DomainError,
    ExtremeCertificate,
    Node,
    NormSolver,
    PositivityError,
    SeparationReport,
    TreeVector,
    all_isolatable_implies_l2,
    certify_extreme,
    equal_sums_report,
    greedy_partition,
    is_separated,
    isolatable_nodes,
    jt_norm_sq,
    perturbation_witness,
    vanishes_on_all_norming,
)
from jtx.extremality import _descent_sums, _halving_bound
from jtx.tree import parent_child_pairs

EX = TreeVector.from_dict({"": 1, "00": 1, "01": 1})
TRIPOD = TreeVector.from_dict({"": 1, "0": 1, "1": 1})
# 2^-70 below the root: the gap is 2^-69, so the first working scale is 2^-70
TINY_CHILD = TreeVector.from_dict({"": "1", "0": "1/1180591620717411303424"})


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

    def test_scale_past_64_halvings(self):
        cert = certify_extreme(TINY_CHILD)
        assert cert.verdict == "not-extreme"
        assert cert.blocked_pair == (Node(""), Node("0"))
        eps = cert.epsilon
        assert eps == Fraction(1, 2**70)
        y = cert.witness_y
        assert y == TreeVector.from_dict({"": eps, "0": -eps})
        assert jt_norm_sq(TINY_CHILD + y).norm_sq == cert.norm_sq
        assert jt_norm_sq(TINY_CHILD - y).norm_sq == cert.norm_sq
        assert perturbation_witness(TINY_CHILD, Node(""), Node("0")) == (y, eps)

    def test_the_proven_scale_always_works(self):
        """2^-k at the least k with g^2 * 4^k >= 8N keeps both norms, so
        the halving always stops by then."""
        rng = random.Random(9)
        xs = [random_signed(rng, max_depth=3, max_ran=9) for _ in range(80)]
        xs += [TreeVector.from_dict({"": 1, "0": Fraction(1, 2**k)}) for k in (0, 5, 70, 200)]
        seen = 0
        for x in xs:
            report = is_separated(x, stop_on_blocked=True)
            if report.separated:
                continue
            seen += 1
            u, v = report.first_blocked_pair
            solver = NormSolver(x)
            g, base = solver.gap(u, v), solver.norm_sq()
            k = _halving_bound(g, base)
            assert g * g * 4**k >= 8 * base
            assert k == 0 or g * g * 4 ** (k - 1) < 8 * base
            y = (TreeVector.unit(u) - TreeVector.unit(v)).scale(Fraction(1, 2**k))
            assert jt_norm_sq(x + y).norm_sq == base
            assert jt_norm_sq(x - y).norm_sq == base
            assert perturbation_witness(x, u, v)[1] >= Fraction(1, 2**k)
        assert seen >= 20


def _fresh_solve_witness(x: TreeVector, u: Node, v: Node) -> tuple[TreeVector, Fraction]:
    """The halving as it was before the cut check, kept as the reference:
    each eps is accepted iff fresh solves of x + y and x - y keep the norm."""
    solver = NormSolver(x)
    g, base = solver.gap(u, v), solver.norm_sq()
    eps, direction = Fraction(1), TreeVector.unit(u) - TreeVector.unit(v)
    for _ in range(_halving_bound(g, base) + 1):
        y = direction.scale(eps)
        if NormSolver(x + y).norm_sq() == base and NormSolver(x - y).norm_sq() == base:
            return y, eps
        eps /= 2
    raise AssertionError("the proven scale failed")


def _blocked_pairs(x: TreeVector) -> list[tuple[Node, Node]]:
    solver = NormSolver(x)
    return [(u, v) for u, v in parent_child_pairs(x.range()) if solver.gap(u, v) > 0]


@st.composite
def signed_sparse(draw) -> TreeVector:
    """Signed values on forests, sparse chains to depth 30 and full trees,
    so range nodes off the support sit on stretches and at branches."""
    paths = draw(support_paths(max_chain=30))
    den = draw(st.integers(1, 4))
    value = st.integers(-3, 3).filter(bool).map(lambda k: Fraction(k, den))
    return TreeVector.from_dict({p: draw(value) for p in paths}, max_depth=30)


# u = "0" and v = "01" lie on the stretch above the skeleton leaf "011",
# whose context keeps no above("011"): eps = 1 passes unless it is rebuilt.
LEAF_BELOW_STRETCH = TreeVector.from_dict({"": 2, "011": 1})


class TestCutCheckDifferential:
    """The cut check returns the (y, eps) of the fresh-solve halving."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(signed_sparse())
    @example(EX)
    @example(LEAF_BELOW_STRETCH)
    @example(TINY_CHILD)
    @example(TreeVector.from_dict({"": 1, "0": Fraction(-1, 2**200)}))
    @example(TreeVector.from_dict({"": "1/2", "0": 1, "01": -1, "1": 1}))
    def test_matches_fresh_solves(self, x):
        for u, v in _blocked_pairs(x):
            assert perturbation_witness(x, u, v) == _fresh_solve_witness(x, u, v)

    def test_leaf_below_a_stretch(self):
        assert perturbation_witness(LEAF_BELOW_STRETCH, Node("0"), Node("01"))[1] == Fraction(1, 2)
        for u, v in _blocked_pairs(LEAF_BELOW_STRETCH):
            assert perturbation_witness(LEAF_BELOW_STRETCH, u, v) == _fresh_solve_witness(
                LEAF_BELOW_STRETCH, u, v
            )

    @pytest.mark.parametrize("k", [70, 200])
    def test_scales_past_64_halvings(self, k):
        x = TreeVector.from_dict({"": 1, "0": Fraction(1, 2**k)})
        expected = _fresh_solve_witness(x, Node(""), Node("0"))
        assert expected[1] == Fraction(1, 2**k)
        assert perturbation_witness(x, Node(""), Node("0")) == expected

    def test_every_case_is_met(self):
        """On a seeded corpus of signed vectors every blocked pair agrees,
        and each case of the cut check is met: u or v on a stretch, v a
        skeleton leaf (below u on a stretch too), u a component root, and
        a perturbed entry x(u) + eps or x(v) + eps of 0."""
        rng = random.Random(18)
        seen = dict.fromkeys(
            ["u stretch", "v stretch", "v leaf", "v leaf, u stretch", "u root", "u zeroed", "v zeroed"],
            0,
        )
        for _ in range(150):
            x = random_signed(rng, max_depth=5, max_ran=24, density=rng.choice([0.15, 0.3]))
            skel = NormSolver(x)._skel
            for u, v in _blocked_pairs(x):
                y, eps = perturbation_witness(x, u, v)
                assert (y, eps) == _fresh_solve_witness(x, u, v)
                leaf = v.path in skel.kids and not skel.kids[v.path]
                seen["u stretch"] += u.path not in skel.kids
                seen["v stretch"] += v.path not in skel.kids
                seen["v leaf"] += leaf
                seen["v leaf, u stretch"] += leaf and u.path not in skel.kids
                seen["u root"] += u.path in skel.roots
                seen["u zeroed"] += abs(x.value(u)) == eps
                seen["v zeroed"] += abs(x.value(v)) == eps
        assert min(seen.values()) >= 50, seen


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

    def test_builds_one_solver_on_a_non_extreme_vector(self, monkeypatch):
        built = []
        init = NormSolver.__init__

        def counting_init(self, x):
            built.append(x)
            init(self, x)

        monkeypatch.setattr(NormSolver, "__init__", counting_init)
        cert = certify_extreme(TINY_CHILD)
        assert cert.verdict == "not-extreme" and cert.epsilon == Fraction(1, 2**70)
        assert built == [TINY_CHILD]  # 71 halvings, each checked on the cut tables

    def test_builds_no_range(self, monkeypatch):
        """The certificate reads one memoised cut per skeleton node, so it
        certifies a vector blocked on a stretch, a separated signed vector
        and x_3 with the stretch enumerator, which every range read
        runs, refusing to run in tree.py and in extremality.py."""

        def refuse(skel):
            raise AssertionError("ran(x) was built")

        monkeypatch.setattr("jtx.tree._stretches", refuse)
        monkeypatch.setattr("jtx.extremality._stretches", refuse)
        cert = certify_extreme(LEAF_BELOW_STRETCH)
        assert cert.verdict == "not-extreme" and cert.epsilon == Fraction(1, 2)
        assert cert.blocked_pair == (Node(""), Node("0"))  # "0" lies on the stretch above "011"
        cert = certify_extreme(TreeVector.from_dict({"": 1, "00": -1, "1": -1}))
        assert (cert.verdict, cert.basis) == ("extreme", "l2-equality")
        cert = certify_extreme(full_tree_vector(3))
        assert (cert.verdict, cert.basis) == ("extreme", "separated-finite-support")

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


def _reference_scan(x: TreeVector, stop_on_blocked: bool = False) -> SeparationReport:
    """The parent-child scan as it was before it read the cut tables, kept
    as the reference: the public gap over the parent-child pairs of the
    range by its definition, stopping at the first blocked pair when asked."""
    solver = NormSolver(x)
    gaps, blocked = {}, None
    ran = range_all_pairs(n.path for n in x.support())
    for u, v in parent_child_pairs(Node(p) for p in ran):
        g = gaps[(u, v)] = solver.gap(u, v)
        if g > 0 and blocked is None:
            blocked = (u, v)
            if stop_on_blocked:
                break
    return SeparationReport(blocked is None, gaps, blocked, "parent-child")


def _reference_certificate(x: TreeVector) -> ExtremeCertificate:
    """The certificate of the reference scan: its first blocked pair and the
    public perturbation_witness on it."""
    norm_sq = jt_norm_sq(x).norm_sq
    blocked = _reference_scan(x, stop_on_blocked=True).first_blocked_pair
    if blocked is None:
        basis = "l2-equality" if norm_sq == x.l2_sq() else "separated-finite-support"
        return ExtremeCertificate("extreme", basis, norm_sq)
    y, eps = perturbation_witness(x, *blocked)
    return ExtremeCertificate("not-extreme", "blocked-pair", norm_sq, blocked, y, eps)


# two components with long support-free stretches: the first blocked, the second separated
TWO_STRETCHES = TreeVector.from_dict({"0": 2, "0" + "1" * 28: 1, "1": 1, "1" + "0" * 29: -1})


class TestScansOnCuts:
    """The parent-child scan and the certificate read one memoised cut per
    skeleton node and give what the ran-based scan gives: the same pairs in
    the same order, the same gaps and first blocked pair, with and without
    stop_on_blocked, and the same certificate."""

    @staticmethod
    def _assert_matches_reference(x: TreeVector) -> None:
        for stop_on_blocked in (False, True):
            report = is_separated(x, stop_on_blocked=stop_on_blocked)
            expected = _reference_scan(x, stop_on_blocked)
            assert list(report.pair_gaps.items()) == list(expected.pair_gaps.items())
            assert report == expected
        if not x.is_zero():
            assert certify_extreme(x) == _reference_certificate(x)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(signed_sparse())
    @example(EX)
    @example(LEAF_BELOW_STRETCH)
    @example(TINY_CHILD)
    @example(TWO_STRETCHES)
    def test_matches_the_ran_based_scan(self, x):
        self._assert_matches_reference(x)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_x_n(self, n):
        self._assert_matches_reference(full_tree_vector(n))


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


def _descent_sums_per_level(x: TreeVector) -> dict[str, dict[str, Fraction]]:
    """Reference: a branch-sum map at every node with support at or below it.

    Each level copies the maps of its children, so the cost is quadratic
    in chain depth.
    """
    active = {n.path[:k] for n in x.support() for k in range(n.depth + 1)}
    values = {n.path: v for n, v in x.items()}
    memo: dict[str, dict[str, Fraction]] = {}
    for start in values:
        stack = [start]
        while stack:
            p = stack[-1]
            if p in memo:
                stack.pop()
                continue
            kids = [c for c in (p + "0", p + "1") if c in active]
            pending = [c for c in kids if c not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            own = values.get(p, Fraction(0))
            out: dict[str, Fraction] = {}
            if not kids:
                out[p] = own
            else:
                for c in (p + "0", p + "1"):
                    if c in active:
                        for bottom, s in memo[c].items():
                            out[bottom] = own + s
                    else:
                        out[c] = own
            memo[p] = out
    return {n.path: memo[n.path] for n in x.support()}


def _descent_sums_stack_walk(x: TreeVector) -> dict[str, dict[str, Fraction]]:
    """Branch sums as they were before the climb over the support forest,
    kept as the reference.

    Maps are built only at support nodes, deepest first. From p, a walk
    down the support-free stretch below it adds x(p) to every exit it
    passes and to every entry of the maps of the support nodes where it
    stops.
    """
    values = {n.path: v for n, v in x.items()}
    active = range_all_pairs(values)
    memo: dict[str, dict[str, Fraction]] = {}
    for start in sorted(values, key=len, reverse=True):
        own = values[start]
        out: dict[str, Fraction] = {}
        stack = [start]
        while stack:
            p = stack.pop()
            kids = (p + "0", p + "1")
            if not any(c in active for c in kids):
                out[p] = own  # only start can be a leaf: support nodes stop the walk
                continue
            for c in kids:
                if c not in active:
                    out[c] = own  # the branch leaves the support here
                elif c in values:
                    for bottom, s in memo[c].items():
                        out[bottom] = own + s
                else:
                    stack.append(c)
        memo[start] = out
    return {n.path: memo[n.path] for n in x.support()}


@st.composite
def positive_supports(draw) -> TreeVector:
    """Positive values on forests, sparse chains to depth 300 and full trees."""
    paths = draw(support_paths(max_chain=300))
    den = draw(st.integers(1, 4))
    value = st.integers(1, 5).map(lambda k: Fraction(k, den))
    return TreeVector.from_dict({p: draw(value) for p in paths}, max_depth=300)


@st.composite
def valued_supports(draw) -> TreeVector:
    """Positive or signed values on forests, sparse chains and full trees."""
    paths = draw(support_paths(max_chain=60))
    low = draw(st.sampled_from([1, -3]))
    value = st.integers(low, 3).filter(bool)
    return TreeVector.from_dict({p: Fraction(draw(value), 2) for p in paths}, max_depth=60)


class TestDescentSumsDifferential:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(valued_supports())
    @example(TreeVector.zero())
    @example(TreeVector.from_dict({"": 1, "1": 4, "00": 4}))
    @example(TreeVector.from_dict({"01" * k: k + 1 for k in range(0, 121, 20)}, max_depth=240))
    def test_matches_per_level_maps(self, x):
        assert _descent_sums(x) == _descent_sums_per_level(x)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(positive_supports())
    @example(TreeVector.from_dict({"10" * k: k + 1 for k in range(0, 151, 30)}, max_depth=300))
    @example(TreeVector.from_dict({"1" * 300: 2, "1" * 150 + "0": 1}, max_depth=300))
    @example(full_tree_vector(6))
    def test_matches_stack_walk(self, x):
        assert _descent_sums(x) == _descent_sums_stack_walk(x)


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


def _in_canonical_order(keys) -> bool:
    """Whether Nodes, or pairs of Nodes (by u, then v), come in canonical order."""
    keys = list(keys)

    def key(k):
        return k.sort_key() if isinstance(k, Node) else tuple(n.sort_key() for n in k)

    return keys == sorted(keys, key=key)


class TestReportsAreCanonical:
    """Every report map iterates in canonical order, which documents keep."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(signed_sparse())
    @example(TreeVector.from_dict({"": 1, "0": 1, "1": 1, "00": 1, "01": -1, "10": 1}))
    def test_separation_and_isolation(self, x):
        for all_pairs in (False, True):
            for stop_on_blocked in (False, True):
                report = is_separated(x, all_pairs, stop_on_blocked)
                assert _in_canonical_order(report.pair_gaps)
        assert _in_canonical_order(isolatable_nodes(x))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(positive_supports())
    @example(full_tree_vector(3))
    def test_equal_sums_and_greedy_trace(self, x):
        report = equal_sums_report(x)
        assert _in_canonical_order(report.branch_sums)
        assert all(_in_canonical_order(sums) for sums in report.branch_sums.values())
        assert _in_canonical_order(report.sibling_balance)
        for policy in ("lex-min", "lex-max"):
            trace = greedy_partition(x, policy)[1]
            for d in (trace.s_values, trace.chosen, trace.tie_sets):
                assert _in_canonical_order(d)
            assert all(_in_canonical_order(ties) for ties in trace.tie_sets.values())
