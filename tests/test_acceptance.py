"""Acceptance criteria, one test per criterion.

Each test evaluates its criterion end to end, prints one [PASS]/[FAIL]
line, and carries failure samples in the assertion message. Stated
runtime budgets are measured and enforced. Random suites use fixed
seeds; instance batches are shared between criteria exactly as the
criteria reference each other (3 feeds 5 and 8, 2 and 4 feed 7).

Criterion 7 note: branch-sum equality (`EqualSumsReport.holds`) is not
implied by separation. Separated, extreme positive vectors with unequal
branch sums occur in the fixed suite (4 of 116), among them
`e_root/4 + e_1 + e_00`. The criterion therefore checks the forms that
hold: sibling balance and an "extreme" certificate on every separated
positive instance, and branch-sum equality on those with supp = ran.
The unequal-sum instances are printed in the [PASS] line, and the
counterexample is pinned explicitly, so the refutation stays visible.

Criterion 9 referees the extremality verdicts with
`helpers.extreme_by_zero_gap_graph`, which reads only the vector's
entries. Its line prints how many of the seeded vectors are extreme and
how many disagree; a disagreement fails the criterion.

Criterion 10 referees jt_norm_sq's positive path, one heaviest-child
walk, with the DP that NormSolver runs on every input. Its line prints
how many of the seeded positive vectors have a tie of S, on how many
the greedy lex-min partition differs from the walk's witness (the two
tie picks differ), and how many disagree with the DP; a disagreement
fails the criterion. The equality is empirical.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from helpers import (
    antichain_vector,
    chain_vector,
    extreme_by_zero_gap_graph,
    full_tree_vector,
    incomparable_segments_vector,
    maximal_head_segment,
    random_mixed,
    random_positive,
    random_signed,
    tie_heavy,
)

from jtx import (
    Node,
    NormSolver,
    Partition,
    Segment,
    TreeVector,
    certify_extreme,
    complete_closure,
    consistent_with_greedy,
    enumerate_norming,
    equal_sums_report,
    forced_segment_is_norming,
    gap,
    greedy_partition,
    is_separated,
    jt_norm_sq,
    minimal_nodes,
    oracle_norm_sq,
    parent_child_pairs,
    perturbation_witness,
    recursive_norm_check,
    score,
    vanishes_on_all_norming,
)

_cache: dict[str, list[TreeVector]] = {}


def _suite2() -> list[TreeVector]:
    return [full_tree_vector(n) for n in (1, 2, 3)]


def _suite3() -> list[TreeVector]:
    if "s3" not in _cache:
        rng = random.Random(20250808)
        _cache["s3"] = [random_signed(rng, max_depth=4, max_ran=11) for _ in range(500)]
    return _cache["s3"]


def _suite4() -> list[TreeVector]:
    if "s4" not in _cache:
        rng = random.Random(40408)
        _cache["s4"] = [
            random_positive(rng, max_depth=6, max_density=0.6) for _ in range(500)
        ]
    return _cache["s4"]


def _report(label: str, failures: list, elapsed: float, budget: float | None = None,
            extra: str = "") -> None:
    ok = not failures and (budget is None or elapsed < budget)
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if extra:
        line += f" | {extra}"
    line += f" | {elapsed:.2f}s"
    if budget is not None:
        line += f" (budget {budget:.0f}s)"
    print(line, flush=True)
    assert ok, (label, f"{len(failures)} failures", failures[:3], f"{elapsed:.2f}s")


def _oracle_separated(x: TreeVector) -> bool:
    """Separation decided from the enumerated norming partitions alone."""
    partitions = enumerate_norming(x, cap=20)
    for u, v in parent_child_pairs(x.range()):
        if not any(
            all(not (u in s and v in s) for s in p.segments) for p in partitions
        ):
            return False
    return True


def test_criterion_1_worked_example_exactness():
    t0 = time.monotonic()
    failures = []
    x = TreeVector.from_dict({"": 1, "00": 1, "01": 1})
    root, zero = Node(""), Node("0")

    if jt_norm_sq(x).norm_sq != 5:
        failures.append(("norm_sq", jt_norm_sq(x).norm_sq))
    expected = {
        Partition.of(Segment(root, Node("00")), Segment(Node("01"), Node("01"))),
        Partition.of(Segment(root, Node("01")), Segment(Node("00"), Node("00"))),
    }
    if enumerate_norming(x) != expected:
        failures.append(("enumerate_norming", enumerate_norming(x)))
    if gap(x, root, zero) != 2:
        failures.append(("gap(root,0)", gap(x, root, zero)))
    for u, v in [(root, Node("00")), (root, Node("01")), (Node("00"), Node("01"))]:
        if gap(x, u, v) != 0:
            failures.append((f"gap({u.path},{v.path})", gap(x, u, v)))
    if is_separated(x).separated:
        failures.append(("separated", True))
    if certify_extreme(x).verdict != "not-extreme":
        failures.append(("verdict", certify_extreme(x).verdict))

    _report("criterion 1: worked example exactness", failures,
            time.monotonic() - t0, budget=1.0)


def test_criterion_2_full_trees_extreme():
    t0 = time.monotonic()
    failures = []
    for n, x in enumerate(_suite2(), start=1):
        report = is_separated(x)
        cert = certify_extreme(x)
        if not report.separated:
            failures.append((n, "not separated"))
        if cert.verdict != "extreme":
            failures.append((n, cert.verdict))
        if n <= 2:
            if oracle_norm_sq(x, cap=13) != jt_norm_sq(x).norm_sq:
                failures.append((n, "oracle norm mismatch"))
            if not _oracle_separated(x):
                failures.append((n, "oracle separation mismatch"))
    _report("criterion 2: x_n extreme for n=1,2,3", failures,
            time.monotonic() - t0, budget=30.0)


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    failures = []
    for i, x in enumerate(_suite3()):
        res = jt_norm_sq(x)
        check = oracle_norm_sq(x)
        if res.norm_sq != check:
            failures.append((i, x, res.norm_sq, check))
        elif score(x, res.witness) != res.norm_sq:
            failures.append((i, x, "witness score mismatch"))
    _report("criterion 3: 500 signed instances, DP == oracle", failures,
            time.monotonic() - t0, budget=300.0)


def test_criterion_4_greedy_suite():
    t0 = time.monotonic()
    failures = []
    consistency_checked = 0
    for i, x in enumerate(_suite4()):
        partition, _ = greedy_partition(x)
        base = jt_norm_sq(x).norm_sq
        if score(x, partition) != base:
            failures.append((i, x, "greedy score"))
            continue
        for a in x.support():
            if not recursive_norm_check(x, a):
                failures.append((i, x, "recursion", a))
                break
        if len(x.range()) <= 13:
            for p in enumerate_norming(x):
                ok, violations = consistent_with_greedy(x, p)
                consistency_checked += 1
                if not ok:
                    failures.append((i, x, "inconsistent norming partition", p))
    _report("criterion 4: 500 positive instances, greedy norming + recursion",
            failures, time.monotonic() - t0,
            extra=f"{consistency_checked} norming partitions consistency-checked")


def test_criterion_5_characterization_suite():
    t0 = time.monotonic()
    failures = []
    witnesses = 0
    for i, x in enumerate(_suite3()):
        report = is_separated(x)
        if report.separated:
            continue
        u, v = report.first_blocked_pair
        y, eps = perturbation_witness(x, u, v)
        base = jt_norm_sq(x).norm_sq
        if y.is_zero() or eps <= 0:
            failures.append((i, x, "degenerate witness"))
        elif jt_norm_sq(x + y).norm_sq != base or jt_norm_sq(x - y).norm_sq != base:
            failures.append((i, x, "perturbed norm mismatch"))
        elif not vanishes_on_all_norming(x, y):
            failures.append((i, x, "witness sum not vanishing"))
        else:
            witnesses += 1
    if witnesses < 100:
        failures.append(("too few non-separated instances", witnesses))
    _report("criterion 5: perturbation witnesses on all non-separated instances",
            failures, time.monotonic() - t0, extra=f"{witnesses} witnesses verified")


def test_criterion_6_law_suites():
    t0 = time.monotonic()
    failures = []

    rng = random.Random(601)
    for i in range(200):  # restriction monotonicity
        x = random_signed(rng, max_depth=4, max_ran=11)
        sub = complete_closure(n for n in x.range() if rng.random() < 0.6)
        if jt_norm_sq(x.restrict(sub)).norm_sq > jt_norm_sq(x).norm_sq:
            failures.append(("restriction", i, x, sorted(sub)))

    rng = random.Random(602)
    hits = 0
    for i in range(200):  # l2 equality forces separation and extremality
        x = antichain_vector(rng) if i % 2 == 0 else random_signed(
            rng, max_depth=3, max_ran=9
        )
        if jt_norm_sq(x).norm_sq != x.l2_sq():
            continue
        hits += 1
        if not is_separated(x).separated:
            failures.append(("l2=>separated", i, x))
        elif certify_extreme(x).verdict != "extreme":
            failures.append(("l2=>extreme", i, x))
    if hits < 50:
        failures.append(("l2 law vacuous", hits))

    rng = random.Random(603)
    for i in range(200):  # single branch: separated iff l2 equality
        x = chain_vector(rng)
        if is_separated(x).separated != (jt_norm_sq(x).norm_sq == x.l2_sq()):
            failures.append(("single-branch", i, x))

    rng = random.Random(604)
    inc_hits = 0
    for i in range(200):  # incomparable segment supports: separated => l2
        x = incomparable_segments_vector(rng)
        if is_separated(x).separated:
            inc_hits += 1
            if jt_norm_sq(x).norm_sq != x.l2_sq():
                failures.append(("incomparable", i, x))
    if inc_hits < 30:
        failures.append(("incomparable law vacuous", inc_hits))

    rng = random.Random(605)
    iso_hits = 0
    for i in range(200):  # all-isolatable => l2
        x = antichain_vector(rng) if i % 3 == 0 else random_signed(
            rng, max_depth=3, max_ran=9
        )
        from jtx import all_isolatable_implies_l2

        every, l2_match = all_isolatable_implies_l2(x)
        if every:
            iso_hits += 1
            if not l2_match:
                failures.append(("isolatable", i, x))
    if iso_hits < 30:
        failures.append(("isolatable law vacuous", iso_hits))

    rng = random.Random(606)
    for i in range(200):  # minimal-node forced segments are norming
        x = random_positive(rng, max_depth=4)
        head = minimal_nodes(x.support())[0]
        seg = maximal_head_segment(x, head)
        if not forced_segment_is_norming(x, seg):
            failures.append(("forced-segment", i, x, seg))

    _report("criterion 6: six law suites, 200 instances each", failures,
            time.monotonic() - t0)


def test_criterion_7_equal_sums_suite():
    t0 = time.monotonic()
    failures = []
    separated_count = 0
    complete_count = 0
    unequal: list[int] = []
    for i, x in enumerate(_suite2() + _suite4()):
        if not is_separated(x).separated:
            continue
        separated_count += 1
        report = equal_sums_report(x)
        for node, (a, b) in report.sibling_balance.items():
            if a != b:
                failures.append((i, x, "sibling imbalance", node))
        if certify_extreme(x).verdict != "extreme":
            failures.append((i, x, "separated but not certified extreme"))
        if x.support() == x.range():
            complete_count += 1
            if not report.holds:
                failures.append((i, x, "supp = ran but branch sums differ",
                                 report.branch_sums))
        if not report.holds:
            unequal.append(i)
    if complete_count < 50:
        failures.append(("supp = ran clause vacuous", complete_count))

    counter = equal_sums_report(TreeVector.from_dict({"": 1, "0": 1}))
    if counter.holds:
        failures.append(("two-chain counterexample reported holds=true",))

    # separated, extreme and sibling-balanced, yet its branch sums differ:
    # branch-sum equality is not implied by separation when supp != ran
    x = TreeVector.from_dict({"": "1/4", "1": 1, "00": 1})
    report = equal_sums_report(x)
    if not is_separated(x).separated or not _oracle_separated(x):
        failures.append(("README counterexample", "not separated"))
    if certify_extreme(x).verdict != "extreme":
        failures.append(("README counterexample", "not extreme"))
    if report.sibling_balance != {Node(""): (Fraction(1), Fraction(1))}:
        failures.append(("README counterexample", report.sibling_balance))
    if report.holds:
        failures.append(("README counterexample", "holds=true"))
    expected_sums = {
        Node("00"): Fraction(5, 4), Node("01"): Fraction(1, 4), Node("1"): Fraction(5, 4),
    }
    if report.branch_sums[Node("")] != expected_sums:
        failures.append(("README counterexample", report.branch_sums[Node("")]))

    _report("criterion 7: equal sums on separated positives", failures,
            time.monotonic() - t0,
            extra=f"{separated_count} separated instances scanned, "
                  f"{complete_count} with supp = ran; "
                  f"{len(unequal)} with unequal branch sums {unequal}")


def test_criterion_8_adjacent_pair_reduction():
    t0 = time.monotonic()
    failures = []
    for i, x in enumerate(_suite3()):
        if is_separated(x).separated != is_separated(x, all_pairs=True).separated:
            failures.append((i, x))
    _report("criterion 8: parent-child scan equals all-pairs scan", failures,
            time.monotonic() - t0)


def test_criterion_9_zero_gap_graph_referee():
    """The separation and certificate verdicts against the connectivity of
    the zero-gap segment graph, which reads nothing of the engine but the
    vector's entries; every disagreement is a failure."""
    t0 = time.monotonic()
    failures = []
    rng = random.Random(7)
    corpus = [random_signed(rng, max_depth=3, max_ran=9) for _ in range(300)]
    corpus += [random_positive(rng, max_depth=3) for _ in range(300)]
    extreme_count = 0
    for i, x in enumerate(corpus):
        extreme = extreme_by_zero_gap_graph(x)
        extreme_count += extreme
        if is_separated(x).separated != extreme:
            failures.append((i, x, "is_separated disagrees", extreme))
        if (certify_extreme(x).verdict == "extreme") != extreme:
            failures.append((i, x, "certify_extreme disagrees", extreme))
    _report("criterion 9: verdicts equal zero-gap graph connectivity", failures,
            time.monotonic() - t0,
            extra=f"{len(corpus)} vectors, {extreme_count} connected (extreme), "
                  f"{len(failures)} disagreements")


def test_criterion_10_positive_walk_equals_dp():
    """jt_norm_sq's heaviest-child walk against NormSolver(x).solve() on
    positive vectors, norm and witness; every disagreement is a failure."""
    t0 = time.monotonic()
    failures = []
    rng = random.Random(24)
    corpus = [random_positive(rng, max_depth=6) for _ in range(300)]
    corpus += [random_mixed(rng, max_depth=5, max_ran=40) for _ in range(300)]
    corpus += [tie_heavy(rng, max_depth=5) for _ in range(600)]
    tied = picks_differ = 0
    for i, x in enumerate(corpus):
        walk = jt_norm_sq(x)
        if walk != NormSolver(x).solve():
            failures.append((i, x))
        partition, trace = greedy_partition(x)
        tied += any(len(ties) > 1 for ties in trace.tie_sets.values())
        picks_differ += partition != walk.witness
    _report("criterion 10: positive norms by the heaviest-child walk equal the DP",
            failures, time.monotonic() - t0,
            extra=f"{len(corpus)} vectors, {tied} with a tie of S, {picks_differ} where "
                  f"lex-min picks otherwise, {len(failures)} disagreements")
