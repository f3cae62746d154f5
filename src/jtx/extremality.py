"""Separation of vectors and extreme-point certificates.

A finite-support vector is separated when every comparable pair of
range nodes lands in different segments of some norming partition,
equivalently when the separation gap vanishes for every pair. Checking
parent-child pairs suffices: a segment is convex, so a partition whose
segment through u avoids u's child toward v also keeps v out.

At finite support, separated is equivalent to being an extreme point of
the ball of the vector's own norm radius. Non-separated vectors get an
explicit perturbation witness y = eps (e_u - e_v) on a blocked
parent-child pair (u, v) with ||x+y|| = ||x-y|| = ||x||, checked exactly,
never by a sufficient bound. With squared norm N, a partition that keeps
u and v in one segment scores the same on x +- y as on x, where y sums
to zero on that segment, and the best of them scores N as the gap is
positive. So ||x +- y||^2 = max(N, C+-), where C+- is the best score on
x +- y of the partitions that cut the edge (u, v), read from the
solver's cached tables and contexts (NormSolver._keeps_norm): eps works
iff C+ <= N and C- <= N. The tests and the benchmark's correctness gate
still recompute ||x +- y|| with fresh solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError, InternalError
from .greedy import SupportTree
from .norm import NormSolver, enumerate_norming
from .tree import (
    Node, _forest, canonical_order, comparable_pairs, parent_child_pairs, range_paths
)
from .vector import TreeVector

Pair = tuple[Node, Node]


@dataclass
class SeparationReport:
    separated: bool
    pair_gaps: dict[Pair, Fraction]
    first_blocked_pair: Optional[Pair]
    mode: str  # "parent-child" or "all-comparable"


@dataclass
class ExtremeCertificate:
    verdict: str  # "extreme" or "not-extreme"
    basis: str  # "l2-equality", "separated-finite-support" or "blocked-pair"
    norm_sq: Fraction
    blocked_pair: Optional[Pair] = None
    witness_y: Optional[TreeVector] = None
    epsilon: Optional[Fraction] = None


@dataclass
class EqualSumsReport:
    holds: bool
    branch_sums: dict[Node, dict[Node, Fraction]]
    sibling_balance: dict[Node, tuple[Fraction, Fraction]]
    sigma: Fraction


def is_separated(
    x: TreeVector, all_pairs: bool = False, stop_on_blocked: bool = False
) -> SeparationReport:
    """Decide separation by scanning pair gaps over ran(x).

    The default scan covers parent-child pairs only, which decides the
    property; all_pairs additionally scores every comparable pair.
    stop_on_blocked abandons the scan at the first positive gap, leaving
    pair_gaps partial.
    """
    return _separation_scan(NormSolver(x), all_pairs, stop_on_blocked)


def _separation_scan(
    solver: NormSolver, all_pairs: bool, stop_on_blocked: bool
) -> SeparationReport:
    ran = [Node(p) for p in solver.ran]
    pairs = comparable_pairs(ran) if all_pairs else parent_child_pairs(ran)
    gaps: dict[Pair, Fraction] = {}
    blocked: Optional[Pair] = None
    for u, v in pairs:
        g = solver.gap(u, v)
        gaps[(u, v)] = g
        if g > 0 and blocked is None and v.parent() == u:
            blocked = (u, v)
            if stop_on_blocked:
                break
    if blocked is None and any(g > 0 for g in gaps.values()):
        # cannot happen: a blocked comparable pair forces a blocked
        # parent-child pair (segments are convex)
        raise InternalError("blocked pair without a blocked parent-child pair")
    return SeparationReport(
        separated=blocked is None,
        pair_gaps=gaps,
        first_blocked_pair=blocked,
        mode="all-comparable" if all_pairs else "parent-child",
    )


def perturbation_witness(x: TreeVector, u: Node, v: Node) -> tuple[TreeVector, Fraction]:
    """Construct y = eps (e_u - e_v) with ||x + y|| = ||x - y|| = ||x|| exactly.

    Requires v to be a child of u and the pair to be inseparable. The
    scale starts at 1 and halves until the exact perturbed norms match.
    Each scale is checked exactly through max(N, C+-) on the cached cut
    tables (see the module docstring); the tests recompute both norms
    with fresh solves. With gap g and squared norm N, every
    eps <= g / (2 sqrt(2N)) works: the norming partitions keep u and v
    in one segment, where y sums to zero, and every partition that
    splits them scores at most N - g on x and at most 2 eps^2 on y,
    while each sqrt(q_P) is a seminorm. So the halving stops by the
    least k with g^2 * 4^k >= 8N, and a failure there is an internal
    error.
    """
    return _perturbation(NormSolver(x), u, v)


def _perturbation(solver: NormSolver, u: Node, v: Node) -> tuple[TreeVector, Fraction]:
    if v.parent() != u:
        raise DomainError(f"{v.path!r} is not a child of {u.path!r}")
    g = solver.gap(u, v)
    if g == 0:
        raise DomainError(
            f"pair ({u.path!r}, {v.path!r}) is separable; no witness exists"
        )
    keeps = solver._keeps_norm(u.path, v.path)
    eps = Fraction(1)
    k_max = _halving_bound(g, solver.norm_sq())
    for _ in range(k_max + 1):
        if keeps(eps.denominator):
            return (TreeVector.unit(u) - TreeVector.unit(v)).scale(eps), eps
        eps /= 2
    raise InternalError(
        f"no perturbation scale found in {k_max} halvings despite a positive gap"
    )


def _halving_bound(g: Fraction, norm_sq: Fraction) -> int:
    """The least k with g^2 * 4^k >= 8 norm_sq, so that 2^-k <= g / (2 sqrt(2 norm_sq)).

    4^k >= c for the integer c = ceil(8 norm_sq / g^2) iff 2k is at
    least the bit length of c - 1.
    """
    c = -(-8 * norm_sq // (g * g))
    return ((c - 1).bit_length() + 1) // 2


def certify_extreme(x: TreeVector) -> ExtremeCertificate:
    """Certificate for extremality of a nonzero finite-support vector.

    Separated vectors are extreme; the basis records when the cheaper
    l2-equality criterion already applies. Non-separated vectors come
    with a verified perturbation witness on the first blocked pair.
    """
    if x.is_zero():
        raise DomainError("the zero vector has no extremality certificate")
    solver = NormSolver(x)
    norm_sq = solver.norm_sq()
    report = _separation_scan(solver, all_pairs=False, stop_on_blocked=True)
    if report.separated:
        basis = "l2-equality" if norm_sq == x.l2_sq() else "separated-finite-support"
        return ExtremeCertificate(verdict="extreme", basis=basis, norm_sq=norm_sq)
    u, v = report.first_blocked_pair
    y, eps = _perturbation(solver, u, v)
    return ExtremeCertificate(
        verdict="not-extreme",
        basis="blocked-pair",
        norm_sq=norm_sq,
        blocked_pair=(u, v),
        witness_y=y,
        epsilon=eps,
    )


def vanishes_on_all_norming(
    x: TreeVector, y: TreeVector, cap: int | None = None
) -> bool:
    """True iff y sums to zero on every segment of every norming partition of x."""
    for partition in enumerate_norming(x, cap):
        for seg in partition.segments:
            if y.segment_sum(seg) != 0:
                return False
    return True


def isolatable_nodes(x: TreeVector) -> dict[Node, bool]:
    """For each support node, whether some norming partition isolates it."""
    return _isolation_report(NormSolver(x))[0]


def all_isolatable_implies_l2(x: TreeVector) -> tuple[bool, bool]:
    """(every support node isolatable, norm_sq equals l2_sq).

    The first component implies the second; both are returned so the
    implication can be asserted externally.
    """
    _, every, l2_match = _isolation_report(NormSolver(x))
    return every, l2_match


def _isolation_report(solver: NormSolver) -> tuple[dict[Node, bool], bool, bool]:
    """Per-node isolatability, then both flags of all_isolatable_implies_l2.

    The isolation gaps solve the unconstrained DP, so the norm comes free.
    """
    x = solver.x
    per_node = {a: solver.isolation_gap(a) == 0 for a in canonical_order(x.support())}
    return per_node, all(per_node.values()), solver.norm_sq() == x.l2_sq()


def _descent_sums(x: TreeVector) -> dict[str, dict[str, Fraction]]:
    """Branch sums below every support node.

    Returns, for each support node p, a map from the last node of a
    descending chain to the sum of x along it. A chain either ends where
    no support remains below, or exits through a support-free sibling
    wedge one step past the populated region; both variants stand in for
    the infinite branches they represent, whose sums they equal.

    The branch ends are the leaves of ran(x), which lie in the support,
    and the exits: the child outside ran(x) of a range node with one
    child in it. Linked with the support into one forest, each end
    climbs its support ancestors once and adds the growing sum to the
    map of each, so the cost is linear in the range plus the output.
    """
    values = {n.path: v for n, v in x.items()}
    ran = range_paths(values)
    exits = []
    for p in ran:
        zero, one = p + "0", p + "1"
        if (zero in ran) != (one in ran):
            exits.append(one if zero in ran else zero)
    forest = _forest(sorted([*values, *exits]))
    up = forest.up
    sums: dict[str, dict[str, Fraction]] = {p: {} for p in values}
    for end in forest.order:
        if forest.kids[end]:
            continue
        p = end if end in values else up[end]  # an exit carries 0
        total = sums[p][end] = values[p]
        while p in up:
            p = up[p]
            total = sums[p][end] = total + values[p]
    return sums


def equal_sums_report(x: TreeVector) -> EqualSumsReport:
    """Check that all descending branch sums agree at every support node.

    Also records, per non-maximal support node, the pair of maximal
    segment sums of the two ambient-tree children (zero when a child's
    wedge misses the support), and the maximal branch sum from the
    minimal support nodes.

    `holds` is branch-sum equality; separation does not imply it.
    `sibling_balance` is the form that does hold for separated positives.
    """
    x.require_positive("equal_sums_report")
    per_node = _descent_sums(x)
    st = SupportTree(x)
    branch_sums = {
        n: {Node(bottom): s for bottom, s in per_node[n.path].items()}
        for n in st.nodes
    }
    holds = all(len(set(d.values())) <= 1 for d in branch_sums.values())
    balance = {
        n: (st.s_at(n.child(0)), st.s_at(n.child(1)))
        for n in st.nodes
        if st.children[n]
    }
    sigma = max((max(branch_sums[m].values()) for m in st.roots), default=Fraction(0))
    return EqualSumsReport(
        holds=holds, branch_sums=branch_sums, sibling_balance=balance, sigma=sigma
    )
