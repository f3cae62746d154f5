"""Separation of vectors and extreme-point certificates.

A finite-support vector is separated when every comparable pair of
range nodes lands in different segments of some norming partition,
equivalently when the separation gap vanishes for every pair. Checking
parent-child pairs suffices: a segment is convex, so a partition whose
segment through u avoids u's child toward v also keeps v out.

At finite support, separated is equivalent to being an extreme point of
the ball of the vector's own norm radius. Non-separated vectors get an
explicit perturbation witness y with ||x+y|| = ||x-y|| = ||x|| verified
by exact recomputation, never by a sufficient bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError, InternalError
from .greedy import SupportTree, _support_s_values
from .norm import NormSolver, enumerate_norming, jt_norm_sq
from .tree import (
    Node,
    canonical_order,
    comparable_pairs,
    leq,
    minimal_nodes,
    parent_child_pairs,
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
        separated=blocked is None and all(g == 0 for g in gaps.values()),
        pair_gaps=gaps,
        first_blocked_pair=blocked,
        mode="all-comparable" if all_pairs else "parent-child",
    )


def perturbation_witness(x: TreeVector, u: Node, v: Node) -> tuple[TreeVector, Fraction]:
    """Construct y = eps (e_u - e_v) with ||x + y|| = ||x - y|| = ||x|| exactly.

    Requires v to be a child of u and the pair to be inseparable. The
    scale starts at 1 and halves until the exact perturbed norms match;
    the gap being positive guarantees every small enough eps works.
    """
    return _perturbation(NormSolver(x), u, v)


def _perturbation(solver: NormSolver, u: Node, v: Node) -> tuple[TreeVector, Fraction]:
    if v.parent() != u:
        raise DomainError(f"{v.path!r} is not a child of {u.path!r}")
    if solver.gap(u, v) == 0:
        raise DomainError(
            f"pair ({u.path!r}, {v.path!r}) is separable; no witness exists"
        )
    x = solver.x
    base = solver.norm_sq()
    eps = Fraction(1)
    direction = TreeVector.unit(u) - TreeVector.unit(v)
    for _ in range(64):
        y = direction.scale(eps)
        if (
            NormSolver(x + y).norm_sq() == base
            and NormSolver(x - y).norm_sq() == base
        ):
            return y, eps
        eps /= 2
    raise InternalError(
        "no perturbation scale found in 64 halvings despite a positive gap"
    )


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
    solver = NormSolver(x)
    return {a: solver.isolation_gap(a) == 0 for a in canonical_order(x.support())}


def all_isolatable_implies_l2(x: TreeVector) -> tuple[bool, bool]:
    """(every support node isolatable, norm_sq equals l2_sq).

    The first component implies the second; both are returned so the
    implication can be asserted externally.
    """
    every = all(isolatable_nodes(x).values())
    return every, jt_norm_sq(x).norm_sq == x.l2_sq()


def _descent_sums(x: TreeVector) -> dict[str, dict[str, Fraction]]:
    """Branch sums below every node with support at or below it.

    Returns, for each such node p, a map from the last node of a
    descending chain to the sum of x along it. A chain either ends where
    no support remains below, or exits through a support-free sibling
    wedge one step past the populated region; both variants stand in for
    the infinite branches they represent, whose sums they equal.
    """
    active = {n.path[:k] for n in x.support() for k in range(n.depth + 1)}
    values = {n.path: v for n, v in x.items()}
    memo: dict[str, dict[str, Fraction]] = {}
    # Children before parents, with an explicit stack: chains may be far
    # deeper than the interpreter's recursion limit.
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
                        out[c] = own  # the branch leaves the support here
            memo[p] = out

    return {n.path: memo[n.path] for n in x.support()}


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
    branch_sums = {
        n: {Node(bottom): s for bottom, s in sorted(per_node[n.path].items())}
        for n in canonical_order(x.support())
    }
    holds = all(len(set(d.values())) <= 1 for d in branch_sums.values())

    st = SupportTree(x)
    s_vals = _support_s_values(x, st)
    active = {n.path[:k] for n in x.support() for k in range(n.depth + 1)}

    def wedge_s(path: str) -> Fraction:
        if path not in active:
            return Fraction(0)
        node = Node(path)
        if node in s_vals:
            return s_vals[node]
        heads = minimal_nodes(n for n in st.nodes if leq(node, n))
        return max(s_vals[h] for h in heads)

    balance: dict[Node, tuple[Fraction, Fraction]] = {}
    for n in canonical_order(x.support()):
        if any(c in active for c in (n.path + "0", n.path + "1")):
            balance[n] = (wedge_s(n.path + "0"), wedge_s(n.path + "1"))

    if x.is_zero():
        sigma = Fraction(0)
    else:
        sigma = max(
            max(branch_sums[m].values()) for m in minimal_nodes(x.support())
        )
    return EqualSumsReport(
        holds=holds, branch_sums=branch_sums, sibling_balance=balance, sigma=sigma
    )
