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

Certificates and the parent-child scan read one memoised cut per
skeleton edge, and the scan lists its pairs from the skeleton's
stretches (tree._stretches). Every edge of a support-free stretch cuts
like the edge above the skeleton node d below it, so
gap(p[:-1], p) = N - cut(d) for each p on d's stretch
(NormSolver._stretch_gap). The first blocked pair in canonical order is
the top edge of the first blocked stretch, so certify_extreme visits
the stretches in that order, stops at the first blocked one and never
builds ran(x). The all-comparable scan keeps the public gap, which
builds ran(x) to check its nodes.

Perturbations off ran(x) need no check. If ||x +- y|| <= ||x|| and P is
a norming partition, then q_P(x + y) + q_P(x - y) = 2N + 2 q_P(y) <= 2N,
so y sums to 0 on every segment of every norming partition. A norming
partition trimmed to the support stays norming and lies in ran(x), and
adding to it the singleton of a node off ran(x) keeps it norming, so y
vanishes off ran(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import DomainError, InternalError, _shown
from .norm import NormSolver, enumerate_norming
from .tree import Node, _forest, _skeleton, _stretches, canonical_order, comparable_pairs
from .vector import SupportTree, TreeVector

Pair = tuple[Node, Node]


@dataclass
class SeparationReport:
    """The gap of each scanned pair, with pairs in canonical order (of u,
    then of v); first_blocked_pair is the first parent-child pair in that
    order with a positive gap."""

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
    """Branch sums and sibling balances per support node; every map, the
    inner ones too, is keyed in canonical order."""

    holds: bool
    branch_sums: dict[Node, dict[Node, Fraction]]
    sibling_balance: dict[Node, tuple[Fraction, Fraction]]
    sigma: Fraction


def is_separated(x: TreeVector, all_pairs: bool = False) -> SeparationReport:
    """Decide separation by scanning pair gaps over ran(x).

    The default scan covers parent-child pairs only, which decides the
    property; all_pairs additionally scores every comparable pair. The
    report holds the gap of every scanned pair. A caller that needs only
    the verdict or the first blocked pair should call certify_extreme,
    which stops at that pair.
    """
    solver = NormSolver(x)
    if all_pairs:
        pairs = comparable_pairs(Node._of(p) for p in solver.ran)
        gaps = {(u, v): solver.gap(u, v) for u, v in pairs}
    else:
        gaps = {(u, v): g for u, v, g in _edge_gaps(solver)}
    blocked = next(((u, v) for (u, v), g in gaps.items() if g and v.parent() == u), None)
    if blocked is None and any(gaps.values()):
        # cannot happen: a blocked comparable pair forces a blocked
        # parent-child pair (segments are convex)
        raise InternalError("blocked pair without a blocked parent-child pair")
    return SeparationReport(
        separated=blocked is None,
        pair_gaps=gaps,
        first_blocked_pair=blocked,
        mode="all-comparable" if all_pairs else "parent-child",
    )


def _edge_gaps(solver: NormSolver) -> Iterator[tuple[Node, Node, Fraction]]:
    """(parent(v), v, gap) for every non-root range node v, in canonical order of v.

    That is the canonical order of the parent-child pairs (u, v), since
    v's path extends u's. The skeleton's stretches list every such v with
    the skeleton node d at or below it, and each edge of d's stretch cuts
    like the edge above d, so each gap is one memoised cut, read once per d.
    """
    edges = sorted((len(v), v, d) for v, d in _stretches(solver._skel))
    gap_at: dict[str, Fraction] = {}
    node: dict[str, Node] = {}  # each v's Node, reused as the parent of v's children
    for _, v, d in edges:
        if d not in gap_at:
            gap_at[d] = solver._stretch_gap(d)
        node[v] = Node._of(v)
        yield node.get(v[:-1]) or Node._of(v[:-1]), node[v], gap_at[d]


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
        raise DomainError(f"{_shown(repr(v.path))} is not a child of {_shown(repr(u.path))}")
    g = solver.gap(u, v)
    if g == 0:
        raise DomainError(
            f"pair ({_shown(repr(u.path))}, {_shown(repr(v.path))}) is separable; no witness exists"
        )
    return _scaled_witness(solver, u, v, g)


def _scaled_witness(
    solver: NormSolver, u: Node, v: Node, g: Fraction
) -> tuple[TreeVector, Fraction]:
    """perturbation_witness for a range node u, its child v and gap(u, v) = g > 0."""
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

    The first blocked pair in canonical order is the top edge (u, v) of
    the first blocked stretch: u = up(d) and v = d[:len(u) + 1] for a
    non-root skeleton node d. So the skeleton nodes are visited in
    canonical order of (u, v), one memoised cut each, until one is
    blocked; ran(x) is never built.
    """
    if x.is_zero():
        raise DomainError("the zero vector has no extremality certificate")
    solver = NormSolver(x)
    norm_sq = solver.norm_sq()
    tops = sorted((len(u), u, d[:len(u) + 1], d) for d, u in solver._skel.up.items())
    for _, u, v, d in tops:
        g = solver._stretch_gap(d)
        if g > 0:
            blocked = Node(u), Node(v)
            y, eps = _scaled_witness(solver, *blocked, g)
            return ExtremeCertificate(
                verdict="not-extreme",
                basis="blocked-pair",
                norm_sq=norm_sq,
                blocked_pair=blocked,
                witness_y=y,
                epsilon=eps,
            )
    basis = "l2-equality" if norm_sq == x.l2_sq() else "separated-finite-support"
    return ExtremeCertificate(verdict="extreme", basis=basis, norm_sq=norm_sq)


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
    descending chain to the sum of x along it, in canonical order of the
    last nodes. A chain either ends where no support remains below, or
    exits through a support-free sibling wedge one step past the
    populated region; both variants stand in for the infinite branches
    they represent, whose sums they equal.

    The branch ends are the leaves of ran(x), which lie in the support,
    and the exits: the child outside ran(x) of a range node with one
    child in it. They are listed from the skeleton's stretches: a
    skeleton node has at most one skeleton kid on each side, and a
    stretch node is off the skeleton, so the sibling of a range node v
    is an exit iff v's parent has fewer than two skeleton kids. Linked
    with the support into one forest, each end in canonical order climbs
    its support ancestors once and adds the growing sum to the map of
    each, so past sorting the ends the cost is linear in the range plus
    the output.
    """
    values = {n.path: v for n, v in x.items()}
    skel = _forest(sorted(_skeleton(values)))
    kids = skel.kids
    exits = [v[:-1] + "10"[int(v[-1])] for v, _ in _stretches(skel) if len(kids.get(v[:-1], ())) < 2]
    forest = _forest(sorted([*values, *exits]))
    up = forest.up
    sums: dict[str, dict[str, Fraction]] = {p: {} for p in values}
    for end in sorted((p for p in forest.order if not forest.kids[p]), key=len):
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
