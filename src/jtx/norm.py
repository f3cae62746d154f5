"""Exact computation of the squared JT norm and constrained variants.

The squared norm of a finite-support vector is the maximum, over all
families of pairwise disjoint segments, of the sum of squared segment
sums. Only canonical segments matter: any segment can be trimmed to the
convex hull of its intersection with the support without changing its
sum, trimming preserves pairwise disjointness, and trimming never breaks
a separation constraint (segments only shrink). So every optimum, and
every constrained optimum, is attained on partitions whose segment
endpoints all lie in the support. Forced segments are the one exception
and are kept verbatim.

The engine is a bottom-up dynamic program over the range of the vector
(a forest of binary trees). The objective is quadratic in the sum of
the one segment still open through the current node, so the state per
node is a table keyed by that open sum: dominated entries (same sum,
lower score) collapse automatically, and a node may also be left out of
every segment. Scalars are rescaled to integers by the common
denominator of the entries, which keeps every comparison exact.

Separation pairs ride on the open segment as a mask: the sorted tuple of
the indices of the pairs whose lower node it holds. Keys (open sum, mask)
therefore sort natively, and that order fixes every tie-break below.

Tables hold scores only, and a node's closed best is computed once,
with its table. An open entry keeps the first offer to reach its score,
so the witness walk needs no stored choices: at each node it replays the
offers in order and takes the first that scores the stored entry.

The DP runs on the skeleton of the range: the support plus every range
node with two range children, at most 2 |supp| - 1 nodes, each linked
to its nearest ancestor among them (unary-path compression, as in
Patricia tries). Every other range node lies on a support-free stretch:
it carries 0 and has one range child, and no canonical segment ends on
it, so its table would repeat its child's entries with the same keys
and scores. Skipping it is therefore exact, and a pass, a witness or a
cut query costs O(|skeleton| * table) however deep the chains run.

Gaps and forced segments reuse the unconstrained tables. Separating a
child v from its parent cuts the edge above v, so
gap(parent(v), v) = norm - closed(v) - outside(v): closed(v) is read
from v's table, and outside(v), the best score on ran minus subtree(v),
comes from a top-down pass over the skeleton (rerooting, as for tree
DPs). Each skeleton node memoises a context: outside(v), and above(v),
the best outside score per sum gathered above v by a segment that
crosses the edge above v. A child's context takes one visit of its
parent without it against the cached sibling tables, then combines that
visit's open entries with the parent's context. Every edge of a stretch
cuts like the edge above the skeleton node below it. A partition
separates comparable u < v iff it cuts an edge between them, so
gap(u, v) is the least parent-child gap on that path. A forced segment,
a node isolation included, cuts the edges above and below it alike.
The two sides of one cut edge also score it after its two ends move
by opposite amounts (_keeps_norm), which decides a perturbation scale
for extremality.py without a solve.

The constrained DP serves only the public solve(constraints) and
norm_sq(constraints). It splices the pair endpoints and forced tops and
bottoms that lie off the skeleton into the forest for that solve. It
then cuts each forced segment out, as forced_gap does: the segment's
chain leaves the forest, every subtree hanging off it becomes a
component of its own, and the segment adds its s^2. Separation masks
are therefore the one constraint the tables see.

On a positive vector, jt_norm_sq skips the DP and takes the paper's
characterization of positive vectors: SupportTree computes S(n), the
largest sum of a downward segment from each support node n, and one
heaviest-child walk (_heaviest_walk) links each support node to an
induced child of largest S. Each node that no node picked heads a
segment, which sums to S(head), so the squared norm is the sum of
S(h)^2 over the heads. On a tie of S, jt_norm_sq picks the first child
in lexicographic (bit-0 first) order, as the DP's witness does, and
greedy_partition picks by its tie policy. NormSolver stays the DP for
every input and referees the walk in the tests: norm and witness have
been equal on every positive vector tried, an empirical equality.

A brute-force oracle enumerates all canonical families outright on
small instances and shares no shortcut with the dynamic program. It is
one depth-first loop on an explicit stack that scores each disjoint
family once, when it pops it: no bound, no pruning and no memo.

Tie policy for witness extraction, applied wherever two choices give
equal score: prefer leaving a child subtree closed over closing a
through-segment with the same value (this omits zero-sum segments),
prefer starting a fresh segment over extending a zero-sum one, and
prefer extending toward the bit-0 child.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Union

from .errors import CapError, DomainError, InfeasibleError, InvalidPartitionError, _shown
from .tree import Node, Segment, _Forest, _expand, _forest, _skeleton, leq, segments_disjoint
from .vector import SupportTree, TreeVector

# Exhaustive family enumeration grows super-exponentially; refuse above this
# many range nodes unless the caller raises the cap explicitly.
ORACLE_NODE_CAP = 13


@dataclass(frozen=True)
class Partition:
    """A finite family of pairwise disjoint segments."""

    segments: frozenset[Segment]

    def __post_init__(self) -> None:
        """Reject overlapping segments in one stack pass after an O(k log k) sort.

        Two chains meet iff the top of one lies in the other. Each top is
        tested only against the segment with the nearest top at or above
        it (the latest in canonical order, for an equal top): a farther
        segment holding it would also hold that nearest top, an overlap
        already caught at the nearest top's own test. In lexicographic
        order of tops a stack finds that segment, as in tree._forest.
        The report names the offender that comes first in canonical order.
        """
        clashes = []
        stack: list[Segment] = []
        for seg in sorted(self.segments, key=lambda s: (s.top.path, len(s.bottom.path), s.bottom.path)):
            t = seg.top.path
            while stack and not t.startswith(stack[-1].top.path):
                stack.pop()
            if stack and stack[-1].bottom.path.startswith(t):
                clashes.append((seg.sort_key(), stack[-1], seg))
            stack.append(seg)
        if clashes:
            _, nearest, seg = min(clashes)
            raise InvalidPartitionError(
                f"segments overlap: {_shown(repr(nearest))} and {_shown(repr(seg))}"
            )

    @classmethod
    def of(cls, *segments: Segment) -> Partition:
        """The partition of these segments; one listed twice overlaps its
        own copy, which a set would merge, and the first such in canonical
        order is reported."""
        ordered = sorted(segments, key=Segment.sort_key)
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                shown = _shown(repr(a))
                raise InvalidPartitionError(f"segments overlap: {shown} and {shown}")
        return cls(frozenset(ordered))

    @classmethod
    def _of(cls, segments: frozenset[Segment]) -> Partition:
        """A family the engine built disjoint, so it is not checked again."""
        part = object.__new__(cls)
        object.__setattr__(part, "segments", segments)
        return part

    def sorted_segments(self) -> list[Segment]:
        return sorted(self.segments, key=Segment.sort_key)

    def __iter__(self):
        return iter(self.sorted_segments())

    def __len__(self) -> int:
        return len(self.segments)

    def __repr__(self) -> str:
        """The dataclass form with the segments in canonical order, so
        equal partitions print alike whatever their set's iteration order."""
        if not self.segments:
            return "Partition(segments=frozenset())"
        inner = ", ".join(map(repr, self.sorted_segments()))
        return f"Partition(segments=frozenset({{{inner}}}))"


EMPTY_PARTITION = Partition(frozenset())


@dataclass(frozen=True)
class SeparatePair:
    """Require that no segment of the partition contain both nodes."""

    u: Node
    v: Node


@dataclass(frozen=True)
class IsolateNode:
    """Require that the singleton segment [node, node] be in the partition."""

    node: Node


@dataclass(frozen=True)
class ForceSegment:
    """Require that exactly this segment be in the partition."""

    segment: Segment


Constraint = Union[SeparatePair, IsolateNode, ForceSegment]


@dataclass(frozen=True)
class NormResult:
    norm_sq: Fraction
    witness: Partition


def score(x: TreeVector, p: Partition) -> Fraction:
    """Sum over the partition's segments of the squared segment sum."""
    return sum((x.segment_sum(s) ** 2 for s in p.segments), Fraction(0))


class _SepSpec:
    """Comparable separation pairs, indexed for the DP masks.

    Pair i is (upper node, lower node). upper_at maps a node to the set
    of the pairs whose upper node it is, and lower_at to the increasing
    tuple of those whose lower node it is, so the masks built from
    lower_at stay sorted tuples of pair indices.
    """

    __slots__ = ("upper_at", "lower_at")

    def __init__(self, pairs: list[tuple[str, str]]):
        self.upper_at: dict[str, frozenset[int]] = {}
        self.lower_at: dict[str, tuple[int, ...]] = {}
        for i, (u, v) in enumerate(pairs):
            self.upper_at[u] = self.upper_at.get(u, frozenset()) | {i}
            self.lower_at[v] = self.lower_at.get(v, ()) + (i,)


# The empty separation set, shared by every unconstrained solve.
_NO_SEP = _SepSpec([])

# A node's DP table (done, opens, closed, closing), scores only:
# done:    the best score with no segment passing up through the node;
# opens:   {(open sum, mask): score} with one segment open through the node,
#          its square not yet counted; the mask is the sorted tuple of the
#          pairs whose lower node that segment holds;
# closed:  the best score with nothing open above the node;
# closing: the key of the segment closing at the node for closed, or None.
_Table = tuple


class NormSolver:
    """DP engine bound to one vector; answers many constrained queries.

    Building the solver precomputes the scaled entries and the range's
    skeleton, and solves the unconstrained DP, so callers that probe
    many constraint sets (gap scans, separation checks) pay the
    structural cost a single time. The range itself is read off the
    skeleton, by expanding its stretches (tree._expand), on the first
    read of `ran`, by a query that tests nodes against it.

    The skeleton (tree._skeleton) is the support plus every range node
    with two range children: at most 2 |supp| - 1 nodes, whatever the
    depth. Every DP pass, witness and cut query walks only the skeleton
    forest (kids and up), so it costs O(|skeleton| * table) rather than
    O(|ran|); the module docstring says why skipping the other range
    nodes is exact.
    A constrained solve splices its pair endpoints and forced tops and
    bottoms into the forest for that solve, then cuts each forced
    segment's chain out of it. Tables keep scores only; solve() finds
    its witness by replaying the offers at each node it walks down.

    The unconstrained solve keeps its DP tables, and the gap and
    forced-segment queries are answered from them. Separating a child v
    from its parent cuts the edge above v, so

        gap(parent(v), v) = norm - closed(v) - outside(v)

    where closed(v) is the best score of subtree(v) with nothing open
    into the parent, read from v's cached table, and outside(v) is the
    best score on ran minus subtree(v). outside(v) is read from v's
    context, which the solver fills top down from the nearest ancestor
    whose context is memoised (a component root starts from the other
    components' cached bests). Each context costs one visit of the
    parent without the child, so a single query costs O(depth) visits
    and a full scan one visit per skeleton edge. Every edge of a
    support-free stretch cuts like the edge above the skeleton node
    below the stretch, so each cut is scored once per skeleton node and
    memoised. A partition separates comparable u < v iff it cuts an edge
    between them, so gap(u, v) is the least of those edge gaps.
    A forced segment [t, b] cuts the edges above t and below b. Its best
    score is outside(d), for d the first skeleton node at or below t,
    plus s^2 for its sum s, plus closed(k) for the top skeleton node k
    of each subtree hanging off it. No query builds a witness.
    """

    def __init__(self, x: TreeVector):
        self.x = x
        self.val, self.den = x._scaled()
        self.supp = frozenset(self.val)
        self._ran: frozenset[str] | None = None  # built by the ran property
        # each component's root is a support node, so the forest roots are
        # the component roots
        self._skel = _forest(sorted(self._skeleton()))
        # The unconstrained DP: every skeleton node's table and the total
        # of the component roots' closed bests.
        self._tables: dict[str, _Table] = {}
        self._dp(_NO_SEP, self._skel, self._tables)
        self._total = sum(self._tables[root][2] for root in self._skel.roots)
        self._cuts: dict[str, int] = {}  # skeleton node -> best score cutting above it
        # skeleton node -> (outside(v), above(v)); see _context
        self._contexts: dict[str, tuple[int, dict[int, int]]] = {}

    @property
    def ran(self) -> frozenset[str]:
        """The paths of ran(x), read off the skeleton on first read."""
        if self._ran is None:
            self._ran = _expand(self._skel)
        return self._ran

    def _skeleton(self) -> set[str]:
        """The nodes the DP keeps tables on; see tree._skeleton."""
        return _skeleton(self.supp)

    # -- public ---------------------------------------------------------

    def solve(self, constraints: Iterable[Constraint] = ()) -> NormResult:
        sep, forced = self._normalize(constraints)
        forest, tables = self._solve(sep, forced)
        segments = forced + self._reconstruct(forest, tables, sep)
        # the DP cuts each forced segment out, and _normalize checked them disjoint
        return NormResult(self._score(forced, forest, tables), Partition._of(frozenset(segments)))

    def norm_sq(self, constraints: Iterable[Constraint] = ()) -> Fraction:
        """solve(constraints).norm_sq, without building the witness."""
        sep, forced = self._normalize(constraints)
        return self._score(forced, *self._solve(sep, forced))

    def gap(self, u: Node, v: Node) -> Fraction:
        """norm_sq minus the best score among partitions separating u and v."""
        if u == v:
            raise DomainError("gap requires two distinct nodes")
        for n in (u, v):
            if n.path not in self.ran:
                raise DomainError(f"node {_shown(repr(n.path))} lies outside ran(x)")
        if leq(u, v):
            upper, lower = u.path, v.path
        elif leq(v, u):
            upper, lower = v.path, u.path
        else:
            return Fraction(0)  # incomparable nodes never share a segment
        # the skeleton nodes whose stretches hold the edges of (upper, lower]
        d, up, best = self._kept_below(lower), self._skel.up, 0
        while d is not None and len(d) > len(upper):
            best = max(best, self._cut(d))
            d = up.get(d)
        return Fraction(self._total - best, self.den * self.den)

    def isolation_gap(self, a: Node) -> Fraction:
        """norm_sq minus the best score among partitions containing [a, a]."""
        return self.forced_gap(Segment(a, a))

    def forced_gap(self, seg: Segment) -> Fraction:
        """norm_sq minus the best score among partitions containing seg."""
        self._require_in_ran(seg.top, seg.bottom)
        b, kids = seg.bottom.path, self._skel.kids
        d = self._kept_below(seg.top.path)
        best, s = self._outside(d), 0
        while d is not None and b.startswith(d):  # d lies on seg
            s += self.val.get(d, 0)
            on = [k for k in kids[d] if b.startswith(k)]
            best += sum(self._closed(k) for k in kids[d] if k not in on)
            d = on[0] if on else None
        if d is not None:  # seg lies in the stretch above d
            best += self._closed(d)
        return Fraction(self._total - best - s * s, self.den * self.den)

    # -- constraint intake ------------------------------------------------

    def _normalize(self, constraints: Iterable[Constraint]) -> tuple[_SepSpec, list[Segment]]:
        pairs: set[tuple[str, str]] = set()
        forced: set[Segment] = set()
        for c in constraints:
            if isinstance(c, IsolateNode):  # the one-node forced segment
                c = ForceSegment(Segment(c.node, c.node))
            if isinstance(c, SeparatePair):
                if c.u == c.v:
                    raise DomainError("SeparatePair requires two distinct nodes")
                self._require_in_ran(c.u, c.v)
                if leq(c.u, c.v):
                    pairs.add((c.u.path, c.v.path))
                elif leq(c.v, c.u):
                    pairs.add((c.v.path, c.u.path))
                # incomparable pairs are separated by every partition
            elif isinstance(c, ForceSegment):
                self._require_in_ran(c.segment.top, c.segment.bottom)
                forced.add(c.segment)
            else:
                raise DomainError(f"unknown constraint {_shown(repr(c))}")
        try:
            Partition(frozenset(forced))
        except InvalidPartitionError as exc:
            raise InfeasibleError(f"forced {exc}") from None
        # a pair inside one forced segment cannot be separated; a pair with
        # one node on a forced segment always is, as the solve cuts that node out
        chains = [(s.top.path, s.bottom.path) for s in forced]
        if any(u.startswith(t) and b.startswith(v) for u, v in pairs for t, b in chains):
            raise InfeasibleError("no partition satisfies the constraint set")
        return _SepSpec(sorted(pairs)), sorted(forced, key=Segment.sort_key)

    def _require_in_ran(self, *nodes: Node) -> None:
        """Raise on the first of the nodes, left to right, that lies outside ran(x)."""
        for node in nodes:
            if node.path not in self.ran:
                raise DomainError(f"constraint node {_shown(repr(node.path))} lies outside ran(x)")

    # -- scores -------------------------------------------------------------

    def _solve(self, sep: _SepSpec, forced: list[Segment]) -> tuple[_Forest, dict]:
        """The forest a pass visits and its tables.

        The empty constraint set returns the pass solved at construction.
        Any other set splices the pair endpoints and the forced tops and
        bottoms that lie off the skeleton into the forest for its pass,
        then cuts the forest nodes on each forced segment out of it: a
        node that hung off the segment becomes a root, so its subtree
        closes. Running the segment through the DP instead would add one
        constant to every candidate at its top's parent, so every argmax
        and tie-break stays the same.
        """
        if not sep.upper_at and not forced:
            return self._skel, self._tables
        ends = {*sep.upper_at, *sep.lower_at}
        ends.update(n.path for seg in forced for n in (seg.top, seg.bottom))
        extra = [p for p in ends if p not in self._skel.kids]
        forest = _forest(sorted(self._skel.order + extra)) if extra else self._skel
        cut: set[str] = set()
        for seg in forced:
            p = seg.bottom.path
            while p is not None and len(p) >= seg.top.depth:
                cut.add(p)
                p = forest.up.get(p)
        forest = forest.without(cut) if cut else forest
        tables: dict[str, _Table] = {}
        self._dp(sep, forest, tables)
        return forest, tables

    def _score(self, forced: list[Segment], forest: _Forest, tables: dict) -> Fraction:
        """The roots' closed bests plus s^2 for each forced segment of sum s."""
        total = sum(tables[root][2] for root in forest.roots)
        total += sum(int(self.x.segment_sum(seg) * self.den) ** 2 for seg in forced)
        return Fraction(total, self.den * self.den)

    def _kept_below(self, p: str) -> str:
        """The nearest skeleton node at or below the range node p.

        The paths below p follow p in sorted order, so this is the first
        skeleton node at or after p.
        """
        order = self._skel.order
        return order[bisect_left(order, p)]

    def _cut(self, d: str) -> int:
        """Best unconstrained score with the edge above skeleton node d cut."""
        best = self._cuts.get(d)
        if best is None:
            best = self._cuts[d] = self._closed(d) + self._outside(d)
        return best

    def _stretch_gap(self, d: str) -> Fraction:
        """gap(p[:-1], p) for every p on the stretch of a non-root skeleton
        node d, from d[:len(up(d)) + 1] down to d: each of those edges
        cuts like the edge above d."""
        return Fraction(self._total - self._cut(d), self.den * self.den)

    def _closed(self, c: str) -> int:
        """Best unconstrained score of subtree(c) with nothing open above c."""
        return self._tables[c][2]

    def _outside(self, v: str) -> int:
        """Best unconstrained score on ran minus subtree(v), for a skeleton node v.

        It is the first half of v's context, which costs one visit of
        each skeleton ancestor whose context is not yet memoised.
        """
        return self._context(v)[0]

    def _context(self, v: str) -> tuple[int, dict[int, int]]:
        """The context (outside(v), above(v)) of a skeleton node v, memoised.

        above(v) maps a sum t to the best score on ran minus subtree(v)
        when one segment crosses the edge above v and gathers t above
        it; that segment's square is not counted yet. Contexts fill top
        down from the nearest memoised ancestor, or from the component
        root, whose context is the other components' bests and {}.
        """
        contexts, up = self._contexts, self._skel.up
        path, w = [], v
        while w not in contexts and w in up:
            path.append(w)
            w = up[w]
        if w not in contexts:
            contexts[w] = (self._total - self._tables[w][2], {})
        for c in reversed(path):
            contexts[c] = self._descend(c, contexts[up[c]])
        return contexts[v]

    def _descend(
        self, v: str, parent_context: tuple[int, dict[int, int]]
    ) -> tuple[int, dict[int, int]]:
        """v's context from the context of p = up(v) and one visit of p without v.

        A segment open through p, with sum s and score, finishes above p
        with any (t, rest) of above(p) as score + rest + (s + t)^2. A
        segment crossing the edge above v holds p, so it starts at p
        (when p is in the support) or runs on above p; either way the
        siblings of v close.
        """
        outside_p, above_p = parent_context
        p = self._skel.up[v]
        siblings = [c for c in self._skel.kids[p] if c != v]
        closed_siblings, opens, outside, _ = self._visit(p, siblings, self._tables, _NO_SEP)
        outside += outside_p
        for (s, _), sc in opens.items():
            for t, rest in above_p.items():
                cand = sc + rest + (s + t) * (s + t)
                if cand > outside:
                    outside = cand
        xv = self.val.get(p, 0)
        above = {xv: closed_siblings + outside_p} if p in self.supp else {}
        for t, rest in above_p.items():
            cand = closed_siblings + rest
            if cand > above.get(xv + t, -1):
                above[xv + t] = cand
        return outside, above

    def _keeps_norm(self, u: str, v: str):
        """keeps(m) for a range node u and its child v with gap(u, v) > 0:
        whether y = (e_u - e_v) / m keeps ||x + y||^2 and ||x - y||^2 at
        the squared norm N.

        A partition that keeps u and v in one segment scores on x +- y
        as on x, as y sums to 0 there, and the best of them scores N, as
        the gap is positive. So ||x +- y||^2 = max(N, C+-), where C+- is
        the best score of the partitions that cut the edge (u, v):
        closed'(v) + outside'(v), with x(u) and x(v) moved. keeps(m)
        works at scale den m: sums scale by m, scores by m^2, and the
        move is den.

        Each side is a table {open sum: best score}; the moved node may
        start or close the segment through it, as a node outside the
        support may too, which only adds partitions that score as their
        trimmed ones. Below: v's table, or, for v on a stretch, one
        visit of v over d = _kept_below(v). Above: the open sums of u
        without d against u's context, or, for u on the stretch above
        d, u alone against d's context. Both tables are built once; each
        keeps(m) is linear in them.
        """
        tables, kids = self._tables, self._skel.kids

        def open_sums(p: str, table: _Table) -> dict[int, int]:  # masks dropped, start at p
            sums = {self.val.get(p, 0): table[0]}
            for (s, _), sc in table[1].items():
                if sc > sums.get(s, -1):
                    sums[s] = sc
            return sums

        d = self._kept_below(v)
        lower = open_sums(v, tables[v] if v == d else self._visit(v, [d], tables, _NO_SEP))
        outside, above = self._context(u if u in tables else d)
        ends = open_sums(u, self._visit(u, [c for c in kids.get(u, ()) if c != d], tables, _NO_SEP))
        upper: dict[int, int] = {}
        for s, sc in ends.items():
            for t, rest in [(0, outside), *above.items()]:
                if sc + rest > upper.get(s + t, -1):
                    upper[s + t] = sc + rest

        def keeps(m: int) -> bool:
            mm, den = m * m, self.den
            for move in (den, -den):
                cut = max(sc * mm + (s * m - move) ** 2 for s, sc in lower.items())
                cut += max(sc * mm + (s * m + move) ** 2 for s, sc in upper.items())
                if cut > self._total * mm:
                    return False
            return True

        return keeps

    # -- the dynamic program ----------------------------------------------

    def _dp(self, sep: _SepSpec, forest: _Forest, tables: dict) -> None:
        """Fill every table of the forest.

        Reversed sorted order visits every node after its descendants.
        """
        for p in reversed(forest.order):
            tables[p] = self._visit(p, forest.kids[p], tables, sep)

    def _visit(self, p: str, kids: list[str], tables: dict, sep: _SepSpec) -> _Table:
        """p's table from its kids' tables.

        Every kid closes, or the segment open through one kid climbs
        through p while the others close; a segment may also start at p
        when p is in the support. A pair has one lower node, so a kid's
        keys map one to one onto p's and its offers never meet. An entry
        is credited to the first offer to reach its score, the start,
        then the kids bit-0 first; _reconstruct replays that order. An
        open segment may close at p only when p is in the support; on a
        tie the closed best prefers done, then the least key.
        """
        done = sum(tables[c][2] for c in kids)
        xv = self.val.get(p, 0)
        start_mask = sep.lower_at.get(p, ())
        check_pairs = sep.upper_at.get(p)
        opens: dict[tuple[int, tuple[int, ...]], int] = {}
        if p in self.supp:
            opens[(xv, start_mask)] = done
        for c in kids:
            _, kid_opens, kid_closed, _ = tables[c]
            rest = done - kid_closed
            for (s, mask), sc in kid_opens.items():
                if check_pairs and not check_pairs.isdisjoint(mask):
                    continue  # the segment would contain both nodes of a pair
                if start_mask:
                    mask = tuple(sorted(mask + start_mask))
                new, cand = (s + xv, mask), sc + rest
                if cand > opens.get(new, -1):
                    opens[new] = cand
        closed, closing = done, None
        if p in self.supp:
            for key, sc in opens.items():
                cand = sc + key[0] * key[0]
                if cand > closed or cand == closed and closing is not None and key < closing:
                    closed, closing = cand, key
        return done, opens, closed, closing

    # -- witness extraction ------------------------------------------------

    def _reconstruct(self, forest: _Forest, tables: dict, sep: _SepSpec) -> list[Segment]:
        """Segments of the witness on the forest, with an explicit stack.

        From a node's closing key the walk goes down the segment and
        replays _visit's offers in order, the start, then the kids bit-0
        first: the first that scores the stored entry made it. No key
        stored at p holds a pair whose upper node is p, so no pair test
        is needed. Every other kid closes as its own table says. Order
        does not matter: the segments land in a frozenset. A segment that
        closes where it starts gets one Node as both ends.
        """
        segments: list[Segment] = []
        kids, stack = forest.kids, list(forest.roots)
        while stack:
            top = stack.pop()
            p, key = top, tables[top][3]
            while key is not None:
                done, opens, _, _ = tables[p]
                xv, start_mask = self.val.get(p, 0), sep.lower_at.get(p, ())
                sc = opens[key]
                if p in self.supp and key == (xv, start_mask) and sc == done:
                    head = Node._of(top)
                    segments.append(Segment._of(head, head if p == top else Node._of(p)))
                    break
                s, mask = key
                if start_mask:
                    mask = tuple(i for i in mask if i not in start_mask)
                key = (s - xv, mask)
                for climbed in kids[p]:
                    kid = tables[climbed]
                    if kid[1].get(key) == sc - done + kid[2]:
                        break
                stack.extend(c for c in kids[p] if c != climbed)
                p = climbed
            stack.extend(kids[p])
        return segments


# -- the positive layer ------------------------------------------------------


def _heaviest_walk(st: SupportTree, tie: Callable[[str], object]) -> tuple[Partition, dict[str, str]]:
    """The heaviest-child partition of a positive vector, and each node's pick.

    Every support node with induced children picks one of largest S;
    among those, one of largest tie(path), and the first in
    lexicographic (bit-0 first) order on a tie of both. Each node that
    no node picked heads a segment that follows the picks down. S(p) is
    x(p) plus S of p's pick, so that segment sums to S(head). A head
    that picked nothing is a one-node segment, one Node at both ends.
    """
    s = st._s

    def rank(c: str) -> tuple:
        return s[c], tie(c)

    pick = {p: max(kids, key=rank) for p, kids in st._forest.kids.items() if kids}
    picked = set(pick.values())
    segments = []
    for head in st._forest.order:
        if head not in picked:
            bottom = head
            while bottom in pick:
                bottom = pick[bottom]
            top = Node._of(head)
            segments.append(Segment._of(top, top if bottom == head else Node._of(bottom)))
    return Partition._of(frozenset(segments)), pick


# -- public operations ------------------------------------------------------


def jt_norm_sq(x: TreeVector) -> NormResult:
    """Squared JT norm with a maximizing canonical partition as witness.

    A positive vector (the zero vector included) takes the paper's
    characterization of positive vectors instead of the DP: one
    heaviest-child walk over its SupportTree, with ties of S broken
    toward the first induced child in lexicographic (bit-0 first) order.
    The squared norm is the sum of S(h)^2 over the walk's segment heads
    h. NormSolver(x).solve() stays the DP, and gives the same norm and
    witness on every positive vector tested. Other vectors take the DP.
    """
    if not x.is_positive():
        return NormSolver(x).solve()
    st = SupportTree(x)
    witness, _ = _heaviest_walk(st, lambda c: 0)
    total = sum(st._s[seg.top.path] ** 2 for seg in witness.segments)
    return NormResult(Fraction(total, st._den * st._den), witness)


def constrained_norm_sq(
    x: TreeVector, constraints: Iterable[Constraint]
) -> NormResult:
    """Best score among canonical partitions satisfying every constraint."""
    return NormSolver(x).solve(constraints)


def gap(x: TreeVector, u: Node, v: Node) -> Fraction:
    """How much separating u from v costs: always >= 0, zero iff separable."""
    return NormSolver(x).gap(u, v)


# -- brute-force oracle ------------------------------------------------------


def _check_cap(x: TreeVector, cap: int) -> None:
    n = len(x.range())
    if n > cap:
        raise CapError(f"|ran(x)| = {n} exceeds the oracle node cap {cap}")


def canonical_segments(x: TreeVector) -> list[Segment]:
    """All segments with both endpoints in supp(x), in canonical order."""
    supp = sorted(x.support(), key=Node.sort_key)
    return sorted(
        (Segment(a, b) for a in supp for b in supp if leq(a, b)),
        key=Segment.sort_key,
    )


def _scaled_weights(x: TreeVector, segs: list[Segment]) -> tuple[list[int], int]:
    values = {n.path: v for n, v in x.items()}
    den = lcm(*(v.denominator for v in values.values()))
    scaled = {p: int(v * den) for p, v in values.items()}
    sums = []
    for seg in segs:
        b = seg.bottom.path
        total = sum(
            scaled.get(b[:k], 0) for k in range(seg.top.depth, seg.bottom.depth + 1)
        )
        sums.append(total)
    return sums, den


def _norming_families(segs: list[Segment], sums: list[int]) -> tuple[int, list[tuple[int, ...]]]:
    """The best score over all pairwise-disjoint families of segs, and
    the index tuple of every family that scores it.

    Straight backtracking over the segment list, run as one depth-first
    loop on an explicit stack of (start, allowed, chosen, score) states.
    Every prefix of a valid family is itself a valid family, so each
    state popped is one family, scored once. Children are pushed in
    descending index order, so families pop in lexicographic order of
    their index tuples and found lists the ties in that order.
    """
    n = len(segs)
    compat = []
    for i in range(n):
        m = 0
        for j in range(n):
            if i != j and segments_disjoint(segs[i], segs[j]):
                m |= 1 << j
        compat.append(m)
    weights = [s * s for s in sums]
    best, found = -1, []
    stack = [(0, (1 << n) - 1, (), 0)]
    while stack:
        start, allowed, chosen, sc = stack.pop()
        if sc > best:
            best, found = sc, [chosen]
        elif sc == best:
            found.append(chosen)
        live = allowed >> start << start
        while live:
            j = live.bit_length() - 1
            live ^= 1 << j
            stack.append((j + 1, allowed & compat[j], chosen + (j,), sc + weights[j]))
    return best, found


def oracle_norm_sq(x: TreeVector, cap: int = ORACLE_NODE_CAP) -> Fraction:
    """Exhaustive maximum over all canonical families; no DP shortcuts."""
    _check_cap(x, cap)
    segs = canonical_segments(x)
    sums, den = _scaled_weights(x, segs)
    best, _ = _norming_families(segs, sums)
    return Fraction(best, den * den)


def enumerate_norming(x: TreeVector, cap: int = ORACLE_NODE_CAP) -> set[Partition]:
    """All canonical partitions whose score equals the squared norm."""
    _check_cap(x, cap)
    segs = canonical_segments(x)
    sums, _ = _scaled_weights(x, segs)
    _, found = _norming_families(segs, sums)
    return {Partition(frozenset(segs[i] for i in fam)) for fam in found}
