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

Parent-child separation gaps and node isolation reuse the unconstrained
tables. Separating a child v from its parent cuts the edge above v, so
gap(parent(v), v) = norm - closed(v) - outside(v): closed(v) is read
from v's table, and outside(v), the best score on ran minus subtree(v),
re-visits only the ancestor path of v against the cached tables of
everything else. Isolating a node cuts the edges above and below it in
the same way. Witness reconstruction and score-only queries share the
same tables; the constrained DP stays the path for every other
constraint set.

A brute-force oracle enumerates all canonical families outright on
small instances and shares no shortcut with the dynamic program.

Tie policy for witness extraction, applied wherever two choices give
equal score: prefer leaving a child subtree closed over closing a
through-segment with the same value (this omits zero-sum segments),
prefer starting a fresh segment over extending a zero-sum one, and
prefer extending toward the bit-0 child.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

from .errors import CapError, DomainError, InfeasibleError, InvalidPartitionError
from .tree import Node, Segment, leq, segments_disjoint
from .vector import TreeVector

# Exhaustive family enumeration grows super-exponentially; refuse above this
# many range nodes unless the caller raises the cap explicitly.
ORACLE_NODE_CAP = 13


@dataclass(frozen=True)
class Partition:
    """A finite family of pairwise disjoint segments."""

    segments: frozenset[Segment]

    def __post_init__(self) -> None:
        segs = self.sorted_segments()
        for i, s1 in enumerate(segs):
            for s2 in segs[i + 1 :]:
                if not segments_disjoint(s1, s2):
                    raise InvalidPartitionError(f"segments overlap: {s1} and {s2}")

    @classmethod
    def of(cls, *segments: Segment) -> Partition:
        return cls(frozenset(segments))

    def sorted_segments(self) -> list[Segment]:
        return sorted(self.segments, key=Segment.sort_key)

    def segment_containing(self, node: Node) -> Segment | None:
        for s in self.sorted_segments():
            if node in s:
                return s
        return None

    def __iter__(self):
        return iter(self.sorted_segments())

    def __len__(self) -> int:
        return len(self.segments)


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
    """Comparable separation pairs, indexed for the DP bit masks."""

    __slots__ = ("upper", "lower", "upper_at", "lower_at")

    def __init__(self, pairs: list[tuple[str, str]]):
        self.upper = [u for u, _ in pairs]
        self.lower = [v for _, v in pairs]
        self.upper_at: dict[str, tuple[int, ...]] = {}
        self.lower_at: dict[str, tuple[int, ...]] = {}
        for i, (u, v) in enumerate(pairs):
            self.upper_at[u] = self.upper_at.get(u, ()) + (i,)
            self.lower_at[v] = self.lower_at.get(v, ()) + (i,)


class _ForcedSpec:
    """Forced segments, expanded to per-node membership along their chains."""

    __slots__ = ("segments", "member_of", "top", "bottom")

    def __init__(self, segments: list[Segment]):
        self.segments = segments
        self.member_of: dict[str, int] = {}
        self.top: list[str] = []
        self.bottom: list[str] = []
        for idx, seg in enumerate(segments):
            t, b = seg.top.path, seg.bottom.path
            self.top.append(t)
            self.bottom.append(b)
            for k in range(len(t), len(b) + 1):
                self.member_of[b[:k]] = idx


_DONE = ("cdone",)

# The empty constraint set, shared by every unconstrained solve.
_NO_SEP = _SepSpec([])
_NO_FORCED = _ForcedSpec([])

# A node's DP table: ("done" entry or None, open-segment entries).
# done:  (score, choice) with no segment passing up through the node.
# opens: {(open sum, live pair mask): (score, choice)} with one segment
#        open through the node; its square is not yet counted in score.
_Table = tuple


class NormSolver:
    """DP engine bound to one vector; answers many constrained queries.

    Building the solver precomputes the scaled entries and the range
    forest once, so callers that probe many constraint sets (gap scans,
    separation checks) pay the structural cost a single time.

    The unconstrained solve keeps its DP tables, and the parent-child
    gap and node-isolation queries are answered from them. Separating a
    child v from its parent cuts the edge above v, so

        gap(parent(v), v) = norm - closed(v) - outside(v)

    where closed(v) is the best score of subtree(v) with nothing open
    into the parent, read from v's cached table, and outside(v) is the
    best score on ran minus subtree(v). Isolating a node cuts the edges
    above and below it, so its best score is val(a)^2 + sum of closed(c)
    over its range children + outside(a). outside(v) re-visits only the
    ancestor path of v: the parent without v, then each ancestor up to
    the component root, reading every other table from the cache; the
    other components contribute their cached bests. A query therefore
    costs O(depth * table) instead of a DP over the whole range, and
    builds no witness. Any other constraint set runs the constrained DP.
    """

    def __init__(self, x: TreeVector):
        self.x = x
        entries = {n.path: v for n, v in x.items()}
        self.den = lcm(*(v.denominator for v in entries.values())) if entries else 1
        self.val = {p: int(v * self.den) for p, v in entries.items()}
        self.supp = frozenset(self.val)
        ran = set(self.supp)
        for a in self.supp:
            for b in self.supp:
                if b.startswith(a):
                    ran.update(b[:k] for k in range(len(a), len(b)))
        self.ran = frozenset(ran)
        self.children = {p: [c for c in (p + "0", p + "1") if c in ran] for p in ran}
        self.roots = sorted(
            (p for p in ran if not p or p[:-1] not in ran), key=lambda p: (len(p), p)
        )
        # The unconstrained DP, solved on first use: every node's table
        # and each component root's best (score, closure choice).
        self._tables: dict[str, _Table] | None = None
        self._root_best: dict[str, tuple] = {}
        self._total = 0
        self._base: NormResult | None = None

    # -- public ---------------------------------------------------------

    def solve(self, constraints: Iterable[Constraint] = ()) -> NormResult:
        sep, forced = self._normalize(constraints)
        if not sep.upper and not forced.segments:
            if self._base is None:
                self._solve_base()
                self._base = self._result(self._tables, self._root_best)
            return self._base
        tables: dict[str, _Table] = {}
        bests = {root: self._dp(root, sep, forced, tables) for root in self.roots}
        return self._result(tables, bests)

    def norm_sq(self, constraints: Iterable[Constraint] = ()) -> Fraction:
        """solve(constraints).norm_sq, without building the witness."""
        return Fraction(self._score(constraints), self.den * self.den)

    def gap(self, u: Node, v: Node) -> Fraction:
        """norm_sq minus the best score among partitions separating u and v."""
        if u == v:
            raise DomainError("gap requires two distinct nodes")
        for n in (u, v):
            if n.path not in self.ran:
                raise DomainError(f"node {n.path!r} lies outside ran(x)")
        if leq(u, v):
            upper, lower = u.path, v.path
        elif leq(v, u):
            upper, lower = v.path, u.path
        else:
            return Fraction(0)  # incomparable nodes never share a segment
        base = self._score()
        if len(lower) == len(upper) + 1:
            kept = self._closed(lower) + self._outside(lower)
        else:
            kept = self._score((SeparatePair(u, v),))
        return Fraction(base - kept, self.den * self.den)

    def isolation_gap(self, a: Node) -> Fraction:
        """norm_sq minus the best score among partitions containing [a, a]."""
        self._require_in_ran(a)
        p = a.path
        kept = (
            self.val.get(p, 0) ** 2
            + sum(self._closed(c) for c in self.children[p])
            + self._outside(p)
        )
        return Fraction(self._score() - kept, self.den * self.den)

    # -- constraint intake ------------------------------------------------

    def _normalize(self, constraints: Iterable[Constraint]) -> tuple[_SepSpec, _ForcedSpec]:
        pairs: set[tuple[str, str]] = set()
        forced: set[Segment] = set()
        for c in constraints:
            if isinstance(c, SeparatePair):
                if c.u == c.v:
                    raise DomainError("SeparatePair requires two distinct nodes")
                self._require_in_ran(c.u)
                self._require_in_ran(c.v)
                if leq(c.u, c.v):
                    pairs.add((c.u.path, c.v.path))
                elif leq(c.v, c.u):
                    pairs.add((c.v.path, c.u.path))
                # incomparable pairs are separated by every partition
            elif isinstance(c, IsolateNode):
                self._require_in_ran(c.node)
                forced.add(Segment(c.node, c.node))
            elif isinstance(c, ForceSegment):
                self._require_in_ran(c.segment.top)
                self._require_in_ran(c.segment.bottom)
                forced.add(c.segment)
            else:
                raise DomainError(f"unknown constraint {c!r}")
        forced_list = sorted(forced, key=Segment.sort_key)
        for i, s1 in enumerate(forced_list):
            for s2 in forced_list[i + 1 :]:
                if not segments_disjoint(s1, s2):
                    raise InfeasibleError(f"forced segments overlap: {s1} and {s2}")
        return _SepSpec(sorted(pairs)), _ForcedSpec(forced_list)

    def _require_in_ran(self, node: Node) -> None:
        if node.path not in self.ran:
            raise DomainError(f"constraint node {node.path!r} lies outside ran(x)")

    # -- scores -------------------------------------------------------------

    def _score(self, constraints: Iterable[Constraint] = ()) -> int:
        """The scaled integer optimum under the constraints; no witness."""
        sep, forced = self._normalize(constraints)
        if not sep.upper and not forced.segments:
            self._solve_base()
            return self._total
        return sum(self._dp(root, sep, forced, {})[0] for root in self.roots)

    def _solve_base(self) -> None:
        if self._tables is not None:
            return
        tables: dict[str, _Table] = {}
        bests = {root: self._dp(root, _NO_SEP, _NO_FORCED, tables) for root in self.roots}
        self._root_best = bests
        self._total = sum(best[0] for best in bests.values())
        self._tables = tables

    def _closed(self, c: str) -> int:
        """Best unconstrained score of subtree(c) with nothing open above c."""
        self._solve_base()
        return self._closed_best(c, self._tables[c], _NO_FORCED)[0]

    def _outside(self, v: str) -> int:
        """Best unconstrained score on ran minus subtree(v).

        Re-visits v's parent without v, then each ancestor up to the
        component root; every other table comes from the cache. The
        path tables index children after the drop, so they are scored
        but never reconstructed.
        """
        self._solve_base()
        tables = self._tables
        child, table, p = v, None, v[:-1]
        while child and p in self.ran:
            if table is None:
                kids = [c for c in self.children[p] if c != child]
            else:
                kids = self.children[p]
            local = {c: table if c == child else tables[c] for c in kids}
            table = self._visit(p, kids, local, _NO_SEP, _NO_FORCED)
            child, p = p, p[:-1]
        rest = self._total - self._root_best[child][0]
        if table is None:
            return rest  # v is a component root
        return rest + self._closed_best(child, table, _NO_FORCED)[0]

    # -- the dynamic program ----------------------------------------------

    def _dp(self, root: str, sep: _SepSpec, forced: _ForcedSpec, tables: dict) -> tuple:
        """Fill the tables of root's component; return the root's best closure."""
        for p in self._postorder(root):
            tables[p] = self._visit(p, self.children[p], tables, sep, forced)
        best = self._closed_best(root, tables[root], forced)
        if best is None:
            raise InfeasibleError("no partition satisfies the constraint set")
        return best

    def _result(self, tables: dict, bests: dict) -> NormResult:
        total = 0
        segments: list[Segment] = []
        for root, (value, closure) in bests.items():
            total += value
            segments.extend(self._reconstruct(root, closure, tables))
        return NormResult(
            Fraction(total, self.den * self.den), Partition(frozenset(segments))
        )

    def _postorder(self, root: str) -> list[str]:
        out: list[str] = []
        stack: list[tuple[str, bool]] = [(root, False)]
        while stack:
            p, expanded = stack.pop()
            if expanded:
                out.append(p)
            else:
                stack.append((p, True))
                for c in reversed(self.children[p]):
                    stack.append((c, False))
        return out

    @staticmethod
    def _sorted_keys(opens: dict) -> list[tuple[int, frozenset]]:
        return sorted(opens, key=lambda k: (k[0], tuple(sorted(k[1]))))

    def _close_allowed(self, p: str, forced: _ForcedSpec) -> bool:
        idx = forced.member_of.get(p)
        if idx is not None:
            return forced.top[idx] == p
        return p in self.supp

    def _closed_best(self, c: str, table: _Table, forced: _ForcedSpec):
        """Best score of the child's subtree with no segment open into the parent.

        Returns (score, closure-choice) or None when the child cannot be
        closed off (a forced segment still runs through it).
        """
        done, opens = table
        best = None
        if done is not None:
            best = (done[0], _DONE)
        if self._close_allowed(c, forced):
            for key in self._sorted_keys(opens):
                cand = opens[key][0] + key[0] * key[0]
                if best is None or cand > best[0]:
                    best = (cand, ("cclose", key))
        return best

    def _visit(
        self, p: str, kids: list[str], tables: dict, sep: _SepSpec, forced: _ForcedSpec
    ) -> _Table:
        kid_closed = [self._closed_best(c, tables[c], forced) for c in kids]
        xv = self.val.get(p, 0)
        start_mask = frozenset(sep.lower_at.get(p, ()))
        check_bits = frozenset(sep.upper_at.get(p, ()))

        all_closed = None
        if all(kc is not None for kc in kid_closed):
            all_closed = (
                sum(kc[0] for kc in kid_closed),
                tuple(kc[1] for kc in kid_closed),
            )

        opens: dict[tuple[int, frozenset], tuple[int, tuple]] = {}

        def offer(key, entry):
            old = opens.get(key)
            if old is None or entry[0] > old[0]:
                opens[key] = entry

        def extend_through(child_index: int) -> None:
            """One segment climbs from this child through p; the rest close."""
            others = [kc for j, kc in enumerate(kid_closed) if j != child_index]
            if any(kc is None for kc in others):
                return
            rest = sum(kc[0] for kc in others)
            closures = tuple(
                None if j == child_index else kid_closed[j][1]
                for j in range(len(kids))
            )
            c = kids[child_index]
            c_opens = tables[c][1]
            for key in self._sorted_keys(c_opens):
                s, mask = key
                if mask & check_bits:
                    continue  # the segment would contain both nodes of a pair
                new_key = (s + xv, mask | start_mask)
                offer(new_key, (c_opens[key][0] + rest, ("ext", child_index, key, closures)))

        fidx = forced.member_of.get(p)
        if fidx is not None:
            if forced.bottom[fidx] == p:
                # the forced segment starts here; everything below it closes
                if all_closed is not None:
                    opens[(xv, start_mask)] = (all_closed[0], ("start", all_closed[1]))
            else:
                # mid-segment: extend along the forced chain, close the rest
                chain_child = forced.bottom[fidx][: len(p) + 1]
                extend_through(kids.index(chain_child))
            return (None, opens)

        done = None
        if all_closed is not None:
            done = (all_closed[0], ("done", all_closed[1]))
            if p in self.supp:
                offer((xv, start_mask), (all_closed[0], ("start", all_closed[1])))
        for i, c in enumerate(kids):
            if c in forced.member_of:
                continue  # a forced segment may not grow past its own top
            extend_through(i)
        return (done, opens)

    # -- witness extraction ------------------------------------------------

    def _reconstruct(self, root: str, closure: tuple, tables: dict) -> list[Segment]:
        """Segments of the witness below root, with an explicit stack.

        A closure is _DONE (no segment through the node) or ("cclose",
        key) (a segment with open key closes at the node). Order does
        not matter: the segments land in a frozenset.
        """
        segments: list[Segment] = []
        stack: list[tuple[str, tuple]] = [(root, closure)]

        def push(p: str, closures: tuple) -> None:
            for c, cl in zip(self.children[p], closures):
                if cl is not None:  # None marks the segment that climbed through p
                    stack.append((c, cl))

        while stack:
            top, cl = stack.pop()
            if cl == _DONE:
                push(top, tables[top][0][1][1])
                continue
            p, k = top, cl[1]
            while True:
                choice = tables[p][1][k][1]
                if choice[0] == "start":
                    push(p, choice[1])
                    segments.append(Segment(Node(top), Node(p)))
                    break
                _, child_index, child_key, closures = choice
                push(p, closures)
                p = self.children[p][child_index]
                k = child_key
        return segments


# -- public operations ------------------------------------------------------


def jt_norm_sq(x: TreeVector) -> NormResult:
    """Squared JT norm with a maximizing canonical partition as witness."""
    return NormSolver(x).solve()


def constrained_norm_sq(
    x: TreeVector, constraints: Iterable[Constraint]
) -> NormResult:
    """Best score among canonical partitions satisfying every constraint."""
    return NormSolver(x).solve(constraints)


def gap(x: TreeVector, u: Node, v: Node) -> Fraction:
    """How much separating u from v costs: always >= 0, zero iff separable."""
    return NormSolver(x).gap(u, v)


# -- brute-force oracle ------------------------------------------------------


def _check_cap(x: TreeVector, cap: int | None) -> None:
    limit = ORACLE_NODE_CAP if cap is None else cap
    n = len(x.range())
    if n > limit:
        raise CapError(f"|ran(x)| = {n} exceeds the oracle node cap {limit}")


def canonical_segments(x: TreeVector) -> list[Segment]:
    """All segments with both endpoints in supp(x), in canonical order."""
    supp = sorted(x.support(), key=Node.sort_key)
    return sorted(
        (Segment(a, b) for a in supp for b in supp if leq(a, b)),
        key=Segment.sort_key,
    )


def _scaled_weights(x: TreeVector, segs: list[Segment]) -> tuple[list[int], int]:
    values = {n.path: v for n, v in x.items()}
    den = lcm(*(v.denominator for v in values.values())) if values else 1
    scaled = {p: int(v * den) for p, v in values.items()}
    sums = []
    for seg in segs:
        b = seg.bottom.path
        total = sum(
            scaled.get(b[:k], 0) for k in range(seg.top.depth, seg.bottom.depth + 1)
        )
        sums.append(total)
    return sums, den


def _iter_family_scores(segs: list[Segment], sums: list[int]):
    """Yield (index tuple, score) for every pairwise-disjoint family.

    Straight backtracking over the segment list; every prefix of a valid
    family is itself a valid family, so each recursion state is yielded.
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

    def rec(start: int, allowed: int, chosen: tuple, sc: int):
        yield chosen, sc
        live = allowed >> start << start
        while live:
            low = live & -live
            j = low.bit_length() - 1
            live &= live - 1
            yield from rec(j + 1, allowed & compat[j], chosen + (j,), sc + weights[j])

    yield from rec(0, (1 << n) - 1, (), 0)


def oracle_norm_sq(x: TreeVector, cap: int | None = None) -> Fraction:
    """Exhaustive maximum over all canonical families; no DP shortcuts."""
    _check_cap(x, cap)
    segs = canonical_segments(x)
    if not segs:
        return Fraction(0)
    sums, den = _scaled_weights(x, segs)
    best = max(sc for _, sc in _iter_family_scores(segs, sums))
    return Fraction(best, den * den)


def enumerate_norming(x: TreeVector, cap: int | None = None) -> set[Partition]:
    """All canonical partitions whose score equals the squared norm."""
    _check_cap(x, cap)
    segs = canonical_segments(x)
    if not segs:
        return {EMPTY_PARTITION}
    sums, den = _scaled_weights(x, segs)
    best = -1
    found: list[tuple] = []
    for chosen, sc in _iter_family_scores(segs, sums):
        if sc > best:
            best = sc
            found = [chosen]
        elif sc == best:
            found.append(chosen)
    return {Partition(frozenset(segs[i] for i in fam)) for fam in found}
