"""Seeded input generators for the three benchmark workloads.

Pure Python with no jtx import: generation is part of the measured
set-up, and the program under test only ever receives the generated
inputs. Every generator draws from one `random.Random`, so a seed fixes
the corpus exactly. Vectors are plain `{"vector": {path: "p/q"}}`
documents, the jtx wire form.

Sizes come from fixed schedules and only values, branch bits and
support positions come from the seed (in cli-small, only values and the
queried pairs: see cli_small). That keeps the per-operation cost
profile the same from seed to seed, which is what makes medians and
90th percentiles comparable across seeds.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# Chains in oneshot-deep are far deeper than jtx's default parse limit.
CHAIN_MAX_DEPTH = 1024

SIGNED = (-3, -2, -1, 1, 2, 3)


def grid(depth: int) -> list[str]:
    """All node paths of the full dyadic tree down to `depth`."""
    out = [""]
    for d in range(1, depth + 1):
        out.extend(format(i, f"0{d}b") for i in range(2**d))
    return out


def spaced(lo: int, hi: int, n: int) -> list[int]:
    """n integers spread evenly over [lo, hi]."""
    if n == 1:
        return [lo]
    return [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]


def interleave(*families: list) -> list:
    """Round-robin merge, so any prefix of a pass mixes every family."""
    out = []
    longest = max(len(f) for f in families)
    for i in range(longest):
        out.extend(f[i] for f in families if i < len(f))
    return out


def _signed(rng: random.Random) -> str:
    return str(Fraction(rng.choice(SIGNED), rng.randint(1, 3)))


def _positive(rng: random.Random) -> str:
    return str(Fraction(rng.randint(1, 4), rng.randint(1, 3)))


def _doc(entries: dict[str, str]) -> dict:
    return {"vector": dict(sorted(entries.items(), key=lambda kv: (len(kv[0]), kv[0])))}


def random_chain(rng: random.Random, depth: int, support: int) -> dict:
    """Signed entries on `support` levels of one branch, root and bottom included.

    Levels are evenly spaced and then jittered, so the range and the cost
    of a chain depend on its depth and support, not on where they fall.
    """
    branch = "".join(rng.choice("01") for _ in range(depth))
    step = depth / (support - 1)
    levels = {0, depth} | {
        min(depth - 1, max(1, round(i * step + rng.uniform(-step / 3, step / 3))))
        for i in range(1, support - 1)
    }
    return _doc({branch[:k]: _signed(rng) for k in levels})


def alternating_chain(rng: random.Random, depth: int, support: int) -> dict:
    """Evenly spaced entries of one magnitude and alternating sign along a branch.

    Every segment through two entries sums to at most one entry, so the
    only norming partition is all singletons, and witness reconstruction
    descends through every level of the chain one call at a time.
    """
    branch = "".join(rng.choice("01") for _ in range(depth))
    value = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    return _doc({branch[:k]: str((-1) ** i * value)
                 for i, k in enumerate(spaced(0, depth, support))})


def full_signed(rng: random.Random, depth: int) -> dict:
    return _doc({p: _signed(rng) for p in grid(depth)})


def sparse_positive(rng: random.Random, depth: int, support: int) -> dict:
    """Positive entries on `support` nodes, spread over the levels like the full tree."""
    per_level = [round(support * 2**d / (2 ** (depth + 1) - 1)) for d in range(depth + 1)]
    nodes = [format(i, f"0{d}b") if d else ""
             for d, n in enumerate(per_level) for i in rng.sample(range(2**d), n)]
    return _doc({p: _positive(rng) for p in nodes})


def closure(paths) -> set[str]:
    """ran(x): every node between two comparable support nodes."""
    paths = set(paths)
    out = set(paths)
    for a in paths:
        for b in paths:
            if b.startswith(a):
                out.update(b[:k] for k in range(len(a), len(b)))
    return out


def induced_children(paths) -> dict[str, list[str]]:
    """Minimal support nodes strictly below each support node."""
    paths = sorted(paths, key=lambda p: (len(p), p))
    kids: dict[str, list[str]] = {p: [] for p in paths}
    have = set(paths)
    for p in paths:
        for k in range(len(p) - 1, -1, -1):
            if p[:k] in have:
                kids[p[:k]].append(p)
                break
    return kids


def heaviest_child_segments(doc: dict) -> tuple[list[dict], dict[str, str]]:
    """Greedy norming partition of a positive vector, and each head's segment.

    The maximal downward segment sum at a support node is its own value
    plus the largest such sum among its induced children; following a
    heaviest child (lex-min on ties) from every head gives the greedy
    partition. Returns the partition's segments and, for every segment
    head, the bottom its segment reaches.
    """
    values = {p: Fraction(v) for p, v in doc["vector"].items()}
    kids = induced_children(values)
    best: dict[str, Fraction] = {}
    for p in sorted(values, key=lambda p: (len(p), p), reverse=True):
        below = max((best[c] for c in kids[p]), default=Fraction(0))
        best[p] = values[p] + max(Fraction(0), below)
    heads = [p for p in sorted(values, key=lambda p: (len(p), p))
             if not any(p[:k] in values for k in range(len(p)))]
    segments, bottom_of = [], {}
    while heads:
        head = heads.pop(0)
        cur = head
        while kids[cur]:
            top = max(best[c] for c in kids[cur])
            nxt = min(c for c in kids[cur] if best[c] == top)
            heads.extend(c for c in kids[cur] if c != nxt)
            cur = nxt
        segments.append({"top": head, "bottom": cur})
        bottom_of[head] = cur
    return segments, bottom_of


def minimal(paths) -> list[str]:
    have = set(paths)
    return sorted((p for p in have if not any(p[:k] in have for k in range(len(p)))),
                  key=lambda p: (len(p), p))


# -- workloads --------------------------------------------------------------


def oneshot_deep(rng: random.Random, blocks: int, tiny: bool) -> dict:
    """One input per operation; the op builds a fresh solver."""
    if tiny:
        chain_depths, alt_depths, full_depths = spaced(20, 60, 3), spaced(20, 60, 2), [3]
        positive = [(4, 12), (5, 20)]
    else:
        # Witness reconstruction recurses about twice per level, so under
        # Python's default recursion limit any chain deeper than about 495
        # levels may raise RecursionError. Random chains stop well short of
        # that, so whether one fails never depends on the seed; the
        # alternating chains always reach the bottom of the chain, so the
        # four of them at 543 levels and deeper fail in every block, and
        # the number of failed operations is the same for every seed.
        chain_depths = spaced(200, 460, 16)
        alt_depths = spaced(200, 800, 8)
        full_depths = [9]
        positive = [(10, 80), (10, 120), (10, 160), (11, 150),
                    (10, 100), (10, 140), (11, 120), (11, 200)]
    jobs = []
    for _ in range(blocks):
        chains = [
            {"family": "chain",
             "vector": random_chain(rng, d, max(3, round(d * (0.02, 0.035, 0.05)[i % 3])))}
            for i, d in enumerate(chain_depths)
        ]
        alts = [
            {"family": "alternating", "vector": alternating_chain(rng, d, 6 + 4 * (i % 4))}
            for i, d in enumerate(alt_depths)
        ]
        fulls = [{"family": "full", "vector": full_signed(rng, d)} for d in full_depths]
        positives = [{"family": "positive", "vector": sparse_positive(rng, d, m)}
                     for d, m in positive]
        jobs += interleave(chains, alts, positives, fulls)
    return {"jobs": jobs}


def scan_tree(rng: random.Random, blocks: int, tiny: bool) -> dict:
    """Scan queries that run many constrained solves on one solver each."""
    if tiny:
        signed_depths, iso_depths, xn, positive = [2, 3], [2], [1, 2], [(3, 6)]
    else:
        signed_depths = [4, 4, 5, 5]
        iso_depths = [4, 4, 5, 5]
        xn = [2, 3, 4, 5]
        positive = [(5, 20), (6, 30), (6, 45), (7, 60)]
    jobs = []
    for _ in range(blocks):
        seps, certs, isos, forced = [], [], [], []
        for d in signed_depths:
            vec = full_signed(rng, d)
            # the same vector feeds both scans so their verdicts can be compared
            pair_id = len(jobs) + len(seps)
            seps.append({"family": "separated", "vector": vec, "pair_id": pair_id})
            certs.append({"family": "extreme", "vector": vec, "pair_id": pair_id})
        for d in iso_depths:
            isos.append({"family": "isolatable", "vector": full_signed(rng, d)})
        xns = [{"family": "extreme", "vector": _doc({p: "1" for p in grid(n)}), "x_n": n}
               for n in xn]
        for d, m in positive:
            while True:
                vec = sparse_positive(rng, d, m)
                heads = minimal(vec["vector"])
                if len(heads) >= 4 or tiny:
                    break
            _, bottom_of = heaviest_child_segments(vec)
            for h in heads[:4]:
                forced.append({"family": "forced", "vector": vec,
                               "segment": {"top": h, "bottom": bottom_of[h]}})
        jobs += interleave(forced, seps, certs, isos, xns)
    return {"jobs": jobs}


CLI_COMMANDS = (
    "norm", "norm --oracle", "gap", "separated", "extreme", "greedy", "consistent",
    "equal-sums", "enumerate-norming", "isolatable", "witness", "dot",
)
POSITIVE_ONLY = ("greedy", "consistent", "equal-sums")
ORACLE = ("norm --oracle", "enumerate-norming")


def small_vector(shapes: random.Random, rng: random.Random, ran_size: int, value) -> dict:
    """A vector of depth <= 4 whose range has exactly ran_size nodes.

    The support comes from `shapes` and the values from `rng`. The range
    must hold a parent-child edge, so gap and witness have a pair.
    """
    while True:
        density = shapes.uniform(0.15, 0.5)
        support = [p for p in grid(4) if shapes.random() < density]
        ran = closure(support)
        if len(ran) == ran_size and any(p[:-1] in ran for p in ran if p):
            return _doc({p: value(rng) for p in support})


def cli_small(rng: random.Random, blocks: int, tiny: bool) -> dict:
    """Every command over every small file; one job per (file, command).

    The supports of the files are the same for every seed. The oracle
    commands enumerate every disjoint family of segments of the support,
    so their cost depends on its shape exponentially, and with shapes
    drawn from the seed the corpus's total cost moved by up to 0.17
    between seeds. The seed draws the values and the queried pairs.
    """
    signed_sizes = [6, 9] if tiny else [8, 9, 10, 11, 12, 13]
    positive_sizes = [7] if tiny else [10, 11, 12, 13]
    shapes = random.Random("cli-small/shapes")
    files = []
    for _ in range(blocks):
        files += [{"kind": "signed", "vector": small_vector(shapes, rng, n, _signed)}
                  for n in signed_sizes]
        files += [{"kind": "positive", "vector": small_vector(shapes, rng, n, _positive)}
                  for n in positive_sizes]
        files += [{"kind": "x_n", "x_n": n, "vector": _doc({p: "1" for p in grid(n)})}
                  for n in (1, 2, 3)]
    jobs = []
    for i, f in enumerate(files):
        paths = sorted(closure(f["vector"]["vector"]), key=lambda p: (len(p), p))
        comparable = [(u, v) for u in paths for v in paths if u != v and v.startswith(u)]
        edges = [(u, v) for u, v in comparable if len(v) == len(u) + 1]
        positive = all(Fraction(v) > 0 for v in f["vector"]["vector"].values())
        partition = heaviest_child_segments(f["vector"])[0] if positive else []
        for command in CLI_COMMANDS:
            job = {"file": i, "command": command}
            if command == "gap":
                job["pair"] = list(rng.choice(comparable))
            if command == "witness":
                job["pair"] = list(rng.choice(edges))
            if command == "consistent":
                job["partition"] = {"segments": partition}
            jobs.append(job)
    return {"files": files, "jobs": jobs}


# generator, and blocks per pass: each block draws the whole size
# schedule once more, so a pass holds many distinct inputs of every size
# and its latency quantiles move little from seed to seed
GENERATORS = {
    "oneshot-deep": (oneshot_deep, 4),
    "scan-tree": (scan_tree, 4),
    "cli-small": (cli_small, 4),
}


def generate(workload: str, seed: int, tiny: bool = False) -> dict:
    """The corpus: {"jobs": [...]} plus, for cli-small, {"files": [...]}."""
    make, blocks = GENERATORS[workload]
    return make(random.Random(f"{workload}/{seed}"), 1 if tiny else blocks, tiny)


def write_files(corpus: dict, directory: str) -> None:
    """Write the cli-small input files: one per vector, one per partition."""
    os.makedirs(directory, exist_ok=True)
    for i, f in enumerate(corpus.get("files", [])):
        with open(os.path.join(directory, f"x{i}.json"), "w", encoding="utf-8") as fh:
            json.dump(f["vector"], fh)
    for j, job in enumerate(corpus["jobs"]):
        if "partition" in job:
            with open(os.path.join(directory, f"p{j}.json"), "w", encoding="utf-8") as fh:
                json.dump(job["partition"], fh)
