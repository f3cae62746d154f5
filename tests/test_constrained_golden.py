"""Golden constrained solves: the constrained API's bytes stay as recorded.

Claims:
    - on a fixed-seed corpus of about 300 constrained solves (the
      multi-pair set whose witness follows the sorted-tuple mask order,
      forced segments with zero endpoints and inside support-free
      stretches, multi-pair sets, pairs with one or both nodes inside a
      forced segment, and infeasible sets), `NormSolver.solve` gives the
      recorded witness document, `NormSolver.norm_sq` the recorded
      score, and every failing set raises the recorded error type and
      message from both

The records live in constrained_golden.json next to this file. A change
that is meant to alter a constrained output rewrites them with

    PYTHONPATH=src python3 tests/test_constrained_golden.py --write

and shows the difference in its diff; a change that is not meant to
alter any output leaves the file untouched.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from jtx import (
    ForceSegment,
    IsolateNode,
    JtxError,
    Node,
    NormSolver,
    Segment,
    SeparatePair,
    TreeVector,
)
from jtx.vector import format_rational
from jtx.wire import norm_result_doc, vector_to_doc

GOLDEN = Path(__file__).with_name("constrained_golden.json")
SEED = 12
CASES = 300

# The multi-pair set whose witness follows the sorted-tuple mask order
# (as TUPLE_ORDER_WITNESS in test_norm.py).
PINNED = (
    {"": 2, "1": 1, "00": -2, "01": -1, "11": 2, "001": -1, "110": 2, "111": 2},
    [("pair", "", "11"), ("pair", "1", "11"), ("pair", "", "111")],
)


def _random_vector(rng: random.Random) -> TreeVector:
    """A small signed tree, a forest without the root, or a sparse chain
    whose range holds support-free stretches."""
    kind = rng.choice(["tree", "forest", "chain"])
    if kind == "chain":
        branch = "".join(rng.choice("01") for _ in range(rng.randint(3, 14)))
        paths = {branch[:k] for k in range(len(branch) + 1) if rng.random() < 0.3}
        paths.add(branch)
    else:
        depth = rng.randint(1, 3)
        nodes = [format(i, f"0{d}b") if d else "" for d in range(depth + 1) for i in range(2**d)]
        if kind == "forest":
            nodes = nodes[1:]
        paths = {p for p in nodes if rng.random() < 0.5} or {nodes[-1]}
    den = rng.randint(1, 3)
    return TreeVector.from_dict(
        {p: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), den) for p in sorted(paths)}
    )


def _random_constraints(rng: random.Random, x: TreeVector) -> list[tuple[str, ...]]:
    """One to four constraints on nodes of ran(x), at most two of them
    forced segments; forced endpoints and pair nodes may be zero, and a
    pair is often drawn inside, across or off a forced segment drawn
    before it."""
    ran = sorted((n.path for n in x.range()), key=lambda p: (len(p), p))
    chains = [(t, b) for t in ran for b in ran if b.startswith(t)]
    out: list[tuple[str, ...]] = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["pair", "pair", "isolate", "force"])
        forced = [c for c in out if c[0] == "force"]
        if (kind == "force" and len(forced) == 2) or len(ran) == 1:
            kind = "isolate"
        if kind == "isolate":
            out.append(("isolate", rng.choice(ran)))
        elif kind == "force":
            out.append(("force", *rng.choice(chains)))
        elif forced and rng.random() < 0.7:
            _, t, b = rng.choice(forced)
            on = [p for p in ran if b.startswith(p) and p.startswith(t)]
            near = [p for p in ran if p.startswith(t) or t.startswith(p)]
            u = rng.choice(on)
            v = rng.choice([p for p in (on if rng.random() < 0.5 else near) if p != u] or ran)
            if u != v:
                out.append(("pair", u, v))
        else:
            out.append(("pair", *rng.sample(ran, 2)))
    return out


def _constraint(c: tuple[str, ...]):
    if c[0] == "pair":
        return SeparatePair(Node(c[1]), Node(c[2]))
    if c[0] == "isolate":
        return IsolateNode(Node(c[1]))
    return ForceSegment(Segment(Node(c[1]), Node(c[2])))


def corpus() -> list[tuple[TreeVector, list[tuple[str, ...]]]]:
    rng = random.Random(SEED)
    cases = [(TreeVector.from_dict(PINNED[0]), PINNED[1])]
    while len(cases) < CASES:
        x = _random_vector(rng)
        cases.append((x, _random_constraints(rng, x)))
    return cases


def _outcome(call) -> dict:
    try:
        return {"value": call()}
    except JtxError as exc:
        return {"error": [type(exc).__name__, str(exc)]}


def documents() -> dict:
    """Solve every case of the corpus; return {index: record}."""
    out = {}
    for i, (x, cs) in enumerate(corpus()):
        constraints = [_constraint(c) for c in cs]
        solved = _outcome(lambda: norm_result_doc(NormSolver(x).solve(constraints)))
        scored = _outcome(lambda: format_rational(NormSolver(x).norm_sq(constraints)))
        record = {"vector": vector_to_doc(x)["vector"], "constraints": [list(c) for c in cs]}
        if "error" in solved:
            assert scored == solved, (solved, scored)
            record["error"] = solved["error"]
        else:
            record["solve"] = solved["value"]
            record["norm_sq"] = scored["value"]
        out[f"{i:03d}"] = record
    return out


def test_constrained_solves_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = documents()
    assert sorted(current) == sorted(golden)
    for key, record in golden.items():
        assert current[key] == record, key


def _inside(node: str, t: str, b: str) -> bool:
    return b.startswith(node) and node.startswith(t)


def test_corpus_covers_each_case():
    """The corpus holds every kind of case the claims name."""
    golden = list(json.loads(GOLDEN.read_text(encoding="utf-8")).values())
    messages = [r["error"][1] for r in golden if "error" in r]
    assert sum(m == "no partition satisfies the constraint set" for m in messages) >= 10
    assert sum(m.startswith("forced segments overlap") for m in messages) >= 10
    solved = [r for r in golden if "solve" in r]
    forced = [(r, c[1], c[2]) for r in solved for c in r["constraints"] if c[0] == "force"]
    assert sum(t not in r["vector"] or b not in r["vector"] for r, t, b in forced) >= 20
    one_inside = [
        (r, c) for r, t, b in forced for c in r["constraints"]
        if c[0] == "pair" and _inside(c[1], t, b) != _inside(c[2], t, b)
    ]
    assert len(one_inside) >= 20
    assert sum(sum(c[0] == "pair" for c in r["constraints"]) >= 2 for r in solved) >= 40


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_constrained_golden.py --write")
    GOLDEN.write_text(
        "{\n" + ",\n".join(
            f"{json.dumps(k)}:{json.dumps(v, sort_keys=True, separators=(',', ':'))}" for k, v in documents().items()
        ) + "\n}\n",
        encoding="utf-8",
    )
