"""Benchmark operations: the timed calls into jtx and the correctness gate.

A job is one operation of a workload. `call` is the timed part and calls
only public jtx functions, always through module attributes so that a
tracer that rebinds them sees the call. `collect` turns the raw result
into a JSON output document and `check` returns the gate's findings for
that document; both run outside the timed region.

The gate recomputes what it can with its own exact arithmetic (segment
sums, disjointness, scores, the greedy partition). Where it needs a norm
it uses the brute-force oracle when |ran| <= 13 and otherwise an exact
recomputation with jt_norm_sq.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import jtx
from jtx import cli, wire

import workloads

ORACLE_CAP = 13


@dataclass
class Job:
    label: str
    call: Callable[[], Any]
    collect: Callable[[Any], Any]
    check: Callable[[Any], list[str]]


def _same(doc: Any) -> Any:
    return doc


# -- independent checks --------------------------------------------------------


def values_of(vector_doc: dict) -> dict[str, Fraction]:
    return {p: Fraction(v) for p, v in vector_doc["vector"].items()}


def segment_sum(values: dict[str, Fraction], top: str, bottom: str) -> Fraction:
    return sum((values.get(bottom[:k], Fraction(0)) for k in range(len(top), len(bottom) + 1)),
               Fraction(0))


def score(values: dict[str, Fraction], segments: list[dict]) -> Fraction:
    return sum((segment_sum(values, s["top"], s["bottom"]) ** 2 for s in segments), Fraction(0))


def partition_problems(values: dict[str, Fraction], segments: list[dict]) -> list[str]:
    """A canonical partition: ordered endpoints in the support, no shared node."""
    seen: set[str] = set()
    for s in segments:
        top, bottom = s["top"], s["bottom"]
        if not bottom.startswith(top):
            return [f"segment endpoints out of order: {top!r} {bottom!r}"]
        if top not in values or bottom not in values:
            return [f"segment [{top!r}, {bottom!r}] has an endpoint outside the support"]
        for k in range(len(top), len(bottom) + 1):
            if bottom[:k] in seen:
                return [f"segments overlap at {bottom[:k]!r}"]
            seen.add(bottom[:k])
    return []


def witness_problems(values: dict[str, Fraction], norm_doc: dict) -> list[str]:
    segments = norm_doc["witness"]["segments"]
    problems = partition_problems(values, segments)
    norm_sq = Fraction(norm_doc["norm_sq"])
    if not problems and score(values, segments) != norm_sq:
        problems.append(f"witness scores {score(values, segments)}, norm_sq is {norm_sq}")
    return problems


def small(values: dict) -> bool:
    return len(values) <= ORACLE_CAP and len(workloads.closure(values)) <= ORACLE_CAP


def exact_norm_sq(x) -> Fraction:
    """Reference norm: the oracle when it applies, else an exact DP recomputation."""
    if small({n.path: v for n, v in x.items()}):
        return jtx.oracle_norm_sq(x, ORACLE_CAP)
    return jtx.jt_norm_sq(x).norm_sq


def oracle_problems(x, values: dict, norm_sq: Fraction) -> list[str]:
    if small(values) and jtx.oracle_norm_sq(x, ORACLE_CAP) != norm_sq:
        return [f"DP norm {norm_sq} differs from the oracle"]
    return []


def certificate_problems(x, cert: dict) -> list[str]:
    """Re-verify a certificate: ||x+y|| = ||x-y|| = ||x|| by exact recomputation."""
    values = {n.path: v for n, v in x.items()}
    norm_sq = Fraction(cert["norm_sq"])
    problems = []
    if exact_norm_sq(x) != norm_sq:
        problems.append("certificate norm_sq is wrong")
    if cert["verdict"] == "extreme":
        l2 = sum((v * v for v in values.values()), Fraction(0))
        if (cert["basis"] == "l2-equality") != (norm_sq == l2):
            problems.append(f"basis {cert['basis']} contradicts the l2 comparison")
        return problems
    u, v = cert["blocked_pair"]
    y = wire.vector_from_doc(cert["witness_y"])
    eps = Fraction(cert["epsilon"])
    expected = {u: eps, v: -eps}
    if eps <= 0 or {n.path: c for n, c in y.items()} != expected or v[:-1] != u:
        problems.append("witness y is not eps (e_u - e_v) on a parent-child pair")
    for sign, moved in (("+", x + y), ("-", x - y)):
        if exact_norm_sq(moved) != norm_sq:
            problems.append(f"||x {sign} y||^2 differs from ||x||^2")
    return problems


# -- library workloads -------------------------------------------------------


def oneshot_job(spec: dict, x) -> Job:
    values = values_of(spec["vector"])
    positive = all(v > 0 for v in values.values())

    def call():
        doc = {"norm": wire.norm_result_doc(jtx.jt_norm_sq(x))}
        if positive:
            partition, _ = jtx.greedy_partition(x)
            ok, _ = jtx.consistent_with_greedy(x, partition)
            doc["greedy"] = wire.partition_to_doc(partition)
            doc["consistent"] = ok
        return doc

    def check(doc):
        problems = witness_problems(values, doc["norm"])
        problems += oracle_problems(x, values, Fraction(doc["norm"]["norm_sq"]))
        if positive:
            greedy = doc["greedy"]["segments"]
            problems += partition_problems(values, greedy)
            if score(values, greedy) != Fraction(doc["norm"]["norm_sq"]):
                problems.append("greedy score differs from the DP norm")
            if doc["consistent"] is not True:
                problems.append("greedy partition reported inconsistent with greedy")
        return problems

    return Job(spec["family"], call, _same, check)


def separated_check(values: dict, doc: dict) -> list[str]:
    ran = workloads.closure(values)
    edges = sorted(((p[:-1], p) for p in ran if p and p[:-1] in ran),
                   key=lambda e: ((len(e[0]), e[0]), (len(e[1]), e[1])))
    gaps = {(g["u"], g["v"]): Fraction(g["gap"]) for g in doc["pair_gaps"]}
    problems = []
    if sorted(gaps) != sorted(edges):
        problems.append("pair_gaps do not cover exactly the parent-child pairs of ran(x)")
    if any(g < 0 for g in gaps.values()):
        problems.append("negative gap")
    blocked = doc["first_blocked_pair"]
    if doc["separated"] != all(g == 0 for g in gaps.values()) or doc["separated"] != (
        blocked is None
    ):
        problems.append("separated verdict disagrees with the gaps")
    if blocked is not None and gaps.get(tuple(blocked), 0) <= 0:
        problems.append("first blocked pair has no positive gap")
    return problems


def scan_job(spec: dict, x) -> Job:
    values = values_of(spec["vector"])
    family = spec["family"]
    if family == "separated":
        return Job(family, lambda: wire.separation_doc(jtx.is_separated(x)), _same,
                   lambda doc: separated_check(values, doc))
    if family == "extreme":

        def check_certificate(doc):
            problems = certificate_problems(x, doc)
            if "x_n" in spec and doc["verdict"] != "extreme":
                problems.append(f"x_{spec['x_n']} is reported not extreme")
            return problems

        return Job(family, lambda: wire.certificate_doc(jtx.certify_extreme(x)), _same,
                   check_certificate)
    if family == "isolatable":

        def call():
            return {n.path: ok for n, ok in jtx.isolatable_nodes(x).items()}

        def check_isolatable(doc):
            problems = []
            if set(doc) != set(values):
                problems.append("isolatable keys are not the support")
            result = jtx.jt_norm_sq(x)
            for seg in result.witness:
                if seg.top == seg.bottom and doc.get(seg.top.path) is not True:
                    problems.append(f"{seg.top.path!r} is a norming singleton yet not isolatable")
            l2 = sum((v * v for v in values.values()), Fraction(0))
            if all(doc.values()) and result.norm_sq != l2:
                problems.append("every node isolatable but norm differs from l2")
            return problems

        return Job(family, call, _same, check_isolatable)
    if family == "forced":
        seg = wire.segment_from_doc(spec["segment"], workloads.CHAIN_MAX_DEPTH)
        return Job(family, lambda: {"norming": jtx.forced_segment_is_norming(x, seg)}, _same,
                   lambda doc: [] if doc["norming"] is True else
                   ["a maximal head segment is reported not norming"])
    raise ValueError(f"unknown scan family {family!r}")


def cross_check(corpus: dict, docs: list) -> list[str]:
    """The separation verdict and the certificate verdict of one vector agree."""
    verdicts: dict[int, dict[str, Any]] = {}
    for spec, doc in zip(corpus["jobs"], docs):
        if "pair_id" in spec and "raised" not in doc:
            verdicts.setdefault(spec["pair_id"], {})[spec["family"]] = doc
    problems = []
    for pair_id, pair in verdicts.items():
        if len(pair) == 2 and pair["separated"]["separated"] != (
            pair["extreme"]["verdict"] == "extreme"
        ):
            problems.append(f"vector {pair_id}: separation and certificate verdicts disagree")
    return problems


# -- cli-small ----------------------------------------------------------------


def cli_expected_exit(spec: dict, facts: "FileFacts") -> int | None:
    """Exit code fixed by the input alone; None when the gate must decide."""
    command, f = spec["command"], facts.f
    if command in workloads.POSITIVE_ONLY and not all(v > 0 for v in facts.values.values()):
        return 3  # PositivityError
    if len(facts.ran) > ORACLE_CAP and command in workloads.ORACLE:
        return 4  # CapError
    if f["kind"] == "x_n" and command == "witness":
        return 3  # x_n is separated, so no parent-child pair is blocked
    if command == "witness":
        return None
    return 0


def _holds(segment, node: str) -> bool:
    return node.startswith(segment.top.path) and segment.bottom.path.startswith(node)


def separable(partitions: list, u: str, v: str) -> bool:
    """Some norming partition keeps u and v out of a common segment."""
    return any(not any(_holds(s, u) and _holds(s, v) for s in p.segments) for p in partitions)


class FileFacts:
    """Gate-side facts about one cli-small input file, each computed once."""

    def __init__(self, f: dict):
        self.f = f
        self.values = values_of(f["vector"])
        self.x = wire.vector_from_doc(f["vector"])
        self.small = small(self.values)
        self.ran = workloads.closure(self.values)

    @functools.cached_property
    def norm_sq(self) -> Fraction:
        return exact_norm_sq(self.x)

    @functools.cached_property
    def norming(self) -> list | None:
        """All norming partitions, from the oracle; None above the oracle cap."""
        return list(jtx.enumerate_norming(self.x, ORACLE_CAP)) if self.small else None

    def separable(self, u: str, v: str) -> bool:
        return separable(self.norming, u, v)


def cli_job(index: int, spec: dict, facts: FileFacts, directory: str) -> Job:
    command = spec["command"]
    name = command.split()[0]
    vector_path = os.path.join(directory, f"x{spec['file']}.json")
    out_path = os.path.join(directory, f"out{index}.{'dot' if name == 'dot' else 'json'}")
    argv = [name, vector_path, "--out", out_path] + command.split()[1:]
    if "pair" in spec:
        argv += ["--u", spec["pair"][0], "--v", spec["pair"][1]]
    if "partition" in spec:
        argv += ["--partition", os.path.join(directory, f"p{index}.json")]
    stdout, stderr = io.StringIO(), io.StringIO()

    def call():
        stdout.seek(0)
        stdout.truncate()
        stderr.seek(0)
        stderr.truncate()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            return cli.main(argv)

    def collect(code):
        doc = {"exit": code, "out": None, "error": None, "dot": None}
        if stderr.getvalue():
            doc["error"] = json.loads(stderr.getvalue())["error"]["type"]
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(out_path)  # a later failing run must not find a stale output
            if name == "dot":
                doc["dot"] = text
            else:
                doc["out"] = json.loads(text)
        if name == "dot" and code == 0:
            doc["out"] = json.loads(stdout.getvalue())
            doc["out"]["out"] = os.path.basename(doc["out"]["out"])
        return doc

    def check(doc):
        expected = cli_expected_exit(spec, facts)
        if expected is None:  # a witness pair: blocked iff no norming partition splits it
            expected = 3 if facts.separable(*spec["pair"]) else 0
        if doc["exit"] != expected:
            return [f"{command}: exit {doc['exit']}, expected {expected}"]
        if expected != 0:
            return []
        return cli_output_problems(name, command, spec, facts, doc)

    return Job(command, call, collect, check)


def cli_output_problems(name: str, command: str, spec: dict, facts: FileFacts,
                        doc: dict) -> list[str]:
    out, values, reference = doc["out"], facts.values, facts.norm_sq
    problems: list[str] = []
    if name == "norm":
        problems += witness_problems(values, out)
        if Fraction(out["norm_sq"]) != reference:
            problems.append("norm differs from the reference norm")
        if "oracle" in command and Fraction(out["oracle_norm_sq"]) != reference:
            problems.append("oracle_norm_sq differs from the reference norm")
    elif name == "gap":
        g = Fraction(out["gap"])
        if g < 0 or (facts.small and (g == 0) != facts.separable(*spec["pair"])):
            problems.append("gap disagrees with the norming partitions")
    elif name == "separated":
        problems += separated_check(values, out)
        if facts.small:
            oracle = all(facts.separable(p[:-1], p) for p in facts.ran if p and p[:-1] in facts.ran)
            if out["separated"] != oracle:
                problems.append("separated verdict disagrees with the oracle")
    elif name == "extreme":
        problems += certificate_problems(facts.x, out)
    elif name == "greedy":
        segments = out["partition"]["segments"]
        problems += partition_problems(values, segments)
        if score(values, segments) != reference or Fraction(out["norm_sq"]) != reference:
            problems.append("greedy score differs from the norm")
    elif name == "consistent":
        if out["consistent"] is not True:
            problems.append("the greedy partition is reported inconsistent")
    elif name == "equal-sums":
        holds = all(len(set(b.values())) <= 1 for b in out["branch_sums"].values())
        if out["holds"] != holds:
            problems.append("equal-sums verdict disagrees with its branch sums")
    elif name == "enumerate-norming":
        found = out["partitions"]
        if out["count"] != len(found) or len(found) != len(facts.norming):
            problems.append("enumerate-norming count differs from the oracle")
        for p in found:
            if partition_problems(values, p["segments"]) or score(values, p["segments"]) != reference:
                problems.append("an enumerated partition is not norming")
                break
    elif name == "isolatable":
        if facts.small:
            for p, ok in out["nodes"].items():
                oracle = any(s.top.path == s.bottom.path == p
                             for part in facts.norming for s in part.segments)
                if ok != oracle:
                    problems.append(f"isolatable[{p!r}] disagrees with the oracle")
        l2 = sum((v * v for v in values.values()), Fraction(0))
        if out["l2_match"] != (reference == l2) or out["all_isolatable"] != all(
            out["nodes"].values()
        ):
            problems.append("isolatable summary flags are wrong")
    elif name == "witness":
        u, v = spec["pair"]
        cert = {"verdict": "not-extreme", "basis": "blocked-pair",
                "norm_sq": out["norm_sq"], "blocked_pair": [u, v],
                "witness_y": out["y"], "epsilon": out["epsilon"]}
        problems += certificate_problems(facts.x, cert)
    elif name == "dot":
        if out["nodes"] != len(facts.ran):
            problems.append("dot document counts the wrong number of nodes")
        if not (doc["dot"] or "").startswith("digraph ran {"):
            problems.append("dot output is not a DOT graph")
    return problems


# -- assembly -----------------------------------------------------------------


def build(workload: str, corpus: dict, parsed: list, directory: str) -> list[Job]:
    """Jobs for one pass over the corpus, in corpus order."""
    if workload == "cli-small":
        facts = [FileFacts(f) for f in corpus["files"]]
        return [cli_job(i, spec, facts[spec["file"]], directory)
                for i, spec in enumerate(corpus["jobs"])]
    make = oneshot_job if workload == "oneshot-deep" else scan_job
    return [make(spec, x) for spec, x in zip(corpus["jobs"], parsed)]
