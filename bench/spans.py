"""Run-time tracing of jtx layers for the traced benchmark run.

`Tracer.install` rebinds jtx's public entry points to wrappers that
record one span per call: name, start, end and the index of the parent
span, so nested calls are seen (certify_extreme -> is_separated ->
NormSolver.gap -> NormSolver.solve -> Partition). Methods are replaced
on their classes; functions are replaced in every jtx module that binds
them, which covers calls between modules. Spans stay in memory until
`write` at the end of the run. Nothing in jtx itself changes.

A layer's self time is its spans' time minus the time covered by their
direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter_ns

NAME, START, END, PARENT, ERROR = range(5)

# (module, attribute, span name): functions rebound wherever jtx binds them.
FUNCTIONS = [
    ("jtx.norm", "jt_norm_sq", "norm.jt_norm_sq"),
    ("jtx.norm", "oracle_norm_sq", "norm.oracle"),
    ("jtx.norm", "enumerate_norming", "norm.oracle"),
    ("jtx.tree", "complete_closure", "vector.range"),
    ("jtx.extremality", "is_separated", "extremality.separated"),
    ("jtx.extremality", "certify_extreme", "extremality.certify"),
    ("jtx.extremality", "isolatable_nodes", "extremality.isolatable"),
    ("jtx.extremality", "equal_sums_report", "extremality.equal_sums"),
    ("jtx.extremality", "perturbation_witness", "extremality.perturb"),
    ("jtx.greedy", "greedy_partition", "greedy.partition"),
    ("jtx.greedy", "consistent_with_greedy", "greedy.consistent"),
    ("jtx.wire", "load_vector", "wire.load"),
    ("jtx.wire", "load_partition", "wire.load"),
    ("jtx.wire", "norm_result_doc", "wire.emit"),
    ("jtx.wire", "separation_doc", "wire.emit"),
    ("jtx.wire", "certificate_doc", "wire.emit"),
    ("jtx.wire", "greedy_trace_doc", "wire.emit"),
    ("jtx.wire", "violation_doc", "wire.emit"),
    ("jtx.wire", "equal_sums_doc", "wire.emit"),
    ("jtx.wire", "partition_to_doc", "wire.emit"),
    ("jtx.wire", "vector_to_doc", "wire.emit"),
    ("jtx.wire", "dump", "wire.emit"),
    ("jtx.cli", "main", "cli.main"),
    ("jtx.dot", "render_dot", "dot.render"),
]

# (module, class, method, span name): methods replaced on the class.
METHODS = [
    ("jtx.norm", "NormSolver", "__init__", "norm.build"),
    ("jtx.norm", "NormSolver", "solve", "norm.solve"),
    ("jtx.norm", "NormSolver", "gap", "norm.gap"),
    ("jtx.norm", "Partition", "__post_init__", "norm.partition"),
    ("jtx.vector", "TreeVector", "range", "vector.range"),
    ("jtx.greedy", "SupportTree", "__init__", "greedy.support_tree"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, raised]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own (the harness's op span)."""
        return self.wrap(name, fn)(*args)

    # -- installation --------------------------------------------------------

    def _after(self, name: str):
        counts = self.counts
        if name == "norm.build":
            return lambda result, args: counts.update({"norm.range_nodes": len(args[0].ran)})
        if name == "norm.gap":
            return lambda result, args: counts.update({"norm.gap.positive": int(result > 0)})
        if name == "norm.jt_norm_sq":
            return lambda result, args: counts.update(
                {"norm.witness_segments": len(result.witness)})
        return None

    def _counted_dump(self, dump):
        counts = self.counts

        def counted(doc, stream):
            start = stream.tell()
            dump(doc, stream)
            counts["wire.emit.bytes"] += stream.tell() - start

        return counted

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "jtx" or n.startswith("jtx.")]
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            body = self._counted_dump(original) if attr == "dump" else original
            traced = self.wrap(name, body, self._after(name))
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._undo.append((m, attr, original))
                    setattr(m, attr, traced)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, self._after(name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "raised"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, raised count.

    A span nested directly in a span of the same name (partition_to_doc
    inside norm_result_doc, complete_closure inside TreeVector.range) is
    part of the same layer call and is not counted as a call of its own.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        t = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "raised": 0})
        t["self_s"] += (s[END] - s[START] - child_ns[i]) / 1e9
        outer = s[PARENT] < 0 or spans[s[PARENT]][NAME] != s[NAME]
        if outer:
            t["calls"] += 1
            t["raised"] += s[ERROR]
    return out


def under(spans: list[list], name: str, ancestor: str) -> tuple[int, int]:
    """(spans named `name`, how many of those have an `ancestor` span above them)."""
    inside = [False] * len(spans)
    total = hits = 0
    for i, s in enumerate(spans):
        p = s[PARENT]
        inside[i] = p >= 0 and (spans[p][NAME] == ancestor or inside[p])
        if s[NAME] == name:
            total += 1
            hits += inside[i]
    return total, hits
