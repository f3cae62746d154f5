#!/usr/bin/env python3
"""Fixed-seed benchmark for jtx.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a jtx checkout; jtx is imported from ./src. One
process, one thread, one client in a closed loop: the next operation
starts when the previous one returns. Each run:

1. sets up SETUP_REPS times (import jtx afresh, generate the corpus from
   the seed, parse it) and reports the median as setup_s;
2. with --trace 0, cycles over the corpus for --seconds, timing each
   operation, and reports the end-to-end metrics (see measure). Every
   time, set-up included, is scaled to one reference machine speed, by
   the time of a speed probe run next to it (SpeedProbe);
3. with --trace 1, cycles whole passes untraced for a third of --seconds,
   then repeats as many passes with every jtx layer wrapped in spans
   (spans.py); reports per-layer metrics per pass of the corpus and
   writes the spans to .bench_run/spans-<workload>.json;
4. runs, untimed, any operation the loop never reached, prints the
   corpus digest and the digest of every operation's first output, and
   checks those outputs with the correctness gate (jobs.py).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. `attempted` is the number of distinct operations in the corpus
and `failed` the number of them that failed on any run, so both depend
on the seed alone, not on how many repeats the window held. An
operation that raises is failed. An output that differs from the
operation's first output, or a first output the gate rejects, is wrong:
it counts as failed and makes `correct` false. Failures are reported,
never dropped.

--smoke runs every workload on tiny inputs, untraced and traced, and
checks that every metric named in BENCHMARK.json is reported and every
answer passes the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

SETUP_REPS = 7
PROBE_WINDOW = 3  # probes on each side of an operation that gauge its speed
# The speed probe's time at the machine speed all times are scaled to:
# its time in the quiet phases of a 2-vCPU KVM guest on a 2.1 GHz Xeon.
PROBE_REFERENCE_NS = 560_000
RUN_DIR = ".bench_run"


def die(message: str) -> None:
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_dir() -> str:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "jtx", "__init__.py")):
        die("src/jtx not found; run from the root of a jtx checkout")
    return src


def fresh_jtx(src: str):
    """Import jtx and all its modules from ./src, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "jtx" or n.startswith("jtx.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    cli = importlib.import_module("jtx.cli")  # imports every other jtx module
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        die(f"imported jtx from {cli.__file__}, not from {src}")
    return sys.modules["jtx.wire"]


def setup(workload: str, seed: int, tiny: bool, src: str, directory: str):
    wire = fresh_jtx(src)
    corpus = workloads.generate(workload, seed, tiny)
    if workload == "cli-small":
        workloads.write_files(corpus, directory)  # the CLI parses them inside each op
        parsed = []
    else:
        parsed = [wire.vector_from_doc(spec["vector"], workloads.CHAIN_MAX_DEPTH)
                  for spec in corpus["jobs"]]
    return corpus, parsed


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class Runner:
    """Runs jobs and keeps every output honest.

    The first output of each job is its reference: recorded when the job
    first runs, timed or not, and checked by the gate after measuring.
    Every later output must be byte-identical to it.

    Counts are per operation of the corpus, not per timed repeat, so they
    do not depend on how fast the machine was: every operation is run at
    least once, and an operation is failed if any of its runs raised, or
    gave an output that differs from its first or that the gate rejects.
    """

    def __init__(self, job_list):
        self.jobs = job_list
        self.first: list = [None] * len(job_list)
        self.digests: list = [None] * len(job_list)
        self.problems: list[str] = []
        self.raised: set[int] = set()
        self.wrong: set[int] = set()

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return len(self.raised | self.wrong)

    def run(self, i: int, call) -> int:
        """Run job i once through `call`; returns its latency in ns."""
        t0 = time.perf_counter_ns()
        try:
            raw, exc = call(), None
        except Exception as e:  # every failure is counted, never dropped
            raw, exc = None, e
        t1 = time.perf_counter_ns()
        if exc is not None:
            self.raised.add(i)
        doc = {"raised": type(exc).__name__} if exc else self.jobs[i].collect(raw)
        d = digest(doc)
        if self.digests[i] is None:
            self.first[i], self.digests[i] = doc, d
        elif d != self.digests[i] and exc is None:
            if "raised" in self.first[i]:  # only the reference raised: gate this answer
                found = self._gate(i, doc)
            else:
                found = [f"job {i} ({self.jobs[i].label}): output changed"]
            if found:
                self.wrong.add(i)
            self.problems += found
        return t1 - t0

    def complete(self) -> None:
        """Run, untimed, every job the timed loop never reached."""
        for i, job in enumerate(self.jobs):
            if self.digests[i] is None:
                self.run(i, job.call)

    def _gate(self, i: int, doc) -> list[str]:
        return [f"job {i} ({self.jobs[i].label}): {p}" for p in self.jobs[i].check(doc)]

    def gate(self, cross_check) -> None:
        for i, doc in enumerate(self.first):
            if "raised" not in doc:
                found = self._gate(i, doc)
                self.problems += found
                if found:
                    self.wrong.add(i)
        self.problems += cross_check(self.first)


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class SpeedProbe:
    """Times a fixed piece of the benchmark's own code, to gauge the machine's speed.

    Other tenants of a shared machine slow this process by up to 2x in
    phases that last from a fraction of a second to many seconds, and the
    slowdown is in CPU time, not stolen time, so no clock excludes it. The
    probe is pure Python close to jtx's own mix (Fraction sums, dicts and
    string paths) and never calls jtx, so a change to jtx cannot move it:
    its time measures only the phase the machine is in. Garbage collection
    is off while it runs, so the heap jtx leaves behind does not move it
    either.
    """

    def __init__(self):
        self.doc = workloads.sparse_positive(random.Random(0), 7, 60)

    def __call__(self) -> int:
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            workloads.heaviest_child_segments(self.doc)
            return time.perf_counter_ns() - t0
        finally:
            gc.enable()


def measure(runner: Runner, probe: SpeedProbe, seconds: float) -> dict:
    """Cycle over the corpus for `seconds`; one latency per input.

    Each operation follows a speed probe. The machine's speed at an
    operation is the median of the probes within PROBE_WINDOW operations
    of it; the operation's time is scaled by PROBE_REFERENCE_NS / that
    median, to what it would have been at the reference speed, and an
    input's latency is the median of its scaled runs, which are spread
    over the whole window.
    """
    n = len(runner.jobs)
    times: list[int] = []
    probes: list[int] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        probes.append(probe())
        times.append(runner.run(i % n, runner.jobs[i % n].call))
        i += 1
    speed = [statistics.median(probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1])
             for k in range(i)]
    runs: list[list[float]] = [[] for _ in range(n)]
    for k, t in enumerate(times):
        runs[k % n].append(t * PROBE_REFERENCE_NS / speed[k])
    typical = [statistics.median(r) / 1e6 for r in runs if r]
    p90 = quantile(typical, 90)
    print(f"timed operations {i} ({i / n:.2f} passes), inputs timed {len(typical)}, "
          f"beyond p90: {sum(t > p90 for t in typical)}")
    print(f"speed probe: fastest {min(speed) / 1e3:.1f} us, median {statistics.median(probes) / 1e3:.1f} us, "
          f"reference {PROBE_REFERENCE_NS / 1e3:.1f} us")
    return {
        "ops_per_s": (len(typical) / sum(typical) * 1e3, "1/s"),
        "op_p50_ms": (statistics.median(typical), "ms"),
        "op_p90_ms": (p90, "ms"),
    }


def run_passes(runner: Runner, passes: int, call_of) -> list[int]:
    """Whole passes over the corpus; each job's fastest latency in ns."""
    best = [None] * len(runner.jobs)
    for _ in range(passes):
        for i, job in enumerate(runner.jobs):
            t = runner.run(i, call_of(job))
            best[i] = t if best[i] is None else min(best[i], t)
    return best


def trace_metrics(runner: Runner, seconds: float, workload: str) -> dict:
    """Per-layer metrics per pass, from traced passes after as many untraced ones."""
    import spans

    passes, start = 0, time.perf_counter()
    untraced: list[int] = []
    while passes == 0 or time.perf_counter() - start < seconds / 3:
        latest = run_passes(runner, 1, lambda job: job.call)
        untraced = latest if not untraced else [min(a, b) for a, b in zip(untraced, latest)]
        passes += 1
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_passes(runner, passes, lambda job: lambda: tracer.call("op", job.call))
    finally:
        tracer.uninstall()
    os.makedirs(RUN_DIR, exist_ok=True)
    tracer.write(os.path.join(RUN_DIR, f"spans-{workload}.json"))

    layers = spans.layer_totals(tracer.spans)
    ops = len(runner.jobs)

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "self_s": 0.0, "raised": 0})

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {}
    for name, key in [
        ("norm.build", "calls"), ("norm.build", "self_s"),
        ("vector.range", "calls"), ("vector.range", "self_s"),
        ("norm.solve", "calls"), ("norm.solve", "self_s"),
        ("norm.gap", "calls"),
        ("norm.partition", "calls"), ("norm.partition", "self_s"),
        ("norm.oracle", "calls"), ("norm.oracle", "self_s"),
        ("extremality.separated", "self_s"), ("extremality.certify", "self_s"),
        ("extremality.isolatable", "self_s"), ("extremality.equal_sums", "self_s"),
        ("extremality.perturb", "calls"), ("extremality.perturb", "self_s"),
        ("greedy.support_tree", "self_s"), ("greedy.partition", "self_s"),
        ("greedy.consistent", "self_s"),
        ("wire.load", "self_s"), ("wire.emit", "self_s"),
        ("cli.main", "self_s"), ("dot.render", "self_s"),
    ]:
        unit = "1/pass" if key == "calls" else "s/pass"
        out[f"{name}.{key}"] = (layer(name)[key] / passes, unit)

    solves, discarded = spans.under(tracer.spans, "norm.solve", "norm.gap")
    norm_calls, in_perturb = spans.under(tracer.spans, "norm.jt_norm_sq", "extremality.perturb")
    norm_errors = sum(
        1 for s in tracer.spans
        if s[spans.ERROR] and s[spans.NAME].startswith("norm.")
        and (s[spans.PARENT] < 0 or not tracer.spans[s[spans.PARENT]][spans.NAME].startswith("norm."))
    )
    counts = tracer.counts
    out.update({
        "norm.solve.calls_per_op": (ratio(layer("norm.solve")["calls"], passes * ops), "1/op"),
        "norm.solve.discarded_frac": (ratio(discarded, solves), "frac"),
        "norm.gap.positive_frac": (ratio(counts["norm.gap.positive"], layer("norm.gap")["calls"]),
                                   "frac"),
        "norm.range_nodes": (ratio(counts["norm.range_nodes"], layer("norm.build")["calls"]),
                             "1/build"),
        "norm.witness_segments": (ratio(counts["norm.witness_segments"], norm_calls), "1/norm"),
        "norm.errors": (norm_errors / passes, "1/pass"),
        "extremality.perturb.norm_calls": (
            ratio(in_perturb, layer("extremality.perturb")["calls"]), "1/witness"),
        "wire.emit.bytes": (counts["wire.emit.bytes"] / passes, "B/pass"),
        "trace.overhead_frac": (sum(traced) / sum(untraced) - 1, "frac"),
    })
    print(f"traced passes {passes}, spans {len(tracer.spans)}")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    src = source_dir()
    os.environ.pop("JTX_ORACLE_CAP", None)  # the CLI's default cap is part of the workload
    directory = os.path.join(RUN_DIR, f"{workload}-{os.getpid()}")
    try:
        probe = SpeedProbe()
        setups = []  # (seconds, probe time in ns around the set-up)
        for _ in range(SETUP_REPS):
            around = [probe() for _ in range(3)]
            t0 = time.perf_counter()
            corpus, parsed = setup(workload, seed, tiny, src, directory)
            t = time.perf_counter() - t0
            around += [probe() for _ in range(3)]
            setups.append((t, statistics.median(around)))
        import jobs  # binds the jtx imported by the last set-up

        runner = Runner(jobs.build(workload, corpus, parsed, directory))
        print(f"workload {workload} seed {seed}: {len(runner.jobs)} operations per pass")
        print(f"corpus_digest {digest(corpus)}")
        if trace:
            metrics = trace_metrics(runner, seconds, workload)
        else:
            metrics = measure(runner, probe, seconds)
            metrics["setup_s"] = (
                statistics.median(t * PROBE_REFERENCE_NS / speed for t, speed in setups), "s")
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
        runner.complete()
        print(f"output_digest {digest(runner.first)}")
        runner.gate(lambda docs: jobs.cross_check(corpus, docs))
        if not trace:
            metrics["ok_frac"] = (1 - runner.failed / runner.attempted, "frac")
        print(f"operations {runner.attempted}: raised {len(runner.raised)}, "
              f"wrong {len(runner.wrong)}, failed {runner.failed}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def smoke() -> int:
    """Every workload once on tiny inputs, untraced and traced, in fresh processes."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    errors = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.GENERATORS):
        errors.append("BENCHMARK.json names other workloads than bench/workloads.py")
    for workload in workloads.GENERATORS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", "1",
                 "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170, check=False)
            if proc.returncode != 0:
                errors.append(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            missing = wanted[trace] - set(result["metrics"])
            extra = set(result["metrics"]) - wanted[trace]
            if missing or extra:
                errors.append(f"{workload} trace={trace}: missing {sorted(missing)}, "
                              f"unexpected {sorted(extra)}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{workload} trace={trace}: gate failed\n{proc.stderr}")
            print(f"smoke {workload} trace={trace}: {result['attempted']} ops, "
                  f"correct={result['correct']} failed={result['failed']}")
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problem(s)")
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (used by --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs and check the report")
    args = parser.parse_args()
    if args.smoke:
        source_dir()
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
