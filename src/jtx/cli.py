"""Command-line front end.

Each invocation runs one command over a vector file and writes a single
JSON document to stdout (or --out). Exit codes: 0 success, 2 input
error (malformed input, an input file that cannot be read or an --out
path that cannot be written), 3 precondition violation, 4 oracle cap
exceeded, 5 internal invariant failure. Every error writes one error
document to stderr, except a bad flag, which gets argparse's plain-text
usage message and exit 2. Both echo a long value, node key, flag value
or file path cut short.

Input bounds (exit 2 beyond them): --digits lies in 0..1000, vector
values are integers, fractions or plain decimals (exponent forms such
as "1e50" are rejected), and every output value must fit the
interpreter's limit on the digits of integer text. The oracle cap
(--oracle-cap, default 13) is an integer of at least 0; only the
commands that read it (norm --oracle, enumerate-norming, witness)
check it. The flag is its only source, so a document depends only on
the arguments and the input files. The integer flags reject "_" and
non-ASCII characters, as vector values do. An input file, or a vector
read from stdin, is UTF-8 text whatever the locale, no JSON object in
it may repeat a key, its nesting stays within the interpreter's
recursion limit, a bare integer in it obeys the same digit limit, and a
partition segment's top and bottom are strings.

The argument parser is built once per process, on the first main()
call, and reused by every later call: it holds no per-call state, since
parse_args returns a fresh namespace and every default is a module
constant.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import IO, Iterator

from . import dot as dot_mod
from . import wire
from .errors import CapError, InputError, InternalError, JtxError, _shown
from .extremality import (
    _isolation_report,
    _perturbation,
    certify_extreme,
    equal_sums_report,
    is_separated,
    vanishes_on_all_norming,
)
from .greedy import consistent_with_greedy, greedy_partition
from .norm import (
    NormSolver,
    ORACLE_NODE_CAP,
    enumerate_norming,
    jt_norm_sq,
    oracle_norm_sq,
    score,
)
from .tree import parse_node
from .vector import format_rational


def _int_flag(text: str) -> int:
    """An integer flag's value in the grammar of vector values (no '_', ASCII only);
    argparse's message for a bad one, echoing it cut short."""
    if "_" not in text and text.isascii():
        with contextlib.suppress(ValueError):
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {_shown(repr(text))}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jtx",
        description="Exact James Tree norm toolkit: norms, norming partitions, "
        "separation, and extreme-point certificates for finite-support vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("vector", help="vector JSON file, or - for stdin")
        p.add_argument("--out", help="write the output document here instead of stdout")
        p.add_argument(
            "--digits",
            type=_int_flag,
            default=wire.DEFAULT_DIGITS,
            help="fractional digits for decimal norm renderings (0 to %d)"
            % wire.MAX_DIGITS,
        )
        p.add_argument(
            "--oracle-cap",
            type=_int_flag,
            default=ORACLE_NODE_CAP,
            help="max |ran(x)| for exhaustive enumeration (default %d)" % ORACLE_NODE_CAP,
        )
        return p

    p = cmd("norm", "squared JT norm with a maximizing partition")
    p.add_argument("--oracle", action="store_true", help="cross-check against the brute-force oracle")

    p = cmd("gap", "separation gap of a node pair")
    p.add_argument("--u", required=True, help="first node (bit string, root = '')")
    p.add_argument("--v", required=True, help="second node")

    p = cmd("separated", "decide the separated property")
    p.add_argument("--all-pairs", action="store_true", help="score every comparable pair, not just parent-child")

    cmd("extreme", "extremality certificate")

    p = cmd("greedy", "greedy norming partition of a positive vector")
    p.add_argument("--tie-policy", choices=("lex-min", "lex-max"), default="lex-min")

    p = cmd("consistent", "check a partition against the greedy rule")
    p.add_argument("--partition", required=True, help="partition JSON file")

    cmd("equal-sums", "equal sums report for a positive vector")
    cmd("enumerate-norming", "all norming partitions (oracle-sized vectors)")
    cmd("isolatable", "per-node isolation check and l2 comparison")

    p = cmd("witness", "perturbation witness for an inseparable parent-child pair")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = cmd("dot", "DOT graph of ran(x) with a partition overlay")
    p.add_argument("--partition", help="overlay this partition file instead of the computed witness")
    return parser


@contextlib.contextmanager
def _user_file(path: str, mode: str = "r") -> Iterator[IO[str]]:
    """path opened as UTF-8 text; an OSError from opening it or in the body is an InputError."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        verb = "write" if mode == "w" else "read"
        raise InputError(f"cannot {verb} {_shown(path)}: {_shown(str(exc))}") from None


def _resolve_cap(args: argparse.Namespace) -> int:
    if args.oracle_cap < 0:
        raise InputError(f"--oracle-cap must be at least 0, got {_shown(str(args.oracle_cap))}")
    return args.oracle_cap


def _run(args: argparse.Namespace) -> dict:
    wire.check_digits(args.digits)
    if args.vector == "-":  # stdin's bytes when it has them, so they too must be UTF-8
        x = wire.load_vector(getattr(sys.stdin, "buffer", sys.stdin))
    else:
        with _user_file(args.vector) as fh:
            x = wire.load_vector(fh)

    if args.command == "norm":
        cap = _resolve_cap(args) if args.oracle else None
        res = jt_norm_sq(x)
        doc = wire.norm_result_doc(res, args.digits)
        if args.oracle:
            check = oracle_norm_sq(x, cap)
            doc["oracle_norm_sq"] = format_rational(check)
            if check != res.norm_sq:
                # jt_norm_sq walks a positive vector and runs the DP on any other
                engine = "the heaviest-child walk" if x.is_positive() else "the DP"
                raise InternalError(f"oracle disagrees with {engine}: {check} != {res.norm_sq}")
        return doc

    if args.command == "gap":
        u, v = parse_node(args.u), parse_node(args.v)
        g = NormSolver(x).gap(u, v)
        return {"u": u.path, "v": v.path, "gap": format_rational(g)}

    if args.command == "separated":
        return wire.separation_doc(is_separated(x, all_pairs=args.all_pairs))

    if args.command == "extreme":
        return wire.certificate_doc(certify_extreme(x))

    if args.command == "greedy":
        partition, trace = greedy_partition(x, tie_policy=args.tie_policy)
        return {
            "norm_sq": format_rational(score(x, partition)),
            "partition": wire.partition_to_doc(partition),
            "trace": wire.greedy_trace_doc(trace),
        }

    if args.command == "consistent":
        with _user_file(args.partition) as fh:
            partition = wire.load_partition(fh)
        ok, violations = consistent_with_greedy(x, partition)
        return {
            "consistent": ok,
            "violations": [wire.violation_doc(v) for v in violations],
        }

    if args.command == "equal-sums":
        return wire.equal_sums_doc(equal_sums_report(x))

    if args.command == "enumerate-norming":
        partitions = sorted(
            enumerate_norming(x, _resolve_cap(args)),
            key=lambda p: [s.sort_key() for s in p.sorted_segments()],
        )
        norm_sq = NormSolver(x).norm_sq()
        return {
            "norm_sq": format_rational(norm_sq),
            "count": len(partitions),
            "partitions": [wire.partition_to_doc(p) for p in partitions],
        }

    if args.command == "isolatable":
        per_node, every, l2_match = _isolation_report(NormSolver(x))
        return {
            "all_isolatable": every,
            "l2_match": l2_match,
            "nodes": {n.path: ok for n, ok in per_node.items()},  # filled in canonical order
        }

    if args.command == "witness":
        cap = _resolve_cap(args)
        u, v = parse_node(args.u), parse_node(args.v)
        solver = NormSolver(x)
        y, eps = _perturbation(solver, u, v)
        try:
            vanishes = vanishes_on_all_norming(x, y, cap)
        except CapError:
            vanishes = None
        return {
            "u": u.path,
            "v": v.path,
            "epsilon": format_rational(eps),
            "y": wire.vector_to_doc(y),
            "norm_sq": format_rational(solver.norm_sq()),
            "vanishes_on_all_norming": vanishes,
        }

    if args.command == "dot":
        if not args.out:
            raise InputError("dot requires --out FILE for the DOT text")
        if args.partition:
            with _user_file(args.partition) as fh:
                partition = wire.load_partition(fh)
        else:
            partition = jt_norm_sq(x).witness
        text = dot_mod.render_dot(x, partition)
        with _user_file(args.out, "w") as fh:
            fh.write(text)
        return {
            "out": args.out,
            "nodes": len(x.range()),
            "segments": len(partition),
        }

    raise InternalError(f"unhandled command {args.command!r}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _run(args)
        if args.command != "dot" and args.out:
            with _user_file(args.out, "w") as fh:
                wire.dump(doc, fh)
        else:
            wire.dump(doc, sys.stdout)
    except JtxError as exc:
        wire.dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}, sys.stderr
        )
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
