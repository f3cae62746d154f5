"""JSON wire forms for vectors, partitions, and result documents.

Rationals travel as strings ("p" or "p/q"); decimal renderings are
side-channel only and always labeled as such. Node wire form is the bit
string with "" for the root. Reports come in canonical order and
documents keep their order, so identical inputs produce identical bytes;
only a Partition, a set, is sorted here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt
from typing import Any, IO

from .errors import InputError, _shown
from .extremality import EqualSumsReport, ExtremeCertificate, SeparationReport
from .greedy import GreedyTrace, GreedyViolation
from .norm import NormResult, Partition
from .tree import DEFAULT_MAX_DEPTH, Node, Segment, parse_node
from .vector import TreeVector, format_rational, parse_rational

DEFAULT_DIGITS = 12
# Cap on fractional digits, which bounds the size of the exact square root.
MAX_DIGITS = 1000


# -- JSON input -----------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """Build one JSON object, rejecting a key it repeats (json keeps the last)."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise InputError(f"duplicate key {_shown(repr(key))} in a JSON object")
        doc[key] = value
    return doc


# one decoder for every load: json.load(..., object_pairs_hook=...) would
# build a new decoder and scanner per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load_json(stream: IO) -> Any:
    """The JSON document in a text stream, or in a byte stream read as strict UTF-8."""
    try:
        text = stream.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8 text: {exc}") from None
    try:
        return _DECODER.decode(text)
    except ValueError as exc:  # also a bare integer past the interpreter's digit limit
        raise InputError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError("invalid JSON: nested deeper than the recursion limit") from None


# -- vectors ------------------------------------------------------------


def vector_to_doc(x: TreeVector) -> dict:
    return {"vector": {n.path: format_rational(v) for n, v in x.items()}}


def vector_from_doc(doc: Any, max_depth: int = DEFAULT_MAX_DEPTH) -> TreeVector:
    if not isinstance(doc, dict) or not isinstance(doc.get("vector"), dict):
        raise InputError('vector document must be {"vector": {"<bits>": "<rational>"}}')
    entries = {}
    for key, raw in doc["vector"].items():
        if not isinstance(key, str):
            raise InputError(f"node keys must be strings, got {_shown(repr(key))}")
        entries[parse_node(key, max_depth)] = parse_rational(raw)
    return TreeVector(entries)


def load_vector(stream: IO, max_depth: int = DEFAULT_MAX_DEPTH) -> TreeVector:
    return vector_from_doc(_load_json(stream), max_depth)


# -- segments and partitions ---------------------------------------------


def segment_to_doc(s: Segment) -> dict:
    return {"top": s.top.path, "bottom": s.bottom.path}


def segment_from_doc(doc: Any, max_depth: int = DEFAULT_MAX_DEPTH) -> Segment:
    if not isinstance(doc, dict) or "top" not in doc or "bottom" not in doc:
        raise InputError('segment document must be {"top": "...", "bottom": "..."}')
    ends = (doc["top"], doc["bottom"])
    for end in ends:
        if not isinstance(end, str):
            raise InputError(f"segment ends must be strings, got {_shown(repr(end))}")
    return Segment(*(parse_node(end, max_depth) for end in ends))


def partition_to_doc(p: Partition) -> dict:
    return {"segments": [segment_to_doc(s) for s in p.sorted_segments()]}


def partition_from_doc(doc: Any, max_depth: int = DEFAULT_MAX_DEPTH) -> Partition:
    if not isinstance(doc, dict) or not isinstance(doc.get("segments"), list):
        raise InputError('partition document must be {"segments": [...]}')
    return Partition.of(*(segment_from_doc(d, max_depth) for d in doc["segments"]))


def load_partition(stream: IO[str], max_depth: int = DEFAULT_MAX_DEPTH) -> Partition:
    return partition_from_doc(_load_json(stream), max_depth)


# -- decimal rendering ----------------------------------------------------


def sqrt_decimal(q: Fraction, digits: int = DEFAULT_DIGITS) -> str:
    """Decimal expansion of sqrt(q) with `digits` fractional digits.

    Correctly rounded to nearest; the only possible ties are rational
    square roots landing exactly on a half-ulp, which round up. Uses
    integer arithmetic throughout, and writes both parts out through
    format_rational.
    """
    if q < 0:
        raise InputError("sqrt_decimal requires a nonnegative rational")
    if not 0 <= digits <= MAX_DIGITS:
        raise InputError(f"digits must be between 0 and {MAX_DIGITS}, got {_shown(str(digits))}")
    p, r = q.numerator, q.denominator
    scaled = p * 10 ** (2 * digits)
    # the unique n with (2n-1)^2 r <= 4*scaled < (2n+1)^2 r, since
    # m = isqrt(4*scaled // r) = floor(sqrt(4*scaled / r)) has 2n-1 <= m < 2n+1
    n = (isqrt(4 * scaled // r) + 1) // 2
    whole, frac = divmod(n, 10 ** digits)
    text = format_rational(whole)
    return f"{text}.{format_rational(frac).zfill(digits)}" if digits else text


# -- result documents ------------------------------------------------------


def norm_result_doc(res: NormResult, digits: int = DEFAULT_DIGITS) -> dict:
    return {
        "norm_sq": format_rational(res.norm_sq),
        "norm_decimal": sqrt_decimal(res.norm_sq, digits),
        "witness": partition_to_doc(res.witness),
    }


def _pair_doc(pair: tuple[Node, Node] | None) -> list[str] | None:
    return None if pair is None else [pair[0].path, pair[1].path]


def separation_doc(report: SeparationReport) -> dict:
    return {
        "separated": report.separated,
        "mode": report.mode,
        "pair_gaps": [
            {"u": u.path, "v": v.path, "gap": format_rational(g)}
            for (u, v), g in report.pair_gaps.items()
        ],
        "first_blocked_pair": _pair_doc(report.first_blocked_pair),
    }


def certificate_doc(cert: ExtremeCertificate) -> dict:
    return {
        "verdict": cert.verdict,
        "basis": cert.basis,
        "blocked_pair": _pair_doc(cert.blocked_pair),
        "witness_y": None if cert.witness_y is None else vector_to_doc(cert.witness_y),
        "epsilon": None if cert.epsilon is None else format_rational(cert.epsilon),
        "norm_sq": format_rational(cert.norm_sq),
    }


def greedy_trace_doc(trace: GreedyTrace) -> dict:
    return {
        "s_values": {n.path: format_rational(s) for n, s in trace.s_values.items()},
        "chosen": {n.path: None if c is None else c.path for n, c in trace.chosen.items()},
        "ties": {n.path: [c.path for c in ties] for n, ties in trace.tie_sets.items()},
    }


def violation_doc(v: GreedyViolation) -> dict:
    return {
        "segment": segment_to_doc(v.segment),
        "node": v.node.path,
        "chosen": v.chosen.path,
        "better": v.better.path,
        "chosen_sum": format_rational(v.chosen_sum),
        "better_sum": format_rational(v.better_sum),
    }


def equal_sums_doc(report: EqualSumsReport) -> dict:
    return {
        "holds": report.holds,
        "sigma": format_rational(report.sigma),
        "branch_sums": {
            u.path: {bottom.path: format_rational(s) for bottom, s in sums.items()}
            for u, sums in report.branch_sums.items()
        },
        "sibling_balance": {
            u.path: [format_rational(a), format_rational(b)]
            for u, (a, b) in report.sibling_balance.items()
        },
    }


def dump(doc: Any, stream: IO[str]) -> None:
    stream.write(json.dumps(doc, indent=2) + "\n")
