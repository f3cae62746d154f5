"""Wire formats: vector and partition files, decimal renderings.

Claims:
    - vector and partition documents round-trip exactly
    - malformed documents raise InputError with exit code 2 semantics,
      and so do a key repeated in any JSON object of an input file, a
      segment end that is not a string, bytes that are not UTF-8, a bare
      integer past the interpreter's limit on integer text and nesting
      past its recursion limit
    - sqrt_decimal is correctly rounded at the last digit and accepts
      exactly 0..MAX_DIGITS digits; its closed form gives the digits of
      the correction loops it replaced on exact squares, half-ulp ties
      and random rationals
    - a vector document with a node key that is not a string, and a
      partition or segment document of the wrong shape, raise InputError;
      a long key is echoed cut short
    - format_rational and sqrt_decimal raise InputError on values past
      the interpreter's limit on integer text
"""

from __future__ import annotations

import io
import json
import random
import sys
from fractions import Fraction
from math import isqrt

import pytest

from jtx import (
    InputError,
    InvalidPartitionError,
    Node,
    Partition,
    Segment,
    TreeVector,
    jt_norm_sq,
)
from jtx.wire import (
    MAX_DIGITS,
    load_partition,
    load_vector,
    norm_result_doc,
    partition_from_doc,
    partition_to_doc,
    sqrt_decimal,
    vector_from_doc,
    vector_to_doc,
)
from jtx.vector import format_rational

EX = TreeVector.from_dict({"": 1, "00": 1, "01": "1"})


class TestVectorDocs:
    def test_round_trip(self):
        doc = vector_to_doc(TreeVector.from_dict({"": "3/2", "01": "-1/4"}))
        assert doc == {"vector": {"": "3/2", "01": "-1/4"}}
        assert vector_from_doc(doc) == TreeVector.from_dict({"": "3/2", "01": "-1/4"})

    def test_decimal_strings_parse_exactly(self):
        x = vector_from_doc({"vector": {"0": "0.25"}})
        assert x.value(Node("0")) == Fraction(1, 4)

    def test_rejects_bad_documents(self):
        for doc in [[], {"vec": {}}, {"vector": []}, {"vector": {"2": "1"}},
                    {"vector": {"0": "x"}}, {"vector": {"0": 0.5}}]:
            with pytest.raises(InputError):
                vector_from_doc(doc)

    def test_node_keys_must_be_strings(self):
        with pytest.raises(InputError, match="^node keys must be strings, got 0$"):
            vector_from_doc({"vector": {0: "1"}})

    def test_long_non_string_key_is_cut_short(self):
        key = ("x" * 5000,)
        with pytest.raises(InputError) as exc:
            vector_from_doc({"vector": {key: "1"}})
        shown = repr(key)[:200] + "... (5005 characters)"
        assert str(exc.value) == "node keys must be strings, got " + shown

    def test_depth_cap(self):
        deep = {"vector": {"0" * 31: "1"}}
        with pytest.raises(InputError):
            vector_from_doc(deep)
        assert len(vector_from_doc(deep, max_depth=31)) == 1

    def test_load_rejects_bad_json(self):
        with pytest.raises(InputError):
            load_vector(io.StringIO("{not json"))

    @pytest.mark.parametrize("text", [
        '{"vector": {"0": "1", "0": "-5", "": "2"}}',
        '{"vector": {"": "1", "": "1"}}',
        '{"vector": {"0": "1"}, "vector": {"1": "1"}}',
    ])
    def test_load_rejects_repeated_keys(self, text):
        with pytest.raises(InputError, match="^duplicate key "):
            load_vector(io.StringIO(text))


class TestPartitionDocs:
    def test_round_trip(self):
        p = Partition.of(Segment(Node(""), Node("00")), Segment(Node("01"), Node("01")))
        doc = partition_to_doc(p)
        assert doc == {
            "segments": [
                {"top": "", "bottom": "00"},
                {"top": "01", "bottom": "01"},
            ]
        }
        assert partition_from_doc(doc) == p

    def test_overlap_rejected(self):
        doc = {
            "segments": [
                {"top": "", "bottom": "0"},
                {"top": "0", "bottom": "00"},
            ]
        }
        with pytest.raises(InvalidPartitionError):
            load_partition(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("doc, kind", [
        ([], "partition"),
        ({"segs": []}, "partition"),
        ({"segments": {}}, "partition"),
        ({"segments": [["", "0"]]}, "segment"),
        ({"segments": [{"top": ""}]}, "segment"),
        ({"segments": [{"bottom": "0"}]}, "segment"),
    ])
    def test_rejects_bad_documents(self, doc, kind):
        with pytest.raises(InputError, match=f"^{kind} document must be "):
            partition_from_doc(doc)

    def test_load_rejects_repeated_keys(self):
        text = '{"segments": [{"top": "", "bottom": "0", "bottom": "00"}]}'
        with pytest.raises(InputError, match="^duplicate key 'bottom' "):
            load_partition(io.StringIO(text))

    @pytest.mark.parametrize("segment, shown", [
        ({"top": 1, "bottom": "0"}, "1"),
        ({"top": "", "bottom": None}, "None"),
        ({"top": ["0"], "bottom": "0"}, "['0']"),
    ])
    def test_segment_ends_must_be_strings(self, segment, shown):
        with pytest.raises(InputError) as exc:
            load_partition(io.StringIO(json.dumps({"segments": [segment]})))
        assert str(exc.value) == f"segment ends must be strings, got {shown}"


def _utf8_stream(data: bytes) -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


class TestMalformedBytes:
    def test_non_utf8_bytes(self):
        with pytest.raises(InputError, match="^input is not UTF-8 text: "):
            load_vector(_utf8_stream(b'{"vector": {"": "1\xff"}}'))
        with pytest.raises(InputError, match="^input is not UTF-8 text: "):
            load_partition(_utf8_stream(b'{"segments": [{"top": "\xc3", "bottom": "0"}]}'))

    def test_bare_integer_past_the_digit_limit(self, default_digit_limit):
        digits = "1" * 4301
        with pytest.raises(InputError, match="^invalid JSON: "):
            load_vector(io.StringIO('{"vector": {"": ' + digits + "}}"))
        x = load_vector(io.StringIO('{"vector": {"": ' + digits[1:] + "}}"))
        assert x.value(Node("")) == int(digits[1:])

    def test_nesting_past_the_recursion_limit(self):
        deep = "[" * 100_000 + "]" * 100_000
        with pytest.raises(InputError, match="^invalid JSON: nested deeper "):
            load_vector(io.StringIO('{"vector": ' + deep + "}"))
        with pytest.raises(InputError, match="^invalid JSON: nested deeper "):
            load_partition(io.StringIO('{"segments": ' + deep + "}"))


def _rounded_sqrt_by_loop(q: Fraction, digits: int) -> int:
    """sqrt(q) * 10**digits rounded to nearest, ties up: the integer square
    root estimate and the two correction loops sqrt_decimal used before its
    closed form, kept as the reference."""
    p, r = q.numerator, q.denominator
    scaled = p * 10 ** (2 * digits)
    n = isqrt(scaled // r)
    while n > 0 and 4 * scaled < (2 * n - 1) ** 2 * r:
        n -= 1
    while 4 * scaled >= (2 * n + 1) ** 2 * r:
        n += 1
    return n


class TestSqrtDecimal:
    def test_sqrt_five(self):
        # sqrt(5) = 2.23606797749978969... -> rounds up in the 12th digit
        assert sqrt_decimal(Fraction(5), 12) == "2.236067977500"

    def test_exact_square(self):
        assert sqrt_decimal(Fraction(4), 12) == "2.000000000000"
        assert sqrt_decimal(Fraction(9, 4), 6) == "1.500000"

    def test_zero_digits(self):
        assert sqrt_decimal(Fraction(5), 0) == "2"
        assert sqrt_decimal(Fraction(9), 0) == "3"

    def test_half_tie_rounds_up(self):
        # sqrt(1/4) = 0.5 exactly: one digit keeps it, zero digits round up
        assert sqrt_decimal(Fraction(1, 4), 1) == "0.5"
        assert sqrt_decimal(Fraction(1, 4), 0) == "1"

    def test_matches_float_on_easy_values(self):
        import math

        for q in [Fraction(2), Fraction(3), Fraction(10), Fraction(7, 3)]:
            want = f"{math.sqrt(q):.9f}"
            assert sqrt_decimal(q, 9) == want

    def test_closed_form_matches_the_correction_loops(self):
        """Exact squares, half-ulp ties and random rationals, 0 to 40 digits."""
        rng = random.Random(16)
        for _ in range(2000):
            digits = rng.randint(0, 40)
            root = Fraction(rng.randint(0, 10 ** rng.randint(0, 12)),
                            rng.randint(1, 10 ** rng.randint(0, 8)))
            k = rng.randint(0, 10 ** rng.randint(0, 15))
            tie = Fraction(2 * k + 1, 2 * 10**digits) ** 2  # sqrt lands half-way past k
            assert _rounded_sqrt_by_loop(tie, digits) == k + 1
            other = Fraction(rng.randint(0, 10 ** rng.randint(0, 30)),
                             rng.randint(1, 10 ** rng.randint(0, 20)))
            for q in (root * root, tie, other):
                n = _rounded_sqrt_by_loop(q, digits)
                whole, frac = divmod(n, 10**digits)
                want = str(n) if digits == 0 else f"{whole}.{frac:0{digits}d}"
                assert sqrt_decimal(q, digits) == want, (q, digits)

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            sqrt_decimal(Fraction(-1), 3)

    def test_digit_bounds(self):
        assert sqrt_decimal(Fraction(2), MAX_DIGITS).startswith("1.41421356237")
        assert len(sqrt_decimal(Fraction(2), MAX_DIGITS)) == MAX_DIGITS + 2
        for digits in (-1, MAX_DIGITS + 1):
            with pytest.raises(InputError):
                sqrt_decimal(Fraction(2), digits)


@pytest.fixture()
def default_digit_limit():
    """The interpreter's default 4300-digit limit on integer text."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


class TestDigitLimit:
    def test_format_rational(self, default_digit_limit):
        assert format_rational(Fraction(10**4000, 3)) == "1" + "0" * 4000 + "/3"
        for q in (Fraction(10**5000), Fraction(1, 3**10000)):
            with pytest.raises(InputError):
                format_rational(q)

    def test_sqrt_decimal(self, default_digit_limit):
        assert len(sqrt_decimal(Fraction(10**8000), 0)) == 4001
        for digits in (0, 3):
            with pytest.raises(InputError):
                sqrt_decimal(Fraction(10**9000), digits)


class TestNormResultDoc:
    def test_worked_example(self):
        doc = norm_result_doc(jt_norm_sq(EX))
        assert doc["norm_sq"] == "5"
        assert doc["norm_decimal"] == "2.236067977500"
        assert doc["witness"] == {
            "segments": [
                {"top": "", "bottom": "00"},
                {"top": "01", "bottom": "01"},
            ]
        }
