"""TreeVector construction, support/range, restrictions, sums.

Claims:
    - zero entries are dropped at construction; equality is exact
    - support and range match the worked example
    - l2_sq, segment_sum, restrict behave per their contracts
    - wedge restriction needs no materialized wedge
    - parse errors echo a value of ordinary length whole, and a long one
      cut short with its length
    - a value holding "_" or a non-ASCII character is an InputError on
      every Python version; ASCII forms parse as before
    - a value of another type, a TreeVector key that is not a Node and a
      from_dict key that is neither a Node nor a string are InputErrors,
      which echo a long key cut short
    - sums, differences, scalings and restrictions equal the vectors the
      validating constructor builds from the same entries, exact
      cancellation and scaling by 0 included; equal vectors hash equal
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jtx import (
    InputError,
    Node,
    PositivityError,
    Segment,
    TreeVector,
    leq,
    parse_rational,
)

EX = TreeVector.from_dict({"": 1, "00": 1, "01": 1})
# values whose parse by Fraction depends on the Python version ("_" on
# 3.11+, spaces around "/" on 3.12+) or admits digits of other scripts
# (Arabic-Indic, fullwidth)
SEPARATOR_AND_NON_ASCII = ["1_000", "1/2_0", "1.5_0", "1 / 2", "1/ 2", "1\t/2",
                           "\u0661\u0662", "\uff11\uff12"]


class TestConstruction:
    def test_zero_stripping(self):
        a = TreeVector.from_dict({"": 1, "0": 0})
        b = TreeVector.from_dict({"": 1})
        assert a == b
        assert a.support() == {Node("")}

    def test_rational_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational(7) == Fraction(7)

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(InputError):
            parse_rational(0.25)
        with pytest.raises(InputError):
            parse_rational("1/0")
        with pytest.raises(InputError):
            parse_rational("abc")

    @pytest.mark.parametrize("text", ["1e50", "1E5", "2.5e-3", "-1e0", "3/1e2"])
    def test_rejects_exponent_forms(self, text):
        with pytest.raises(InputError, match="exponent"):
            parse_rational(text)

    # Fraction reads "_" as a digit separator on 3.11+ only, spaces around
    # "/" on 3.12+ only, and other scripts' digits on every version; one
    # grammar holds on every Python
    @pytest.mark.parametrize("text", SEPARATOR_AND_NON_ASCII)
    def test_rejects_separators_and_non_ascii(self, text):
        with pytest.raises(InputError) as exc:
            parse_rational(text)
        assert str(exc.value) == f"'_', inner whitespace and non-ASCII characters are not accepted, got {text!r}"

    @pytest.mark.parametrize("text, value", [
        ("1000", 1000), ("-12", -12), ("1/20", Fraction(1, 20)), ("1.50", Fraction(3, 2)),
        (" 7/4\n", Fraction(7, 4)), ("-0.125", Fraction(-1, 8)),
    ])
    def test_ascii_forms_parse_as_before(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text, message", [
        ("abc", "cannot parse rational 'abc': Invalid literal for Fraction: 'abc'"),
        ("1/0", "cannot parse rational '1/0': Fraction(1, 0)"),
        ("1e50", "exponent forms are not accepted, got '1e50'"),
    ])
    def test_ordinary_values_echo_whole(self, text, message):
        with pytest.raises(InputError) as exc:
            parse_rational(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, start", [
        ("1" * 100_000, "cannot parse rational '" + "1" * 199 + "... (100002 characters): "),
        ("x" * 100_000, "cannot parse rational '" + "x" * 199 + "... (100002 characters): "),
        ("7" * 3000 + "/0", "cannot parse rational '" + "7" * 199 + "... (3004 characters): "),
        ("1e" + "1" * 100_000, "exponent forms are not accepted, got '1e" + "1" * 197 + "... "),
        ("_" + "1" * 100_000, "'_', inner whitespace and non-ASCII characters are not accepted, got '_"
         + "1" * 198 + "... (100003 characters)"),
    ])
    def test_long_values_echo_cut_short(self, text, start):
        with pytest.raises(InputError) as exc:
            parse_rational(text)
        message = str(exc.value)
        assert message.startswith(start)
        assert len(message) < 600

    def test_accepts_long_plain_forms(self):
        digits = "9" * 60
        assert parse_rational(digits) == int(digits)
        assert parse_rational(f"-{digits}/7") == Fraction(-int(digits), 7)
        assert parse_rational("0." + "0" * 49 + "1") == Fraction(1, 10**50)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(InputError):
            TreeVector.from_dict({"0": 1, Node("0"): 2})

    def test_other_types_rejected(self):
        with pytest.raises(InputError, match="^cannot parse rational from NoneType$"):
            parse_rational(None)

    @pytest.mark.parametrize("key", ["0", 0, None, "0" * 300], ids=["str", "int", "None", "long"])
    def test_keys_must_be_nodes(self, key):
        shown = repr(key)
        if len(shown) > 200:
            shown = f"{shown[:200]}... ({len(shown)} characters)"
        with pytest.raises(InputError) as exc:
            TreeVector({key: 1})
        assert str(exc.value) == f"vector keys must be Nodes, got {shown}"

    @pytest.mark.parametrize("key", [1, ("0",), ("0",) * 100], ids=["int", "tuple", "long"])
    def test_from_dict_rejects_keys_of_other_types(self, key):
        shown = repr(key)
        if len(shown) > 200:
            shown = f"{shown[:200]}... ({len(shown)} characters)"
        with pytest.raises(InputError) as exc:
            TreeVector.from_dict({key: "1"})
        assert str(exc.value) == f"node path must be a string, got {shown}"

    def test_immutability_of_transforms(self):
        y = EX.restrict([Node("")])
        assert EX.value(Node("00")) == 1
        assert y.value(Node("00")) == 0


class TestSupportRange:
    def test_support_example(self):
        assert EX.support() == {Node(""), Node("00"), Node("01")}
        assert TreeVector.zero().support() == frozenset()

    def test_range_example(self):
        assert EX.range() == {Node(""), Node("0"), Node("00"), Node("01")}
        assert TreeVector.from_dict({"": 1}).range() == {Node("")}
        assert TreeVector.from_dict({"0": 1, "00": 2}).range() == {
            Node("0"),
            Node("00"),
        }


class TestQuantities:
    def test_l2_sq(self):
        assert EX.l2_sq() == 3
        assert TreeVector.zero().l2_sq() == 0
        assert TreeVector.from_dict({"": "3/2"}).l2_sq() == Fraction(9, 4)

    def test_segment_sum(self):
        assert EX.segment_sum(Segment(Node(""), Node("00"))) == 2
        assert EX.segment_sum(Segment(Node("01"), Node("01"))) == 1
        assert EX.segment_sum(Segment(Node("1"), Node("11"))) == 0

    def test_positivity_guard(self):
        signed = TreeVector.from_dict({"": 1, "0": -1})
        assert not signed.is_positive()
        with pytest.raises(PositivityError):
            signed.require_positive("test op")


class TestRestrict:
    def test_wedge_example(self):
        assert EX.wedge(Node("0")) == TreeVector.from_dict({"00": 1, "01": 1})

    def test_restrict_identity_and_empty(self):
        assert EX.restrict(EX.range()) == EX
        assert EX.restrict([]) == TreeVector.zero()

    def test_arithmetic(self):
        y = TreeVector.from_dict({"": "1/2", "0": "-1/2"})
        assert (EX + y).value(Node("")) == Fraction(3, 2)
        assert (EX - y).value(Node("0")) == Fraction(1, 2)
        assert (EX + y) - y == EX
        assert y.scale(2) == TreeVector.from_dict({"": 1, "0": -1})

    def test_derived_vectors_match_the_validating_constructor(self):
        rng = random.Random(7)
        paths = ["", "0", "1", "00", "01", "10", "011"]
        values = [Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 3)]

        def draw():
            nodes = rng.sample(paths, rng.randint(0, 5))
            return TreeVector({Node(p): rng.choice(values) for p in nodes})

        for _ in range(300):
            x, y = draw(), draw()
            nodes = x.support() | y.support()
            c = rng.choice([0, -1, Fraction(1, 2), *values])
            a = Node(rng.choice(paths))
            cases = [
                (x + y, {n: x.value(n) + y.value(n) for n in nodes}),
                (x - y, {n: x.value(n) - y.value(n) for n in nodes}),
                (x - x, {}),
                (x + x.scale(-1), {}),
                (x.scale(c), {n: v * c for n, v in x.items()}),
                (x.scale(0), {}),
                (x.restrict(y.support()), {n: v for n, v in x.items() if n in y.support()}),
                (x.wedge(a), {n: v for n, v in x.items() if leq(a, n)}),
            ]
            for derived, expected in cases:
                assert derived._entries == TreeVector(expected)._entries
                assert all(type(v) is Fraction and v != 0 for v in derived._entries.values())

    def test_equality_and_hash(self):
        same = TreeVector.from_dict({"01": "1", "00": 1, "": "2/2", "1": 0})
        assert same == EX and hash(same) == hash(EX)
        assert len({EX, same, EX.scale(2)}) == 2
        assert EX.__eq__({"": 1, "00": 1, "01": 1}) is NotImplemented
        assert EX != {"": 1, "00": 1, "01": 1} and EX != 0
